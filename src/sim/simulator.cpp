#include "sim/simulator.hpp"

#include <bit>
#include <chrono>

#include "util/check.hpp"

namespace pqra::sim {

namespace {

/// One FNV-1a step folding a 64-bit word byte-wise would cost 8 multiplies;
/// a single multiply-xor per word keeps the fingerprint off the hot path's
/// critical cost while still mixing every bit of (time, seq).
inline std::uint64_t fold(std::uint64_t h, std::uint64_t word) {
  return (h ^ word) * 0x100000001b3ULL;  // FNV-1a prime
}

/// Destroys the fired callback and frees its slot when step() leaves,
/// whether the callback returned or threw.
struct SlotRelease {
  EventQueue& queue;
  std::uint32_t slot;
  ~SlotRelease() { queue.release(slot); }
};

}  // namespace

void Simulator::note_subevent(Time t, std::uint64_t seq, EventTag tag) {
  PQRA_CHECK(t == now_, "subevents fire inside the current event only");
  ++processed_;
  fingerprint_ =
      fold(fold(fingerprint_, std::bit_cast<std::uint64_t>(t)), seq);
  // Zero wall / zero advance: the carrying event was already timed as one
  // callback, and equal-time entries advance the clock by nothing.
  if (profiler_ != nullptr) profiler_->on_event(tag, 0, 0.0);
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  const EventQueue::Popped ev = queue_.pop();
  const SlotRelease release{queue_, ev.slot};
  EventFn& fn = queue_.callback(ev.slot);
  const Time prev = now_;
  now_ = ev.t;
  ++processed_;
  fingerprint_ = fold(fold(fingerprint_, std::bit_cast<std::uint64_t>(ev.t)),
                      ev.seq);
  if (profiler_ == nullptr) {
    fn();
  } else {
    // steady_clock (never system_clock: docs/STATIC_ANALYSIS.md) around the
    // callback only — queue maintenance stays unattributed so tag costs are
    // comparable across queue implementations.
    const auto wall_start = std::chrono::steady_clock::now();
    fn();
    const auto wall_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now() - wall_start)
                             .count();
    profiler_->on_event(ev.tag, static_cast<std::uint64_t>(wall_ns),
                        ev.t - prev);
  }
  return true;
}

std::size_t Simulator::run() {
  std::size_t n = 0;
  while (!stop_requested_ && step()) ++n;
  return n;
}

std::size_t Simulator::run_until(Time t) {
  PQRA_REQUIRE(t >= now_, "cannot run into the past");
  std::size_t n = 0;
  while (!stop_requested_ && !queue_.empty() && queue_.min_time() <= t) {
    step();
    ++n;
  }
  if (!stop_requested_ && now_ < t) now_ = t;
  return n;
}

}  // namespace pqra::sim
