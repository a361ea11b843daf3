#pragma once

/// \file simulator.hpp
/// Deterministic discrete-event simulator.
///
/// Events at equal timestamps fire in scheduling order (a monotonically
/// increasing sequence number breaks ties), so a run is a pure function of
/// the seed — this is what makes every experiment in the repository
/// reproducible and every test deterministic.
///
/// The pending-event set is an EventQueue (sim/event_queue.hpp), a 4-ary
/// heap of compact rank keys that pops strictly by (time, seq), so the
/// executed schedule — and therefore the fingerprint and every byte of
/// output — is a function of the schedule calls alone.  Callbacks are
/// EventFn (sim/event_fn.hpp), not std::function: small captures live
/// inside the event and oversized ones in a recycled slab, so the
/// schedule→fire path performs zero heap allocations — asserted by tests
/// against alloc_stats(), not just by inspection.
///
/// schedule_*() builds each callback once, straight into a queue slot that
/// never moves, and step() runs it in that slot, then destroys it and frees
/// the slot — also when the callback throws.  A capture is moved (or
/// copied) once, into its slot, and never after schedule_*() returns.
///
/// Batched fan-out support: a caller scheduling k causally-related events
/// (a quorum send) can reserve_seqs(k) up front, schedule only the earliest
/// entry with schedule_batch(), and report the rest as they are delivered
/// inline or rescheduled — see net/sim_transport.cpp.  note_subevent() keeps
/// events_processed() and the fingerprint identical to the unbatched
/// schedule, so batching is invisible to every determinism check.

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "sim/delay_model.hpp"
#include "sim/event_fn.hpp"
#include "sim/event_queue.hpp"
#include "sim/profiler.hpp"
#include "util/check.hpp"

namespace pqra::sim {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  Time now() const { return now_; }

  /// Schedules \p fn to run \p delay after now().  Negative delays are
  /// rejected.
  template <typename F>
  void schedule_in(Time delay, F&& fn) {
    schedule_in(delay, EventTag::kGeneric, std::forward<F>(fn));
  }

  /// Tagged form: \p tag attributes the fire to an event type when a
  /// Profiler is attached (sim/profiler.hpp); otherwise it is a free byte.
  template <typename F>
  void schedule_in(Time delay, EventTag tag, F&& fn) {
    PQRA_REQUIRE(delay >= 0.0, "cannot schedule into the past");
    schedule_at(now_ + delay, tag, std::forward<F>(fn));
  }

  /// Schedules \p fn at absolute time \p t (must be >= now()).
  template <typename F>
  void schedule_at(Time t, F&& fn) {
    schedule_at(t, EventTag::kGeneric, std::forward<F>(fn));
  }

  template <typename F>
  void schedule_at(Time t, EventTag tag, F&& fn) {
    PQRA_REQUIRE(t >= now_, "cannot schedule into the past");
    push_event(t, next_seq_++, tag, std::forward<F>(fn));
  }

  /// Reserves \p k consecutive sequence numbers and returns the first.  A
  /// batched fan-out draws its per-entry seqs here at send time, in creation
  /// order, so the executed (time, seq) schedule is exactly what k separate
  /// schedule_at() calls would have produced.
  std::uint64_t reserve_seqs(std::uint64_t k) {
    const std::uint64_t base = next_seq_;
    next_seq_ += k;
    return base;
  }

  /// Schedules the next pending entry of a reserved batch: \p fn fires at
  /// (t, seq) where \p seq came from reserve_seqs().  A batched fan-out
  /// keeps exactly one entry in the queue per block — the carrier event
  /// reschedules (or inline-delivers, note_subevent()) its successors.
  template <typename F>
  void schedule_batch(Time t, std::uint64_t seq, EventTag tag, F&& fn) {
    PQRA_REQUIRE(t >= now_, "cannot schedule into the past");
    PQRA_CHECK(seq < next_seq_, "seq must come from reserve_seqs()");
    push_event(t, seq, tag, std::forward<F>(fn));
  }

  /// Accounts one batched fan-out entry delivered inline by the currently
  /// firing event (equal-time run): bumps events_processed(), folds (t, seq)
  /// into the fingerprint and pings the profiler, exactly as if the entry
  /// had been popped as its own event.  \p t must equal now().
  void note_subevent(Time t, std::uint64_t seq, EventTag tag);

  /// The slab allocator event captures live in; batched fan-out blocks are
  /// carved from the same arena so they obey the same zero-heap contract.
  EventArena& arena() { return arena_; }

  /// Attaches (or detaches, nullptr) a self-profiler.  With none attached
  /// step() takes one extra branch and reads no clocks; with one attached
  /// every callback is timed with std::chrono::steady_clock — which is why
  /// the profiler must never feed determinism-compared outputs.
  void set_profiler(Profiler* profiler) { profiler_ = profiler; }
  Profiler* profiler() const { return profiler_; }

  /// Runs one event in its queue slot.  Returns false when the queue is
  /// empty.  If the callback throws, the exception propagates after the
  /// callback is destroyed and its slot freed.
  bool step();

  /// Runs until the queue empties or request_stop() is called.
  /// Returns the number of events processed by this call.
  std::size_t run();

  /// Runs events with time <= \p t (stops earlier if the queue empties or a
  /// stop is requested).  Afterwards now() == t unless stopped.
  std::size_t run_until(Time t);

  /// Makes run()/run_until() return after the current event completes.
  void request_stop() { stop_requested_ = true; }

  bool stop_requested() const { return stop_requested_; }

  /// Clears a previous stop request so the simulation can be resumed.
  void clear_stop() { stop_requested_ = false; }

  bool empty() const { return queue_.empty(); }
  std::size_t pending_events() const { return queue_.size(); }
  std::uint64_t events_processed() const { return processed_; }

  /// Time of the earliest pending event, nullopt when none is pending: until
  /// when a driver that waits on something else between events (the
  /// threaded register client's mailbox) may sleep.
  std::optional<Time> next_event_time() const {
    if (queue_.empty()) return std::nullopt;
    return queue_.min_time();
  }

  /// \deprecated Always 0: the event queue is a heap and never reorganizes.
  /// Still exported as pqra_sim_queue_bucket_resizes_total because the
  /// benchmark suite reads it; goes when the benchmark drops the count.
  std::uint64_t queue_bucket_resizes() const { return 0; }

  /// Execution fingerprint: an FNV-1a fold of every fired event's (time,
  /// sequence number) pair, updated as the schedule→fire loop runs.  Two
  /// runs with equal fingerprints (and equal events_processed()) executed
  /// the exact same event schedule, so the schedule-exploration fuzzer can
  /// assert byte-identical replays without recording the schedule itself
  /// (docs/EXPLORATION.md).  Costs two multiplies per event.
  std::uint64_t fingerprint() const { return fingerprint_; }

  /// Largest number of simultaneously pending events so far (the event
  /// queue's high-water mark — the memory footprint the run actually
  /// needed).
  std::size_t queue_high_water() const { return queue_high_water_; }

  /// Event-capture allocation tallies (inline vs slab vs counted heap
  /// fallback) — the sibling of queue_high_water() for the allocation
  /// story.  alloc_stats().heap_allocations() == 0 is the zero-allocation
  /// contract the unit tests assert for small captures.
  const EventArena::Stats& alloc_stats() const { return arena_.stats(); }

 private:
  template <typename F>
  void push_event(Time t, std::uint64_t seq, EventTag tag, F&& fn) {
    queue_.push(t, seq, tag, std::forward<F>(fn), arena_);
    if (queue_.size() > queue_high_water_) queue_high_water_ = queue_.size();
  }

  // arena_ outlives queue_: callbacks still queued at destruction (and the
  // fan-out blocks they own) return their storage to the arena.
  EventArena arena_;
  EventQueue queue_;
  std::size_t queue_high_water_ = 0;
  Time now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::uint64_t fingerprint_ = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  bool stop_requested_ = false;
  Profiler* profiler_ = nullptr;
};

}  // namespace pqra::sim
