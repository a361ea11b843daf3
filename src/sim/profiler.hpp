#pragma once

/// \file profiler.hpp
/// DES self-profiler: per-event-type fire counts plus wall-time and
/// simulated-time attribution for the event loop.
///
/// Every scheduled event carries an EventTag (schedule sites pick one; the
/// untagged overloads default to kGeneric).  When a Profiler is attached,
/// Simulator::step() times each callback with std::chrono::steady_clock and
/// reports (tag, wall ns, simulated-time advance) here; with no profiler
/// attached the hot loop takes a single branch and no clock reads, so
/// profiling costs nothing when off (the ≤5%-regression budget in
/// BENCH_PR6.json is measured with it off).
///
/// Attribution answers which event types dominate wall time, and how far
/// each fire advances virtual time (the event-horizon distribution).  Queue
/// maintenance (sim/event_queue.hpp) happens outside the timed callback, so
/// tag costs stay comparable across queue implementations.
///
/// The two histograms use util::log2_bucket's layout, the same one
/// obs::Histogram uses (sim links only util; tests/sim/profiler_test.cpp
/// pins the equivalence).  Wall times are inherently nondeterministic, so
/// they are exported *only* through write_json (profile.json in an
/// `experiment_cli report=DIR` run) — never into the metrics registry,
/// whose bytes the determinism tests compare.  The deterministic fire
/// counts are published separately by the callers that own a registry
/// (iter/alg1_des.cpp) under names::kProfileFires*.

#include <cstdint>
#include <iosfwd>

#include "util/stats.hpp"

namespace pqra::sim {

/// Why an event was scheduled.  Values index names::kProfileFiresByTag.
enum class EventTag : std::uint8_t {
  kGeneric = 0,     ///< untagged schedule sites
  kMsgDeliver = 1,  ///< SimTransport message delivery
  kRetryTimer = 2,  ///< client retry/backoff timer
  kDeadline = 3,    ///< client operation deadline
  kGossip = 4,      ///< server anti-entropy tick
  kFault = 5,       ///< FaultPlan installation (crash/recover/outage/...)
  kWorkload = 6,    ///< workload drivers (clients issuing ops)
  kProbe = 7,       ///< invariant probes (tools/explore, spec probes)
};
inline constexpr std::size_t kNumEventTags = 8;

const char* event_tag_name(EventTag tag);

class Profiler {
 public:
  struct TagStats {
    std::uint64_t fires = 0;
    std::uint64_t wall_ns = 0;     ///< total callback wall time
    double sim_advance = 0.0;      ///< total virtual-time advance on fire
  };

  /// O(1), allocation-free (hot-path lint scope): called by
  /// Simulator::step() once per fired event.
  void on_event(EventTag tag, std::uint64_t wall_ns, double sim_advance);

  const TagStats& tag_stats(EventTag tag) const {
    return per_tag_[static_cast<std::size_t>(tag)];
  }
  std::uint64_t total_fires() const { return fires_; }
  std::uint64_t total_wall_ns() const { return wall_ns_; }

  /// Fire counts per util::log2_bucket bucket \p i.
  std::uint64_t wall_bucket(std::size_t i) const { return wall_buckets_[i]; }
  std::uint64_t advance_bucket(std::size_t i) const {
    return advance_buckets_[i];
  }

  /// One JSON object: totals, per-tag attribution, and the two sparse
  /// histograms (wall ns per fire; simulated-time advance per fire).
  /// Wall fields make the bytes nondeterministic by design — route them to
  /// the run report's profile.json only, never into determinism-compared
  /// outputs.
  void write_json(std::ostream& out) const;

 private:
  TagStats per_tag_[kNumEventTags] = {};
  std::uint64_t fires_ = 0;
  std::uint64_t wall_ns_ = 0;
  std::uint64_t wall_buckets_[util::kLog2Buckets] = {};
  std::uint64_t advance_buckets_[util::kLog2Buckets] = {};
};

}  // namespace pqra::sim
