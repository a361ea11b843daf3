#pragma once

/// \file calendar_queue.hpp
/// Pending-event set for the discrete-event simulator: a calendar queue
/// [Brown 1988] — a power-of-two array of day buckets, each a tiny
/// (time, seq) min-heap, plus a far min-heap for events beyond the
/// calendar's current year.  Insert and extract are amortized O(1) when the
/// day width matches the observed inter-event gap; the width is retuned from
/// deterministic pop-gap statistics at every lazy resize (4x grow at >2
/// items/bucket, 4x shrink at <1/8).  See docs/PERFORMANCE.md for the tuning
/// and determinism story.
///
/// Pops come out strictly by (time, seq) — the FIFO-at-equal-times contract
/// every fingerprint/replay guarantee in the repository rests on — asserted
/// against a reference binary heap by the 10^6-op differential test in
/// tests/sim.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/delay_model.hpp"
#include "sim/event_fn.hpp"
#include "sim/profiler.hpp"

namespace pqra::sim {

class EventQueue {
 public:
  struct Item {
    Time t;
    std::uint64_t seq;
    EventFn fn;
    EventTag tag;
  };

  EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Inserts an item.  \p seq must be unique and totally ordered with every
  /// other live seq (the Simulator's monotone counter guarantees this).
  void push(Time t, std::uint64_t seq, EventTag tag, EventFn fn);

  /// Time of the earliest (t, seq) item.  Queue must be non-empty.  May
  /// advance internal cursors (locating the minimum is where a calendar
  /// queue does its work), hence non-const; never changes the pop order.
  Time min_time();

  /// Removes and returns the earliest (t, seq) item.  Queue must be
  /// non-empty.
  Item pop();

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Number of calendar grow/shrink reorganizations so far; exported as
  /// pqra_sim_queue_bucket_resizes_total.
  std::uint64_t bucket_resizes() const { return bucket_resizes_; }

 private:
  // Day index of time t at the current width.  Saturates at kMaxDay so
  // huge timestamps (or a tiny width) cannot overflow the uint64 cast.
  std::uint64_t day_of(Time t) const;

  // Positions cur_day_/located_ on the day bucket holding the minimum item.
  void locate();

  // Moves far-heap items whose day has entered the calendar window into
  // their buckets.  Called whenever cur_day_ advances.
  void drain_far();

  // Rebuilds the calendar with \p new_bucket_count buckets and a width
  // retuned from pop-gap statistics.
  void resize(std::size_t new_bucket_count);

  void push_calendar(Item item);

  std::size_t size_ = 0;
  std::uint64_t bucket_resizes_ = 0;

  std::vector<std::vector<Item>> buckets_;  // power-of-two count
  std::vector<Item> far_;                   // (t, seq) min-heap beyond window
  std::size_t bucket_mask_ = 0;             // buckets_.size() - 1
  double width_ = 1.0;                      // day width in sim-time units
  double inv_width_ = 1.0;
  std::uint64_t cur_day_ = 0;  // earliest day that may hold the minimum
  bool located_ = false;       // bucket[cur_day_] top is the global minimum
  // Deterministic width-tuning statistics: gaps between consecutive pops.
  Time last_pop_t_ = 0.0;
  bool have_last_pop_ = false;
  double gap_sum_ = 0.0;
  std::uint64_t gap_count_ = 0;
  std::vector<Item> scratch_;  // resize staging, capacity recycled
};

}  // namespace pqra::sim
