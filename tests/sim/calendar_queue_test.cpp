#include "sim/calendar_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace pqra::sim {
namespace {

EventFn noop(EventArena& arena) {
  return EventFn([] {}, arena);
}

/// Same-timestamp events must pop in seq order even when the run of equal
/// timestamps spans bucket-array reorganizations: the pushes interleave
/// spread-out timestamps (forcing grows and width retunes) with a block of
/// identical ones.
TEST(CalendarQueue, SameTimestampFifoAcrossBucketBoundaries) {
  EventQueue queue;
  EventArena arena;
  std::uint64_t seq = 0;
  for (int i = 0; i < 256; ++i) {
    queue.push(static_cast<Time>(i), seq++, EventTag::kGeneric, noop(arena));
  }
  // A same-timestamp block in the middle of the horizon, pushed after the
  // spread — by FIFO it must still come out in push order.
  std::vector<std::uint64_t> block_seqs;
  for (int i = 0; i < 64; ++i) {
    block_seqs.push_back(seq);
    queue.push(100.5, seq++, EventTag::kGeneric, noop(arena));
  }
  EXPECT_GT(queue.bucket_resizes(), 0u);

  Time last_t = -1.0;
  std::uint64_t last_seq = 0;
  std::vector<std::uint64_t> popped_block;
  while (!queue.empty()) {
    EventQueue::Item item = queue.pop();
    if (item.t == last_t) {
      EXPECT_GT(item.seq, last_seq);
    } else {
      EXPECT_GT(item.t, last_t);
    }
    if (item.t == 100.5) popped_block.push_back(item.seq);
    last_t = item.t;
    last_seq = item.seq;
  }
  EXPECT_EQ(popped_block, block_seqs);
}

/// An event firing at the queue's current cursor position may schedule new
/// work at the current time (same day) or earlier than the located minimum;
/// the calendar must honor both without missing events.
TEST(CalendarQueue, ScheduleDuringFireReentrancy) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(10.0, [&] {
    order.push_back(0);
    // Equal-time reentrant schedule: fires after this event, before 11.0.
    sim.schedule_at(10.0, [&] { order.push_back(1); });
    // Before the next located minimum (11.0) but after now.
    sim.schedule_at(10.5, [&] { order.push_back(2); });
  });
  sim.schedule_at(11.0, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(sim.events_processed(), 4u);
}

/// Events far beyond the calendar's day window land on the overflow list
/// and must drain back into buckets as the cursor advances.
TEST(CalendarQueue, FarFutureOverflowDrains) {
  EventQueue queue;
  EventArena arena;
  std::uint64_t seq = 0;
  // Near-term events establish a small day width...
  for (int i = 0; i < 128; ++i) {
    queue.push(static_cast<Time>(i) * 0.01, seq++, EventTag::kGeneric,
               noop(arena));
  }
  // ...then far-future events beyond any 128-bucket window of that width.
  std::vector<Time> far_times;
  for (int i = 0; i < 32; ++i) {
    Time t = 1e6 + static_cast<Time>(32 - i);  // pushed in reverse order
    far_times.push_back(t);
    queue.push(t, seq++, EventTag::kGeneric, noop(arena));
  }
  Time last = -1.0;
  std::size_t popped = 0;
  while (!queue.empty()) {
    EventQueue::Item item = queue.pop();
    EXPECT_GE(item.t, last);
    last = item.t;
    ++popped;
  }
  EXPECT_EQ(popped, 128u + 32u);
  EXPECT_EQ(last, 1e6 + 32.0);
}

TEST(CalendarQueue, ScheduleInThePastThrows) {
  Simulator sim;
  sim.schedule_at(2.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(1.0, [] {}), std::logic_error);
}

TEST(CalendarQueue, BatchSeqOutsideReservationThrows) {
  Simulator sim;
  // seq 100 was never handed out by reserve_seqs().
  EXPECT_THROW(sim.schedule_batch(1.0, 100, EventTag::kGeneric, [] {}),
               std::logic_error);
}

/// Reference pending-event set for the differential test: one binary
/// min-heap over (t, seq), the simulator's queue before the calendar.
class ReferenceHeap {
 public:
  struct Entry {
    Time t;
    std::uint64_t seq;
  };

  void push(Time t, std::uint64_t seq) {
    items_.push_back(Entry{t, seq});
    std::push_heap(items_.begin(), items_.end(), later);
  }
  Entry pop() {
    std::pop_heap(items_.begin(), items_.end(), later);
    Entry e = items_.back();
    items_.pop_back();
    return e;
  }
  bool empty() const { return items_.empty(); }

 private:
  static bool later(const Entry& a, const Entry& b) {
    return a.t != b.t ? a.t > b.t : a.seq > b.seq;
  }
  std::vector<Entry> items_;
};

/// The acceptance bar for the calendar queue: a randomized mixed workload
/// (uniform, bimodal and heavy-tail delays; bursts of equal timestamps;
/// interleaved pushes and pops) produces byte-identical pop sequences from
/// the calendar and the reference binary heap.
TEST(CalendarQueue, DifferentialVsHeapMillionOps) {
  EventQueue calendar;
  ReferenceHeap heap;
  EventArena arena_c;
  util::Rng rng(20260807);

  constexpr std::size_t kOps = 1000000;
  std::uint64_t seq = 0;
  Time now = 0.0;  // both queues share one virtual clock (max popped t)
  std::size_t compared = 0;
  for (std::size_t i = 0; i < kOps; ++i) {
    const bool push = calendar.empty() || rng.uniform01() < 0.55;
    if (push) {
      double u = rng.uniform01();
      Time delay;
      if (u < 0.4) {
        delay = rng.uniform01();  // uniform mix
      } else if (u < 0.6) {
        delay = rng.uniform01() < 0.9 ? 0.125 : 64.0;  // two-point mix
      } else if (u < 0.8) {
        double e = rng.exponential(1.0);
        delay = e * e * e;  // heavy tail, exercises the overflow list
      } else {
        delay = 0.0;  // equal-timestamp burst
      }
      calendar.push(now + delay, seq, EventTag::kGeneric, noop(arena_c));
      heap.push(now + delay, seq);
      ++seq;
    } else {
      EventQueue::Item a = calendar.pop();
      ReferenceHeap::Entry b = heap.pop();
      ASSERT_EQ(a.t, b.t) << "divergence at op " << i;
      ASSERT_EQ(a.seq, b.seq) << "divergence at op " << i;
      now = a.t;
      ++compared;
    }
  }
  while (!calendar.empty()) {
    ASSERT_FALSE(heap.empty());
    EventQueue::Item a = calendar.pop();
    ReferenceHeap::Entry b = heap.pop();
    ASSERT_EQ(a.t, b.t);
    ASSERT_EQ(a.seq, b.seq);
    ++compared;
  }
  EXPECT_TRUE(heap.empty());
  EXPECT_GT(compared, kOps / 3);
  EXPECT_GT(calendar.bucket_resizes(), 0u);
}

}  // namespace
}  // namespace pqra::sim
