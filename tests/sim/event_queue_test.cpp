#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "util/rng.hpp"

// The suite keeps the name CalendarQueue, which the test ids carry, so that
// the ids stay stable across queue implementations.

namespace pqra::sim {
namespace {

/// A 4-ary heap holding 4^4 = 256 items has leaves 4 levels below its root,
/// so sifts through it cross at least 4 levels.
constexpr std::size_t kFourLevels = 256;

void push_noop(EventQueue& queue, EventArena& arena, Time t,
               std::uint64_t seq) {
  queue.push(t, seq, EventTag::kGeneric, [] {}, arena);
}

/// Pops the earliest key and frees its slot without running the callback.
EventQueue::Popped pop_and_release(EventQueue& queue) {
  const EventQueue::Popped top = queue.pop();
  queue.release(top.slot);
  return top;
}

/// Same-timestamp events must pop in seq order even when the run of equal
/// timestamps is spread over a deep heap: the pushes lay down spread-out
/// timestamps first, then a block of identical ones that sift up past them.
TEST(CalendarQueue, SameTimestampFifoAcrossBucketBoundaries) {
  EventQueue queue;
  EventArena arena;
  std::uint64_t seq = 0;
  for (int i = 0; i < 256; ++i) {
    push_noop(queue, arena, static_cast<Time>(i), seq++);
  }
  // A same-timestamp block in the middle of the horizon, pushed after the
  // spread — by FIFO it must still come out in push order.
  std::vector<std::uint64_t> block_seqs;
  for (int i = 0; i < 64; ++i) {
    block_seqs.push_back(seq);
    push_noop(queue, arena, 100.5, seq++);
  }
  EXPECT_GE(queue.size(), kFourLevels);

  Time last_t = -1.0;
  std::uint64_t last_seq = 0;
  std::vector<std::uint64_t> popped_block;
  while (!queue.empty()) {
    const EventQueue::Popped item = pop_and_release(queue);
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

/// A firing event may schedule new work at the current time or before the
/// next pending event; the queue must honor both without missing events.
/// The callback first schedules 10^4 events, growing the slot array, and
/// only then reads its own capture: a queue that ran callbacks in place
/// inside a relocating array would read freed memory there.
TEST(CalendarQueue, ScheduleDuringFireReentrancy) {
  Simulator sim;
  std::vector<int> order;
  const std::vector<int> capture{7, 8, 9};
  sim.schedule_at(10.0, [&sim, &order, capture] {
    order.push_back(0);
    for (int i = 0; i < 10000; ++i) sim.schedule_at(20.0, [] {});
    EXPECT_EQ(capture, (std::vector<int>{7, 8, 9}));
    // Equal-time reentrant schedule: fires after this event, before 11.0.
    sim.schedule_at(10.0, [&] { order.push_back(1); });
    // Before the next pending event (11.0) but after now.
    sim.schedule_at(10.5, [&] { order.push_back(2); });
  });
  sim.schedule_at(11.0, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(sim.events_processed(), 4u + 10000u);
}

/// Far-future events pushed after a dense near-term block, in reverse time
/// order, must still come out last and in time order.
TEST(CalendarQueue, FarFutureOverflowDrains) {
  EventQueue queue;
  EventArena arena;
  std::uint64_t seq = 0;
  // A dense near-term block...
  for (int i = 0; i < 128; ++i) {
    push_noop(queue, arena, static_cast<Time>(i) * 0.01, seq++);
  }
  // ...then far-future events, 10^8 near-term spacings away.
  std::vector<Time> far_times;
  for (int i = 0; i < 32; ++i) {
    Time t = 1e6 + static_cast<Time>(32 - i);  // pushed in reverse order
    far_times.push_back(t);
    push_noop(queue, arena, t, seq++);
  }
  Time last = -1.0;
  std::size_t popped = 0;
  while (!queue.empty()) {
    const EventQueue::Popped item = pop_and_release(queue);
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

/// -0.0 is a legal time at now() == 0 (-0.0 >= 0.0).  It ties with +0.0,
/// so seq alone orders the two, and it pops as -0.0, not as the +0.0 it
/// ranks as.
TEST(CalendarQueue, SignedZeroTiesBreakBySeq) {
  EventQueue queue;
  EventArena arena;
  const Time times[] = {0.0, -0.0, 0.0, -0.0, -0.0, 0.0};
  for (std::uint64_t seq = 0; seq < 6; ++seq) {
    push_noop(queue, arena, times[seq], seq);
  }
  EXPECT_FALSE(std::signbit(queue.min_time()));
  for (std::uint64_t seq = 0; seq < 6; ++seq) {
    const EventQueue::Popped top = pop_and_release(queue);
    EXPECT_EQ(top.seq, seq);
    EXPECT_EQ(std::signbit(top.t), std::signbit(times[seq])) << seq;
  }
}

/// Subnormal times sit between 0 and the least normal double, and +inf
/// after every finite time; both order by value.
TEST(CalendarQueue, SubnormalAndInfiniteTimesOrderByValue) {
  EventQueue queue;
  EventArena arena;
  const Time dmin = std::numeric_limits<Time>::denorm_min();
  const Time inf = std::numeric_limits<Time>::infinity();
  const Time pushed[] = {inf,      std::numeric_limits<Time>::min(),
                         3 * dmin, dmin,
                         0.0,      1e300,
                         2 * dmin, inf};
  std::uint64_t seq = 0;
  for (Time t : pushed) push_noop(queue, arena, t, seq++);
  std::vector<std::uint64_t> order;
  std::vector<Time> times;
  while (!queue.empty()) {
    const EventQueue::Popped top = pop_and_release(queue);
    order.push_back(top.seq);
    times.push_back(top.t);
  }
  EXPECT_EQ(order, (std::vector<std::uint64_t>{4, 3, 6, 2, 1, 5, 0, 7}));
  EXPECT_EQ(times.back(), inf);
}

/// A burst of equal times pushed in shuffled seq order pops in seq order.
TEST(CalendarQueue, EqualTimeBurstPopsInSeqOrder) {
  EventQueue queue;
  EventArena arena;
  util::Rng rng(7);
  std::vector<std::uint64_t> seqs(kFourLevels);
  for (std::size_t i = 0; i < seqs.size(); ++i) seqs[i] = i;
  rng.shuffle(seqs);
  for (std::uint64_t seq : seqs) push_noop(queue, arena, 5.0, seq);
  for (std::uint64_t want = 0; want < seqs.size(); ++want) {
    const EventQueue::Popped top = pop_and_release(queue);
    ASSERT_EQ(top.seq, want);
    ASSERT_EQ(top.t, 5.0);
  }
}

/// The same edge cases through the Simulator: now() reports -0.0 while a
/// -0.0 event runs, and the fingerprints of both runs equal the values the
/// branchy (t, seq) heap produced before rank keys replaced it.
TEST(CalendarQueue, EdgeTimeRunsKeepTheirFingerprints) {
  {
    Simulator sim;
    std::vector<int> order;
    std::vector<bool> negative;
    auto at = [&](Time t, int id) {
      sim.schedule_at(t, [&, id] {
        order.push_back(id);
        negative.push_back(std::signbit(sim.now()));
      });
    };
    at(0.0, 0);
    sim.schedule_at(-0.0, [&] {
      order.push_back(1);
      negative.push_back(std::signbit(sim.now()));
      at(-0.0, 4);
      at(0.0, 5);
    });
    at(0.0, 2);
    at(-0.0, 3);
    at(1.0, 6);
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6}));
    EXPECT_EQ(negative, (std::vector<bool>{false, true, false, true, true,
                                           false, false}));
    EXPECT_EQ(sim.events_processed(), 7u);
    EXPECT_EQ(sim.fingerprint(), 0xce953aec3c5867d8ULL);
  }
  {
    Simulator sim;
    const Time dmin = std::numeric_limits<Time>::denorm_min();
    const Time inf = std::numeric_limits<Time>::infinity();
    std::vector<Time> fired;
    for (Time t : {inf, std::numeric_limits<Time>::min(), 3 * dmin, dmin, 0.0,
                   1e300, 2 * dmin}) {
      sim.schedule_at(t, [&] { fired.push_back(sim.now()); });
    }
    sim.run();
    EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
    EXPECT_EQ(sim.now(), inf);
    EXPECT_EQ(sim.fingerprint(), 0x9d632cfb1c347f18ULL);
  }
}

/// A capture that counts its moves.  Copying is disabled, so every transfer
/// is a move.
struct MoveCounter {
  int* moves;
  int* calls;
  MoveCounter(int* m, int* c) : moves(m), calls(c) {}
  MoveCounter(MoveCounter&& other) noexcept
      : moves(other.moves), calls(other.calls) {
    ++*moves;
  }
  MoveCounter(const MoveCounter&) = delete;
  MoveCounter& operator=(const MoveCounter&) = delete;
  MoveCounter& operator=(MoveCounter&&) = delete;
  void operator()() { ++*calls; }
};

/// schedule_at() moves a capture once, into its slot, and nothing moves it
/// afterwards: not later schedules, not slot growth while another callback
/// runs and schedules 10^4 events, not the pop that runs it.
TEST(CalendarQueue, CaptureMovesOnceIntoItsSlotAndNeverAgain) {
  Simulator sim;
  int moves = 0;
  int calls = 0;
  sim.schedule_at(2.0, MoveCounter(&moves, &calls));
  EXPECT_LE(moves, 1);
  const int scheduled = moves;
  sim.schedule_at(1.0, [&sim] {
    for (int i = 0; i < 10000; ++i) sim.schedule_at(1.5, [] {});
  });
  sim.run();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(moves, scheduled);
  EXPECT_EQ(sim.events_processed(), 2u + 10000u);
}

/// A slot's address is fixed from push() until release(), however much the
/// queue grows; a popped slot stays taken until it is released, and then it
/// is the next one handed out.
TEST(CalendarQueue, SlotsStayPutAndReleasedSlotsAreReusedFirst) {
  EventQueue queue;
  EventArena arena;
  const std::uint32_t first = queue.push(1.0, 0, EventTag::kGeneric, [] {},
                                         arena);
  const EventFn* where = &queue.callback(first);
  for (std::uint64_t seq = 1; seq <= 10000; ++seq) {
    push_noop(queue, arena, 2.0, seq);
  }
  EXPECT_EQ(&queue.callback(first), where);
  const EventQueue::Popped top = queue.pop();
  EXPECT_EQ(top.slot, first);
  EXPECT_TRUE(static_cast<bool>(queue.callback(first)));
  const std::uint32_t other = queue.push(3.0, 10001, EventTag::kGeneric,
                                         [] {}, arena);
  EXPECT_NE(other, first) << "a popped slot is taken until released";
  queue.release(first);
  EXPECT_FALSE(static_cast<bool>(queue.callback(first)));
  EXPECT_EQ(queue.push(4.0, 10002, EventTag::kGeneric, [] {}, arena), first);
}

/// A closure whose copy throws leaves the queue as it was: no key, no slot
/// taken, no arena block kept.
TEST(CalendarQueue, FailedCallbackBuildLeavesTheQueueUnchanged) {
  struct ThrowsOnCopy {
    std::array<std::byte, EventFn::kInlineBytes> payload{};
    ThrowsOnCopy() = default;
    ThrowsOnCopy(const ThrowsOnCopy&) {
      throw std::runtime_error("copy failed");
    }
    void operator()() {}
  };
  EventQueue queue;
  EventArena arena;
  const ThrowsOnCopy closure;
  EXPECT_THROW(queue.push(1.0, 0, EventTag::kGeneric, closure, arena),
               std::runtime_error);
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(arena.stats().blocks_live, 0u);
  // The slot the failed push tried is still the first one handed out.
  EXPECT_EQ(queue.push(2.0, 1, EventTag::kGeneric, [] {}, arena), 0u);
  EXPECT_EQ(queue.size(), 1u);
}

/// A callback that throws out of run(): its capture is destroyed exactly
/// once, the slot it ran in is the next one used, and a later run() fires
/// normally.
TEST(CalendarQueue, ThrowingCallbackIsDestroyedOnceAndItsSlotReused) {
  struct Probe {
    int* destroyed;
    const void** ran_at;
    bool throws;
    Probe(int* d, const void** r, bool t)
        : destroyed(d), ran_at(r), throws(t) {}
    Probe(Probe&& other) noexcept
        : destroyed(std::exchange(other.destroyed, nullptr)),
          ran_at(other.ran_at),
          throws(other.throws) {}
    Probe(const Probe&) = delete;
    Probe& operator=(const Probe&) = delete;
    Probe& operator=(Probe&&) = delete;
    ~Probe() {
      if (destroyed != nullptr) ++*destroyed;
    }
    void operator()() {
      *ran_at = this;
      if (throws) throw std::runtime_error("callback failed");
    }
  };
  Simulator sim;
  int destroyed = 0;
  const void* thrower_at = nullptr;
  const void* next_at = nullptr;
  sim.schedule_at(1.0, Probe(&destroyed, &thrower_at, true));
  EXPECT_EQ(destroyed, 0);
  EXPECT_THROW(sim.run(), std::runtime_error);
  EXPECT_EQ(destroyed, 1);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.now(), 1.0);

  sim.schedule_at(2.0, Probe(&destroyed, &next_at, false));
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(destroyed, 2);
  EXPECT_EQ(next_at, thrower_at) << "the freed slot is reused first";
  EXPECT_EQ(sim.events_processed(), 2u);
}

/// Reference pending-event set for the differential test: one binary
/// min-heap over (t, seq) built on std::push_heap/std::pop_heap.
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

/// The acceptance bar for the event queue: a randomized mixed workload
/// (uniform, bimodal and heavy-tail delays; bursts of equal timestamps;
/// interleaved pushes and pops) produces byte-identical pop sequences from
/// the queue and the reference binary heap.
TEST(CalendarQueue, DifferentialVsHeapMillionOps) {
  EventQueue queue;
  ReferenceHeap heap;
  EventArena arena_c;
  util::Rng rng(20260807);

  constexpr std::size_t kOps = 1000000;
  std::uint64_t seq = 0;
  Time now = 0.0;  // both queues share one virtual clock (max popped t)
  std::size_t compared = 0;
  std::size_t high_water = 0;
  for (std::size_t i = 0; i < kOps; ++i) {
    const bool push = queue.empty() || rng.uniform01() < 0.55;
    if (push) {
      double u = rng.uniform01();
      Time delay;
      if (u < 0.4) {
        delay = rng.uniform01();  // uniform mix
      } else if (u < 0.6) {
        delay = rng.uniform01() < 0.9 ? 0.125 : 64.0;  // two-point mix
      } else if (u < 0.8) {
        double e = rng.exponential(1.0);
        delay = e * e * e;  // heavy tail: rare far-future events
      } else {
        delay = 0.0;  // equal-timestamp burst
      }
      push_noop(queue, arena_c, now + delay, seq);
      heap.push(now + delay, seq);
      ++seq;
      high_water = std::max(high_water, queue.size());
    } else {
      const EventQueue::Popped a = pop_and_release(queue);
      ReferenceHeap::Entry b = heap.pop();
      ASSERT_EQ(a.t, b.t) << "divergence at op " << i;
      ASSERT_EQ(a.seq, b.seq) << "divergence at op " << i;
      now = a.t;
      ++compared;
    }
  }
  while (!queue.empty()) {
    ASSERT_FALSE(heap.empty());
    const EventQueue::Popped a = pop_and_release(queue);
    ReferenceHeap::Entry b = heap.pop();
    ASSERT_EQ(a.t, b.t);
    ASSERT_EQ(a.seq, b.seq);
    ++compared;
  }
  EXPECT_TRUE(heap.empty());
  EXPECT_GT(compared, kOps / 3);
  EXPECT_GE(high_water, kFourLevels);
}

}  // namespace
}  // namespace pqra::sim
