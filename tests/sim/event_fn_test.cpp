/// \file event_fn_test.cpp
/// The storage contract of sim/event_fn.hpp: small captures live inline
/// (zero heap traffic), medium ones recycle arena blocks, oversize ones fall
/// back to the heap — and the tallies in EventArena::Stats prove it, both at
/// the EventFn level and end-to-end through Simulator::alloc_stats().

#include "sim/event_fn.hpp"

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "sim/simulator.hpp"

namespace pqra::sim {
namespace {

TEST(EventFn, SmallCaptureStoresInlineAndInvokes) {
  EventArena arena;
  int hits = 0;
  EventFn fn([&hits] { ++hits; }, arena);
  ASSERT_TRUE(static_cast<bool>(fn));
  fn();
  fn();
  EXPECT_EQ(hits, 2);
  EXPECT_EQ(arena.stats().inline_events, 1u);
  EXPECT_EQ(arena.stats().arena_events, 0u);
  EXPECT_EQ(arena.stats().heap_allocations(), 0u);
}

TEST(EventFn, DefaultConstructedIsEmpty) {
  EventFn fn;
  EXPECT_FALSE(static_cast<bool>(fn));
}

TEST(EventFn, DestructionReleasesCapture) {
  EventArena arena;
  auto shared = std::make_shared<int>(0);
  {
    EventFn fn([shared] { ++*shared; }, arena);
    EXPECT_EQ(shared.use_count(), 2);
  }
  EXPECT_EQ(shared.use_count(), 1);
}

TEST(EventFn, MediumCaptureUsesArenaBlockAndRecycles) {
  EventArena arena;
  // > kInlineBytes, <= kBlockBytes: must take exactly one slab block.
  struct Medium {
    std::array<std::byte, EventFn::kInlineBytes + 8> payload{};
    int* counter = nullptr;
    void operator()() { ++*counter; }
  };
  static_assert(sizeof(Medium) > EventFn::kInlineBytes);
  static_assert(sizeof(Medium) <= EventArena::kBlockBytes);

  int hits = 0;
  {
    Medium m;
    m.counter = &hits;
    EventFn fn(m, arena);
    fn();
    EXPECT_EQ(arena.stats().arena_events, 1u);
    EXPECT_EQ(arena.stats().blocks_live, 1u);
    EXPECT_EQ(arena.stats().chunks_allocated, 1u);
  }
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(arena.stats().blocks_live, 0u) << "destruction must free the block";

  // The freed block is recycled: many sequential medium events never grow
  // the slab past its first chunk.
  for (int i = 0; i < 1000; ++i) {
    Medium m;
    m.counter = &hits;
    EventFn fn(m, arena);
    fn();
  }
  EXPECT_EQ(arena.stats().chunks_allocated, 1u)
      << "steady-state schedule/fire must not allocate";
  EXPECT_EQ(arena.stats().blocks_high_water, 1u);
  EXPECT_EQ(arena.stats().heap_allocations(), 1u);  // the one chunk
}

// Inline storage is pointer-aligned: a small capture that needs 16-byte
// alignment takes an arena block (max_align_t-aligned), where it runs
// correctly aligned.
TEST(EventFn, OverAlignedCaptureUsesArenaBlock) {
  EventArena arena;
  struct alignas(16) Aligned {
    const void** ran_at = nullptr;
    void operator()() { *ran_at = this; }
  };
  static_assert(sizeof(Aligned) <= EventFn::kInlineBytes);
  static_assert(!EventFn::fits_inline<Aligned>());
  const void* ran_at = nullptr;
  {
    EventFn fn(Aligned{&ran_at}, arena);
    fn();
  }
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(ran_at) % 16, 0u);
  EXPECT_EQ(arena.stats().inline_events, 0u);
  EXPECT_EQ(arena.stats().arena_events, 1u);
  EXPECT_EQ(arena.stats().blocks_live, 0u);
}

TEST(EventFn, OversizeCaptureFallsBackToHeapAndIsCounted) {
  EventArena arena;
  struct Huge {
    std::array<std::byte, EventArena::kBlockBytes + 1> payload{};
    int* counter = nullptr;
    void operator()() { ++*counter; }
  };
  int hits = 0;
  {
    Huge h;
    h.counter = &hits;
    EventFn fn(h, arena);
    fn();
  }
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(arena.stats().oversize_events, 1u);
  EXPECT_EQ(arena.stats().blocks_live, 0u);
}

// End-to-end: a workload of typical simulator closures performs zero heap
// allocations on the event path.  This is the PR's headline claim, asserted
// against the arena tallies exposed through Simulator::alloc_stats().
TEST(SimulatorAllocation, ScheduleFireLoopIsAllocationFree) {
  Simulator simulator;
  std::uint64_t fired = 0;
  // A self-rescheduling closure comparable to a transport delivery: a couple
  // of pointers and some inline payload, well under kInlineBytes.
  struct Payload {
    std::uint64_t a = 0, b = 0, c = 0;
  };
  std::function<void()> tick;  // assembled once, captured by reference
  Payload payload;
  tick = [&] {
    ++fired;
    payload.a = fired;
    if (fired < 10000) simulator.schedule_in(1.0, [&] { tick(); });
  };
  simulator.schedule_at(0.0, [&] { tick(); });
  simulator.run();
  EXPECT_EQ(fired, 10000u);
  EXPECT_EQ(simulator.alloc_stats().heap_allocations(), 0u)
      << "every capture here fits inline; the event path must not allocate";
  EXPECT_EQ(simulator.alloc_stats().inline_events, 10000u);
}

TEST(SimulatorAllocation, StatsVisibleNextToQueueHighWater) {
  Simulator simulator;
  for (int i = 0; i < 8; ++i) {
    simulator.schedule_at(static_cast<Time>(i), [] {});
  }
  simulator.run();
  EXPECT_EQ(simulator.queue_high_water(), 8u);
  EXPECT_EQ(simulator.alloc_stats().inline_events, 8u);
  EXPECT_EQ(simulator.alloc_stats().heap_allocations(), 0u);
}

}  // namespace
}  // namespace pqra::sim
