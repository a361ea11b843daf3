#pragma once

/// \file event_queue.hpp
/// Pending-event set for the discrete-event simulator: a 4-ary min-heap of
/// 24-byte (time, seq, slot, tag) keys, with each callback parked in a slot
/// array beside the heap.
///
/// Sifts move keys only, never an EventFn.  A callback moves into its slot
/// on push and out of it on pop, before it runs: a running callback may
/// schedule more events and grow the slot array, so it must not run in
/// place.  Freed slots are reused through a free list, so a warm queue
/// allocates nothing.
///
/// Pops come out strictly by (time, seq) — the FIFO-at-equal-times contract
/// every fingerprint/replay guarantee in the repository rests on.  seq is
/// unique, so the pop order is fixed by the keys alone, whatever the shape
/// of the heap; the 10^6-op differential test in tests/sim checks it pop
/// for pop against a reference binary heap.

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

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Inserts an item.  \p seq must be unique and totally ordered with every
  /// other live seq (the Simulator's monotone counter guarantees this).
  void push(Time t, std::uint64_t seq, EventTag tag, EventFn fn);

  /// Time of the earliest (t, seq) item.  Queue must be non-empty.
  Time min_time() const;

  /// Removes and returns the earliest (t, seq) item; its callback leaves
  /// the slot array here.  Queue must be non-empty.
  Item pop();

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

 private:
  struct Key {
    Time t;
    std::uint64_t seq;
    std::uint32_t slot;  // index into slots_
    EventTag tag;
  };
  static_assert(sizeof(Key) == 24, "heap keys stay compact");

  std::vector<Key> heap_;            // children of i: 4i+1 .. 4i+4
  std::vector<EventFn> slots_;       // parked callbacks
  std::vector<std::uint32_t> free_;  // empty slots, reused last-in first-out
};

}  // namespace pqra::sim
