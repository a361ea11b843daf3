#pragma once

/// \file event_queue.hpp
/// Pending-event set for the discrete-event simulator: a 4-ary min-heap of
/// 24-byte rank keys, with each callback built into a slot that never moves.
///
/// Rank keys.  Non-negative doubles order like their bit patterns, so a key
/// orders by (rank, seq) with rank the bits of t + 0.0: two unsigned
/// compares joined with & and |, and the min-of-four of the sift-down
/// compiles to conditional moves instead of branches.  Adding +0.0 folds
/// -0.0 — legal at now() == 0, because -0.0 >= 0.0 — onto +0.0, so the two
/// tie and seq breaks the tie as a (t, seq) compare would; the key keeps a
/// flag that gives the original -0.0 back to now() and the fingerprint.  NaN
/// never enters (the simulator rejects t < now(), and NaN fails t >= now()),
/// and +inf and subnormal times order correctly by their bits.  push()'s
/// precondition is therefore t >= 0.0.
///
/// Stable slots.  push() builds the callback straight into a free slot, so
/// the caller's closure is moved (or copied) once, into the slot, and never
/// again.  Slots live in fixed-size chunks that are never resized: growth
/// adds a chunk and moves no callback.  pop() removes the key only; the
/// callback runs where it was built, through callback(slot), and release()
/// destroys it and frees the slot after it returns.  Until then the running
/// slot is not on the free list, so whatever the callback schedules goes to
/// other slots.  Freed slots are reused last-in first-out, so a warm queue
/// allocates nothing.
///
/// Pops come out strictly by (time, seq) — the FIFO-at-equal-times contract
/// every fingerprint/replay guarantee in the repository rests on.  seq is
/// unique, so the pop order is fixed by the keys alone, whatever the shape
/// of the heap; the 10^6-op differential test in tests/sim checks it pop
/// for pop against a reference binary heap.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/delay_model.hpp"
#include "sim/event_fn.hpp"
#include "sim/profiler.hpp"

namespace pqra::sim {

class EventQueue {
 public:
  /// The earliest event as pop() hands it out.  Its callback waits in
  /// `slot` until release(slot).
  struct Popped {
    Time t;
    std::uint64_t seq;
    std::uint32_t slot;
    EventTag tag;
  };

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Builds \p fn into a free slot and inserts its key; returns the slot.
  /// \p seq must be unique and totally ordered with every other live seq
  /// (the Simulator's monotone counter guarantees this), and \p t >= 0.0.
  /// If building the callback throws, the queue is unchanged.
  template <typename F>
  std::uint32_t push(Time t, std::uint64_t seq, EventTag tag, F&& fn,
                     EventArena& arena) {
    if (free_.empty()) grow();
    const std::uint32_t slot = free_.back();
    callback(slot).emplace(std::forward<F>(fn), arena);
    free_.pop_back();
    insert(Key{std::bit_cast<std::uint64_t>(t + 0.0), seq, slot, tag,
               std::bit_cast<std::uint64_t>(t) >> 63 != 0});
    return slot;
  }

  /// Time of the earliest (t, seq) event.  Queue must be non-empty.
  Time min_time() const;

  /// Removes the earliest (t, seq) key.  Its callback stays in its slot:
  /// run it through callback(), then release() the slot.  Queue must be
  /// non-empty.
  Popped pop();

  /// The callback in \p slot.  Its address is fixed from push() until
  /// release().
  EventFn& callback(std::uint32_t slot) {
    return chunks_[slot >> kChunkShift][slot & kChunkMask];
  }

  /// Destroys the callback in a popped \p slot and makes the slot reusable.
  void release(std::uint32_t slot) noexcept {
    callback(slot).reset();
    free_.push_back(slot);  // never reallocates: grow() reserved room
  }

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

 private:
  struct Key {
    std::uint64_t rank;  // bits of t + 0.0
    std::uint64_t seq;
    std::uint32_t slot;
    EventTag tag;
    bool negative_zero;  // t was -0.0, which ranks as +0.0
  };
  static_assert(sizeof(Key) == 24, "heap keys stay compact");

  static constexpr unsigned kChunkShift = 8;
  static constexpr std::size_t kChunkSlots = std::size_t{1} << kChunkShift;
  static constexpr std::size_t kChunkMask = kChunkSlots - 1;

  static Time time_of(const Key& key) {
    return std::bit_cast<Time>(
        key.rank | std::uint64_t{key.negative_zero} << 63);
  }

  void insert(const Key& key);
  void grow();

  std::vector<Key> heap_;  // children of i: 4i+1 .. 4i+4
  // Callback slots, kChunkSlots per chunk.  An inner vector is never
  // resized, so a slot's address survives any growth of the outer one.
  std::vector<std::vector<EventFn>> chunks_;
  std::vector<std::uint32_t> free_;  // empty slots, reused last-in first-out
};

}  // namespace pqra::sim
