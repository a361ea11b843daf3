#include "sim/event_queue.hpp"

#include <limits>

#include "util/check.hpp"

namespace pqra::sim {

namespace {

__extension__ using Rank128 = unsigned __int128;

/// Strict (rank, seq) order as one unsigned 128-bit compare (a subtract
/// with borrow, no branch): seq breaks equal-time ties in schedule order.
template <typename Key>
bool before(const Key& a, const Key& b) {
  return (Rank128{a.rank} << 64 | a.seq) < (Rank128{b.rank} << 64 | b.seq);
}

}  // namespace

void EventQueue::grow() {
  PQRA_CHECK(chunks_.size() * kChunkSlots + kChunkSlots <=
                 std::numeric_limits<std::uint32_t>::max(),
             "too many pending events for 32-bit slot indices");
  const auto base = static_cast<std::uint32_t>(chunks_.size() * kChunkSlots);
  chunks_.emplace_back(kChunkSlots);
  // release() pushes without reallocating: the free list can hold every slot.
  free_.reserve(chunks_.size() * kChunkSlots);
  // Lowest index on top, so a fresh chunk fills in index order.
  for (std::size_t i = kChunkSlots; i > 0; --i) {
    free_.push_back(base + static_cast<std::uint32_t>(i - 1));
  }
}

void EventQueue::insert(const Key& key) {
  // Sift up through a hole: parents move down until the key's place is found.
  std::size_t i = heap_.size();
  heap_.emplace_back();
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(key, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = key;
}

Time EventQueue::min_time() const {
  PQRA_CHECK(!heap_.empty(), "min_time() on an empty event queue");
  return time_of(heap_.front());
}

EventQueue::Popped EventQueue::pop() {
  PQRA_CHECK(!heap_.empty(), "pop() on an empty event queue");
  const Key top = heap_.front();
  const Key last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n > 0) {
    // Sift down through a hole at the root: the least child moves up until
    // the displaced last key fits.
    const Key* h = heap_.data();
    std::size_t i = 0;
    for (std::size_t first = 1; first < n; first = 4 * i + 1) {
      std::size_t least;
      if (first + 4 <= n) {
        // A full node: a two-round tournament whose winners are computed
        // by adding compare results, so it compiles without a branch.
        const std::size_t a = first + before(h[first + 1], h[first]);
        const std::size_t b = first + 2 + before(h[first + 3], h[first + 2]);
        least = before(h[b], h[a]) ? b : a;
      } else {
        least = first;
        for (std::size_t c = first + 1; c < n; ++c) {
          if (before(h[c], h[least])) least = c;
        }
      }
      if (!before(h[least], last)) break;
      heap_[i] = h[least];
      i = least;
    }
    heap_[i] = last;
  }
  return Popped{time_of(top), top.seq, top.slot, top.tag};
}

}  // namespace pqra::sim
