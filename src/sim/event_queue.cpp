#include "sim/event_queue.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/check.hpp"

namespace pqra::sim {

namespace {

/// Strict (time, seq) order: seq breaks equal-time ties in schedule order.
template <typename Key>
bool before(const Key& a, const Key& b) {
  return a.t != b.t ? a.t < b.t : a.seq < b.seq;
}

}  // namespace

void EventQueue::push(Time t, std::uint64_t seq, EventTag tag, EventFn fn) {
  std::uint32_t slot;
  if (free_.empty()) {
    PQRA_CHECK(slots_.size() < std::numeric_limits<std::uint32_t>::max(),
               "too many pending events for 32-bit slot indices");
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(std::move(fn));
  } else {
    slot = free_.back();
    free_.pop_back();
    slots_[slot] = std::move(fn);
  }
  const Key key{t, seq, slot, tag};
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
  return heap_.front().t;
}

EventQueue::Item EventQueue::pop() {
  PQRA_CHECK(!heap_.empty(), "pop() on an empty event queue");
  const Key top = heap_.front();
  const Key last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n > 0) {
    // Sift down through a hole at the root: the least child moves up until
    // the displaced last key fits.
    std::size_t i = 0;
    for (std::size_t first = 1; first < n; first = 4 * i + 1) {
      std::size_t least = first;
      for (std::size_t c = first + 1; c < std::min(first + 4, n); ++c) {
        if (before(heap_[c], heap_[least])) least = c;
      }
      if (!before(heap_[least], last)) break;
      heap_[i] = heap_[least];
      i = least;
    }
    heap_[i] = last;
  }
  free_.push_back(top.slot);
  return Item{top.t, top.seq, std::move(slots_[top.slot]), top.tag};
}

}  // namespace pqra::sim
