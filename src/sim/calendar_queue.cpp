#include "sim/calendar_queue.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace pqra::sim {

namespace {

/// Strict (time, seq) order inverted for std::push_heap/std::pop_heap so the
/// *earliest* item surfaces; seq breaks equal-time ties in schedule order.
struct Later {
  bool operator()(const EventQueue::Item& a, const EventQueue::Item& b) const {
    if (a.t != b.t) return a.t > b.t;
    return a.seq > b.seq;
  }
};

// Day indices saturate here (~4.6e18) so `t * inv_width_` can never overflow
// the uint64 cast even for absurd horizons or a microscopic width; every
// saturated item lands in the far heap, which orders by (t, seq) exactly.
constexpr std::uint64_t kMaxDay = std::uint64_t{1} << 62;

// Consecutive empty days scanned linearly before jumping straight to the
// day of the true minimum (an O(buckets) sweep).  Keeps sparse schedules —
// e.g. a lone retry timer far in the future — from walking the calendar one
// empty day at a time.
constexpr std::uint64_t kMaxEmptyScan = 64;

constexpr std::size_t kMinBuckets = 16;

// Retuned width targets ~2 items per day at steady state (Brown's rule of
// thumb): wide enough that a day usually holds the next few pops, narrow
// enough that in-day heap ops stay O(1)-ish.
constexpr double kWidthGapFactor = 2.0;

}  // namespace

EventQueue::EventQueue()
    : buckets_(kMinBuckets), bucket_mask_(kMinBuckets - 1) {}

std::uint64_t EventQueue::day_of(Time t) const {
  const double d = t * inv_width_;
  if (d >= static_cast<double>(kMaxDay)) return kMaxDay;
  if (d <= 0.0) return 0;
  return static_cast<std::uint64_t>(d);
}

void EventQueue::push(Time t, std::uint64_t seq, EventTag tag, EventFn fn) {
  if (size_ == 0) {
    // Empty calendar: re-anchor the cursor on the incoming item so a long
    // quiet gap does not have to be scanned day by day.
    cur_day_ = day_of(t);
    located_ = false;
  }
  push_calendar(Item{t, seq, std::move(fn), tag});
  ++size_;
  // Grow in 4x steps: each resize moves every live item, so a run ramping
  // from empty to its steady-state population pays half as many rebuilds as
  // a 2x ramp would, at the cost of briefly under-filled buckets.
  if (size_ > 2 * buckets_.size()) resize(buckets_.size() * 4);
}

void EventQueue::push_calendar(Item item) {
  const std::uint64_t day = day_of(item.t);
  if (day < cur_day_) {
    // Legal when now <= t < (located minimum): the cursor had already walked
    // past this day's start.  Pull it back; items left in buckets with later
    // days simply wait for the cursor again (correct, just a re-scan).
    cur_day_ = day;
    located_ = false;
  } else if (day == cur_day_) {
    located_ = false;  // may beat the cached minimum
  }
  // day > cur_day_ cannot beat a located minimum (its time is >= the start
  // of a strictly later day), so the cache stays valid.
  if (day >= cur_day_ + buckets_.size()) {
    far_.push_back(std::move(item));
    std::push_heap(far_.begin(), far_.end(), Later{});
    return;
  }
  std::vector<Item>& b = buckets_[day & bucket_mask_];
  b.push_back(std::move(item));
  std::push_heap(b.begin(), b.end(), Later{});
}

void EventQueue::drain_far() {
  while (!far_.empty() && day_of(far_.front().t) < cur_day_ + buckets_.size()) {
    std::pop_heap(far_.begin(), far_.end(), Later{});
    Item item = std::move(far_.back());
    far_.pop_back();
    const std::uint64_t day = day_of(item.t);
    std::vector<Item>& b = buckets_[day & bucket_mask_];
    b.push_back(std::move(item));
    std::push_heap(b.begin(), b.end(), Later{});
  }
}

void EventQueue::locate() {
  if (located_) return;
  std::uint64_t scanned = 0;
  for (;;) {
    std::vector<Item>& b = buckets_[cur_day_ & bucket_mask_];
    if (!b.empty() && day_of(b.front().t) == cur_day_) {
      located_ = true;
      return;
    }
    ++cur_day_;
    drain_far();
    if (++scanned < kMaxEmptyScan) continue;
    // Sparse region: jump the cursor to the day of the true minimum.  The
    // minimum is some bucket's top or the far top (each is a (t, seq) heap).
    scanned = 0;
    const Item* min_item = far_.empty() ? nullptr : &far_.front();
    for (const std::vector<Item>& bucket : buckets_) {
      if (bucket.empty()) continue;
      if (min_item == nullptr || Later{}(*min_item, bucket.front())) {
        min_item = &bucket.front();
      }
    }
    PQRA_CHECK(min_item != nullptr, "locate() on an empty calendar");
    const std::uint64_t jump = day_of(min_item->t);
    if (jump > cur_day_) {
      cur_day_ = jump;
      drain_far();
    }
  }
}

EventQueue::Item EventQueue::pop() {
  PQRA_CHECK(size_ > 0, "pop() on an empty event queue");
  --size_;
  locate();
  std::vector<Item>& b = buckets_[cur_day_ & bucket_mask_];
  std::pop_heap(b.begin(), b.end(), Later{});
  Item item = std::move(b.back());
  b.pop_back();
  located_ = false;
  // Width tuning feeds on the pop-gap stream — a deterministic function of
  // the schedule, so retuned widths (and thus resize points) replay
  // identically run to run.
  if (have_last_pop_) {
    gap_sum_ += item.t - last_pop_t_;
    ++gap_count_;
  }
  last_pop_t_ = item.t;
  have_last_pop_ = true;
  // Shrink with 8x hysteresis (vs the 2x grow trigger) and in 4x steps:
  // the end-of-run drain crosses each halving point exactly once, and a
  // tighter threshold made that tail thrash through O(n) rebuilds whose
  // buckets were about to empty anyway.  Jump-to-min in locate() keeps
  // sparse over-sized calendars cheap in the meantime.
  if (size_ * 8 < buckets_.size() && buckets_.size() > kMinBuckets) {
    resize(std::max(kMinBuckets, buckets_.size() / 4));
  }
  return item;
}

Time EventQueue::min_time() {
  PQRA_CHECK(size_ > 0, "min_time() on an empty event queue");
  locate();
  return buckets_[cur_day_ & bucket_mask_].front().t;
}

void EventQueue::resize(std::size_t new_bucket_count) {
  ++bucket_resizes_;
  scratch_.clear();
  for (std::vector<Item>& b : buckets_) {
    for (Item& item : b) scratch_.push_back(std::move(item));
    b.clear();
  }
  for (Item& item : far_) scratch_.push_back(std::move(item));
  far_.clear();
  buckets_.resize(new_bucket_count);
  bucket_mask_ = new_bucket_count - 1;
  if (gap_count_ > 0 && gap_sum_ > 0.0) {
    width_ = (gap_sum_ / static_cast<double>(gap_count_)) * kWidthGapFactor;
    inv_width_ = 1.0 / width_;
    gap_sum_ = 0.0;
    gap_count_ = 0;
  }
  located_ = false;
  if (!scratch_.empty()) {
    Time min_t = scratch_.front().t;
    for (const Item& item : scratch_) min_t = std::min(min_t, item.t);
    cur_day_ = day_of(min_t);
    for (Item& item : scratch_) push_calendar(std::move(item));
  }
  scratch_.clear();
}

}  // namespace pqra::sim
