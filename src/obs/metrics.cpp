#include "obs/metrics.hpp"

#include <cmath>

#include "util/check.hpp"

namespace pqra::obs {

void Histogram::bump(std::atomic<std::uint64_t>& cell) {
  if (atomic_) {
    cell.fetch_add(1, std::memory_order_relaxed);
  } else {
    cell.store(cell.load(std::memory_order_relaxed) + 1,
               std::memory_order_relaxed);
  }
}

void Histogram::observe(double x) {
  if (std::isnan(x)) {
    bump(nans_);
    return;
  }
  bump(buckets_[util::log2_bucket(x)]);
  bump(count_);
  if (atomic_) {
    double cur = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(cur, cur + x,
                                       std::memory_order_relaxed)) {
    }
  } else {
    sum_.store(sum_.load(std::memory_order_relaxed) + x,
               std::memory_order_relaxed);
  }
}

double Histogram::mean() const {
  std::uint64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

std::uint64_t Histogram::bucket_count(std::size_t i) const {
  PQRA_REQUIRE(i < kNumBuckets, "histogram bucket index out of range");
  return buckets_[i].load(std::memory_order_relaxed);
}

Registry::Entry& Registry::lookup(const std::string& name, Kind kind,
                                  const std::string& help, GaugeMerge merge) {
  PQRA_REQUIRE(!name.empty(), "instrument name must not be empty");
  // Registration-time only: hot code binds handles once (bind_* / counter()
  // at setup) and publish() runs end-of-run, so the lock and the first-touch
  // allocations below never sit inside the fire loop.
  // pqra-lint: allow(hotpath-blocking) — registration/publish path, not events
  std::lock_guard lock(mutex_);
  auto it = entries_.find(name);
  if (it != entries_.end()) {
    PQRA_CHECK(it->second.kind == kind,
               "instrument '" + name + "' already registered as another kind");
    return it->second;
  }
  Entry entry;
  entry.kind = kind;
  entry.help = help;
  entry.gauge_merge = merge;
  const bool atomic = mode_ == Concurrency::kThreadSafe;
  switch (kind) {
    case Kind::kCounter:
      // pqra-lint: allow(hotpath-alloc) — first registration of the name
      entry.counter.reset(new Counter(atomic));
      break;
    case Kind::kGauge:
      // pqra-lint: allow(hotpath-alloc) — first registration of the name
      entry.gauge.reset(new Gauge(atomic));
      break;
    case Kind::kHistogram:
      // pqra-lint: allow(hotpath-alloc) — first registration of the name
      entry.histogram.reset(new Histogram(atomic));
      break;
  }
  return entries_.emplace(name, std::move(entry)).first->second;
}

Counter& Registry::counter(const std::string& name, const std::string& help) {
  return *lookup(name, Kind::kCounter, help).counter;
}

Gauge& Registry::gauge(const std::string& name, const std::string& help,
                       GaugeMerge merge) {
  return *lookup(name, Kind::kGauge, help, merge).gauge;
}

Histogram& Registry::histogram(const std::string& name,
                               const std::string& help) {
  return *lookup(name, Kind::kHistogram, help).histogram;
}

void Registry::merge_from(const Registry& shard) {
  PQRA_REQUIRE(&shard != this, "cannot merge a registry into itself");
  // Copy the shard under its lock, then fold into our entries.  Two separate
  // critical sections avoid lock-order issues; the shard is quiescent per the
  // contract, so the copy is a consistent snapshot anyway.
  struct Carried {
    std::string name;
    Kind kind;
    std::string help;
    GaugeMerge gauge_merge;
    std::uint64_t counter = 0;
    double gauge = 0.0;
    std::uint64_t hist_buckets[Histogram::kNumBuckets] = {};
    std::uint64_t hist_count = 0;
    std::uint64_t hist_nans = 0;
    double hist_sum = 0.0;
  };
  std::vector<Carried> carried;
  {
    std::lock_guard lock(shard.mutex_);
    carried.reserve(shard.entries_.size());
    for (const auto& [name, entry] : shard.entries_) {
      Carried c;
      c.name = name;
      c.kind = entry.kind;
      c.help = entry.help;
      c.gauge_merge = entry.gauge_merge;
      switch (entry.kind) {
        case Kind::kCounter:
          c.counter = entry.counter->value();
          break;
        case Kind::kGauge:
          c.gauge = entry.gauge->value();
          break;
        case Kind::kHistogram:
          for (std::size_t i = 0; i < Histogram::kNumBuckets; ++i) {
            c.hist_buckets[i] = entry.histogram->bucket_count(i);
          }
          c.hist_count = entry.histogram->count();
          c.hist_nans = entry.histogram->nan_count();
          c.hist_sum = entry.histogram->sum();
          break;
      }
      carried.push_back(std::move(c));
    }
  }
  for (const Carried& c : carried) {
    Entry& entry = lookup(c.name, c.kind, c.help, c.gauge_merge);
    switch (c.kind) {
      case Kind::kCounter:
        entry.counter->inc(c.counter);
        break;
      case Kind::kGauge:
        switch (entry.gauge_merge) {
          case GaugeMerge::kLast:
            entry.gauge->set(c.gauge);
            break;
          case GaugeMerge::kMax:
            entry.gauge->record_max(c.gauge);
            break;
          case GaugeMerge::kSum:
            entry.gauge->add(c.gauge);
            break;
        }
        break;
      case Kind::kHistogram: {
        Histogram& h = *entry.histogram;
        for (std::size_t i = 0; i < Histogram::kNumBuckets; ++i) {
          if (c.hist_buckets[i] != 0) {
            h.buckets_[i].store(h.buckets_[i].load(std::memory_order_relaxed) +
                                    c.hist_buckets[i],
                                std::memory_order_relaxed);
          }
        }
        h.count_.store(
            h.count_.load(std::memory_order_relaxed) + c.hist_count,
            std::memory_order_relaxed);
        h.nans_.store(h.nans_.load(std::memory_order_relaxed) + c.hist_nans,
                      std::memory_order_relaxed);
        h.sum_.store(h.sum_.load(std::memory_order_relaxed) + c.hist_sum,
                     std::memory_order_relaxed);
        break;
      }
    }
  }
}

RegistrySnapshot Registry::snapshot() const {
  RegistrySnapshot snap;
  std::lock_guard lock(mutex_);
  for (const auto& [name, entry] : entries_) {  // std::map: sorted by name
    switch (entry.kind) {
      case Kind::kCounter:
        snap.counters.push_back({name, entry.help, entry.counter->value()});
        break;
      case Kind::kGauge:
        snap.gauges.push_back({name, entry.help, entry.gauge->value()});
        break;
      case Kind::kHistogram: {
        const Histogram& h = *entry.histogram;
        HistogramSnapshot data;
        data.count = h.count();
        data.sum = h.sum();
        data.nans = h.nan_count();
        std::uint64_t running = 0;
        for (std::size_t i = 0; i < Histogram::kNumBuckets; ++i) {
          running += h.bucket_count(i);
          data.upper_bounds.push_back(Histogram::bucket_upper_bound(i));
          data.cumulative.push_back(running);
        }
        snap.histograms.push_back({name, entry.help, std::move(data)});
        break;
      }
    }
  }
  return snap;
}

}  // namespace pqra::obs
