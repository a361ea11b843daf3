#pragma once

/// \file metrics.hpp
/// Unified metrics registry shared by the DES and real-threads runtimes.
///
/// Instruments are named Counters, Gauges and log-bucketed Histograms,
/// created once through a Registry and then incremented lock-free on the hot
/// path.  The registry runs in one of two concurrency modes, fixed at
/// construction:
///
///   - kSingleThread: the DES fast path.  Increments compile to plain
///     load/add/store (no lock prefix), so instrumenting the simulator adds
///     no atomic traffic and cannot perturb event ordering.
///   - kThreadSafe: the real-threads runtime.  The same instruments update
///     with relaxed atomic RMWs, so p client threads and n server threads
///     can share one registry without a lock on the hot path.
///
/// Registration (Registry::counter/gauge/histogram) is always
/// mutex-protected and idempotent: asking for an existing name returns the
/// same instrument, which is how several clients share one aggregate
/// counter.  Instrument references stay valid for the registry's lifetime.
///
/// Naming convention (see docs/OBSERVABILITY.md): `pqra_<layer>_<what>`,
/// counters suffixed `_total`, e.g. `pqra_client_reads_total`.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/stats.hpp"

namespace pqra::obs {

enum class Concurrency { kSingleThread, kThreadSafe };

/// How a gauge combines when a shard registry is merged into an aggregate
/// (Registry::merge_from — the parallel runner's per-run shards).  Counters
/// and histograms always merge by summation; gauges are point-in-time values
/// whose aggregation semantics depend on what they measure:
///   kLast — the merged-in shard overwrites (e.g. "sim time at end of run",
///           matching what sequential runs sharing one registry produced);
///   kMax  — keep the maximum (high-water marks);
///   kSum  — accumulate (additive quantities exported as gauges).
enum class GaugeMerge { kLast, kMax, kSum };

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    if (atomic_) {
      v_.fetch_add(n, std::memory_order_relaxed);
    } else {
      v_.store(v_.load(std::memory_order_relaxed) + n,
               std::memory_order_relaxed);
    }
  }

  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  friend class Registry;
  explicit Counter(bool atomic) : atomic_(atomic) {}

  std::atomic<std::uint64_t> v_{0};
  const bool atomic_;
};

/// Point-in-time value (heap depth, simulated clock, ...).
class Gauge {
 public:
  void set(double x) { v_.store(x, std::memory_order_relaxed); }

  void add(double dx) {
    if (atomic_) {
      double cur = v_.load(std::memory_order_relaxed);
      while (!v_.compare_exchange_weak(cur, cur + dx,
                                       std::memory_order_relaxed)) {
      }
    } else {
      v_.store(v_.load(std::memory_order_relaxed) + dx,
               std::memory_order_relaxed);
    }
  }

  /// Raises the gauge to \p x if larger (high-water marks).
  void record_max(double x) {
    double cur = v_.load(std::memory_order_relaxed);
    while (cur < x &&
           !v_.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
    }
  }

  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  friend class Registry;
  explicit Gauge(bool atomic) : atomic_(atomic) {}

  std::atomic<double> v_{0.0};
  const bool atomic_;
};

/// Log-bucketed (base-2) histogram of non-negative samples.
///
/// The buckets are util::log2_bucket's fixed layout (util/stats.hpp):
/// bucket i holds frexp exponent i - kBias, bucket 0 additionally absorbs
/// everything below its range (including zero and negatives), the last
/// bucket everything above.  NaN samples are dropped and tallied
/// separately.  The layout is fixed, so two histograms merge bucket-wise
/// and export needs no per-instrument configuration.
class Histogram {
 public:
  static constexpr std::size_t kNumBuckets = util::kLog2Buckets;
  static constexpr int kBias = util::kLog2BucketBias;

  void observe(double x);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Mean of all observed samples (0 when empty).
  double mean() const;
  std::uint64_t nan_count() const {
    return nans_.load(std::memory_order_relaxed);
  }
  std::uint64_t bucket_count(std::size_t i) const;
  /// Inclusive upper bound of bucket \p i (Prometheus `le`); +inf for the
  /// last bucket.
  static double bucket_upper_bound(std::size_t i) {
    return util::log2_bucket_upper_bound(i);
  }

 private:
  friend class Registry;
  explicit Histogram(bool atomic) : atomic_(atomic) {}

  void bump(std::atomic<std::uint64_t>& cell);

  std::atomic<std::uint64_t> buckets_[kNumBuckets]{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> nans_{0};
  std::atomic<double> sum_{0.0};
  const bool atomic_;
};

/// Plain-data snapshot of one histogram, for exporters and tests.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  std::uint64_t nans = 0;
  /// Parallel arrays: cumulative count of samples <= upper_bound[i].
  std::vector<double> upper_bounds;
  std::vector<std::uint64_t> cumulative;
};

/// Plain-data snapshot of a whole registry (export boundary; decoupled from
/// live instruments so exporters need no locking discipline).
struct RegistrySnapshot {
  struct CounterSample {
    std::string name;
    std::string help;
    std::uint64_t value = 0;
  };
  struct GaugeSample {
    std::string name;
    std::string help;
    double value = 0.0;
  };
  struct HistogramSample {
    std::string name;
    std::string help;
    HistogramSnapshot data;
  };
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
};

class Registry {
 public:
  explicit Registry(Concurrency mode = Concurrency::kSingleThread)
      : mode_(mode) {}
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Concurrency mode() const { return mode_; }

  /// Returns the instrument named \p name, creating it on first use.  The
  /// help string is set by whichever call registers first.  Requesting an
  /// existing name as a different instrument kind throws.
  Counter& counter(const std::string& name, const std::string& help = "");
  /// \p merge fixes how this gauge combines under merge_from; like help, the
  /// first registration wins.
  Gauge& gauge(const std::string& name, const std::string& help = "",
               GaugeMerge merge = GaugeMerge::kLast);
  Histogram& histogram(const std::string& name, const std::string& help = "");

  /// Snapshot of every instrument, sorted by name (deterministic export).
  RegistrySnapshot snapshot() const;

  /// Folds \p shard into this registry: counters add, histograms add
  /// bucket-wise, gauges combine per their GaugeMerge policy (this registry's
  /// entry decides; instruments missing here are created with the shard's
  /// help/policy, consistent with first-registration-wins).  \p shard must be
  /// quiescent (its run has finished).  Merging per-run shards IN RUN ORDER
  /// is what makes parallel replications (sim::ParallelRunner) produce
  /// byte-identical exports regardless of job count — see
  /// docs/PERFORMANCE.md.
  void merge_from(const Registry& shard);

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::string help;
    GaugeMerge gauge_merge = GaugeMerge::kLast;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& lookup(const std::string& name, Kind kind, const std::string& help,
                GaugeMerge merge = GaugeMerge::kLast);

  const Concurrency mode_;
  // registration + snapshot only, never hot:
  // pqra-lint: allow(hotpath-blocking)
  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;
};

}  // namespace pqra::obs
