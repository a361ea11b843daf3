#pragma once

/// \file stats.hpp
/// Streaming statistics for the experiment harnesses, and the log2 bucket
/// layout that obs::Histogram and sim::Profiler share.

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace pqra::util {

/// Welford online mean/variance accumulator.
class OnlineStats {
 public:
  void add(double x);

  /// Folds another accumulator into this one (Chan et al. parallel merge).
  void merge(const OnlineStats& other);

  std::size_t count() const { return n_; }
  double mean() const;
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const;
  double max() const;
  /// Half-width of a normal-approximation 95% confidence interval on the
  /// mean; 0 for fewer than two samples.
  double ci95_halfwidth() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// The base-2 bucket layout shared by obs::Histogram and sim::Profiler, so
/// their buckets line up one to one.  Bucket i holds samples x with
/// 2^(i - kLog2BucketBias - 1) <= x < 2^(i - kLog2BucketBias) (frexp
/// exponent i - kLog2BucketBias), covering ~[2^-17, 2^46): sub-microsecond
/// wall clocks up to ~weeks of simulated time without saturating a boundary
/// bucket.  Bucket 0 also absorbs everything below its range (zero,
/// negatives, NaN), the last bucket everything above (and ±inf).
inline constexpr std::size_t kLog2Buckets = 64;
inline constexpr int kLog2BucketBias = 17;  // bucket 0 tops out at 2^-17

/// Index of the log2 bucket holding \p x.  Inline: it runs once per
/// histogram sample and twice per profiled simulator event.
inline std::size_t log2_bucket(double x) {
  if (std::isinf(x)) return kLog2Buckets - 1;
  if (!(x > 0.0)) return 0;
  int exp = 0;
  std::frexp(x, &exp);
  return static_cast<std::size_t>(
      std::clamp(long{exp} + kLog2BucketBias, 0L,
                 static_cast<long>(kLog2Buckets) - 1));
}

/// Inclusive upper bound of log2 bucket \p i (Prometheus `le`); +inf for
/// the last bucket.
double log2_bucket_upper_bound(std::size_t i);

}  // namespace pqra::util
