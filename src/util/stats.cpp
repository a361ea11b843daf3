#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.hpp"

namespace pqra::util {

void OnlineStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void OnlineStats::merge(const OnlineStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  double delta = other.mean_ - mean_;
  std::size_t total = n_ + other.n_;
  m2_ += other.m2_ + delta * delta * static_cast<double>(n_) *
                         static_cast<double>(other.n_) /
                         static_cast<double>(total);
  mean_ += delta * static_cast<double>(other.n_) / static_cast<double>(total);
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ = total;
}

double OnlineStats::mean() const { return n_ == 0 ? 0.0 : mean_; }

double OnlineStats::variance() const {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

double OnlineStats::min() const { return n_ == 0 ? 0.0 : min_; }

double OnlineStats::max() const { return n_ == 0 ? 0.0 : max_; }

double OnlineStats::ci95_halfwidth() const {
  if (n_ < 2) return 0.0;
  return 1.96 * stddev() / std::sqrt(static_cast<double>(n_));
}

double log2_bucket_upper_bound(std::size_t i) {
  PQRA_REQUIRE(i < kLog2Buckets, "log2 bucket index out of range");
  if (i == kLog2Buckets - 1) return std::numeric_limits<double>::infinity();
  return std::ldexp(1.0, static_cast<int>(i) - kLog2BucketBias);
}

}  // namespace pqra::util
