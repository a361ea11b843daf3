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

Summary summarize(const std::vector<double>& samples) {
  Summary s;
  if (samples.empty()) return s;
  OnlineStats acc;
  for (double x : samples) acc.add(x);
  s.count = acc.count();
  s.mean = acc.mean();
  s.stddev = acc.stddev();
  s.min = acc.min();
  s.max = acc.max();
  s.median = percentile(samples, 50.0);
  return s;
}

double log2_bucket_upper_bound(std::size_t i) {
  PQRA_REQUIRE(i < kLog2Buckets, "log2 bucket index out of range");
  if (i == kLog2Buckets - 1) return std::numeric_limits<double>::infinity();
  return std::ldexp(1.0, static_cast<int>(i) - kLog2BucketBias);
}

double percentile(std::vector<double> samples, double p) {
  PQRA_REQUIRE(!samples.empty(), "percentile of empty sample set");
  PQRA_REQUIRE(p >= 0.0 && p <= 100.0, "percentile must be in [0, 100]");
  std::sort(samples.begin(), samples.end());
  if (samples.size() == 1) return samples[0];
  double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  auto lo = static_cast<std::size_t>(rank);
  std::size_t hi = std::min(lo + 1, samples.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  PQRA_REQUIRE(bins > 0, "histogram needs at least one bin");
  PQRA_REQUIRE(hi > lo, "histogram range must be non-empty");
}

void Histogram::add(double x) {
  if (std::isnan(x)) {
    // A NaN belongs to no bin; silently clamping it anywhere would invent a
    // sample.  Tally it so callers can detect polluted inputs.
    ++nan_count_;
    return;
  }
  // Clamp in floating point BEFORE the integer conversion: for values far
  // outside [lo, hi) — including ±inf — the scaled index exceeds the
  // integer's range and the cast itself would be undefined behaviour.
  if (x < lo_) x = lo_;
  double scaled = (x - lo_) / (hi_ - lo_) * static_cast<double>(counts_.size());
  double max_index = static_cast<double>(counts_.size() - 1);
  if (!(scaled < max_index)) scaled = max_index;
  ++counts_[static_cast<std::size_t>(scaled)];
  ++total_;
}

std::size_t Histogram::bin_count(std::size_t i) const {
  PQRA_REQUIRE(i < counts_.size(), "bin index out of range");
  return counts_[i];
}

double Histogram::bin_low(std::size_t i) const {
  return lo_ + (hi_ - lo_) * static_cast<double>(i) /
                   static_cast<double>(counts_.size());
}

double Histogram::bin_high(std::size_t i) const { return bin_low(i + 1); }

}  // namespace pqra::util
