#include "sim/delay_model.hpp"

#include <gtest/gtest.h>

#include "util/stats.hpp"

namespace pqra::sim {
namespace {

TEST(DelayModelTest, ConstantIsConstant) {
  auto d = make_constant_delay(1.5);
  util::Rng rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(d->sample(rng), 1.5);
}

TEST(DelayModelTest, ConstantRejectsNegative) {
  EXPECT_THROW(make_constant_delay(-1.0), std::logic_error);
}

TEST(DelayModelTest, ExponentialMeanAndPositivity) {
  auto d = make_exponential_delay(2.0);
  util::Rng rng(7);
  util::OnlineStats stats;
  for (int i = 0; i < 100000; ++i) {
    double s = d->sample(rng);
    EXPECT_GT(s, 0.0);
    stats.add(s);
  }
  EXPECT_NEAR(stats.mean(), 2.0, 0.05);
  // Exponential: stddev == mean.
  EXPECT_NEAR(stats.stddev(), 2.0, 0.1);
}

TEST(DelayModelTest, UniformStaysInRange) {
  auto d = make_uniform_delay(0.5, 1.5);
  util::Rng rng(3);
  util::OnlineStats stats;
  for (int i = 0; i < 10000; ++i) {
    double s = d->sample(rng);
    EXPECT_GE(s, 0.5);
    EXPECT_LE(s, 1.5);
    stats.add(s);
  }
  EXPECT_NEAR(stats.mean(), 1.0, 0.02);
}

TEST(DelayModelTest, LognormalRespectsMinimum) {
  auto d = make_lognormal_delay(0.25, 0.0, 1.0);
  util::Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GT(d->sample(rng), 0.25);
  }
}

TEST(DelayModelTest, SamplingIsDeterministicGivenRngState) {
  auto d = make_exponential_delay(1.0);
  util::Rng a(11), b(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(d->sample(a), d->sample(b));
  }
}

}  // namespace
}  // namespace pqra::sim
