#include "util/stats.hpp"

#include <gtest/gtest.h>

namespace pqra::util {
namespace {

TEST(OnlineStatsTest, EmptyIsZeroed) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.ci95_halfwidth(), 0.0);
}

TEST(OnlineStatsTest, SingleSample) {
  OnlineStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(OnlineStatsTest, KnownMoments) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Population variance is 4; sample variance = 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(OnlineStatsTest, CiShrinksWithSamples) {
  OnlineStats small, big;
  for (int i = 0; i < 10; ++i) small.add(i % 2);
  for (int i = 0; i < 1000; ++i) big.add(i % 2);
  EXPECT_GT(small.ci95_halfwidth(), big.ci95_halfwidth());
}

TEST(OnlineStatsTest, MergeMatchesSingleAccumulator) {
  OnlineStats a, b, whole;
  for (int i = 0; i < 10; ++i) {
    a.add(i * 1.5);
    whole.add(i * 1.5);
  }
  for (int i = 10; i < 25; ++i) {
    b.add(i * -0.5 + 3.0);
    whole.add(i * -0.5 + 3.0);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-12);
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(OnlineStatsTest, MergeWithEmptySides) {
  OnlineStats empty, filled;
  filled.add(1.0);
  filled.add(3.0);
  OnlineStats target = filled;
  target.merge(empty);
  EXPECT_EQ(target.count(), 2u);
  EXPECT_DOUBLE_EQ(target.mean(), 2.0);
  empty.merge(filled);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

}  // namespace
}  // namespace pqra::util
