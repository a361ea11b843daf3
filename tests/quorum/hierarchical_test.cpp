#include "quorum/hierarchical.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "quorum/analysis.hpp"

namespace pqra::quorum {
namespace {

TEST(HierarchicalTest, SizesFollowThePowers) {
  for (std::size_t h : {0u, 1u, 2u, 3u, 4u}) {
    HierarchicalQuorums qs(h);
    std::size_t n = 1, q = 1;
    for (std::size_t l = 0; l < h; ++l) {
      n *= 3;
      q *= 2;
    }
    EXPECT_EQ(qs.num_servers(), n);
    EXPECT_EQ(qs.quorum_size(AccessKind::kRead), q);
    EXPECT_EQ(qs.min_kill(AccessKind::kRead), q);
  }
}

TEST(HierarchicalTest, QuorumCountIsThreeQSquared) {
  EXPECT_EQ(HierarchicalQuorums(0).num_quorums(AccessKind::kRead), 1u);
  EXPECT_EQ(HierarchicalQuorums(1).num_quorums(AccessKind::kRead), 3u);
  EXPECT_EQ(HierarchicalQuorums(2).num_quorums(AccessKind::kRead), 27u);
  EXPECT_EQ(HierarchicalQuorums(3).num_quorums(AccessKind::kRead), 2187u);
}

TEST(HierarchicalTest, PickedQuorumsAreValid) {
  HierarchicalQuorums qs(3);  // n = 27, quorums of 8
  util::Rng rng(5);
  std::vector<ServerId> q;
  for (int i = 0; i < 100; ++i) {
    qs.pick(AccessKind::kRead, rng, q);
    EXPECT_EQ(q.size(), 8u);
    std::set<ServerId> unique(q.begin(), q.end());
    EXPECT_EQ(unique.size(), 8u);
    for (ServerId s : q) EXPECT_LT(s, 27u);
  }
}

TEST(HierarchicalTest, EnumerationIsExhaustiveAndDistinct) {
  HierarchicalQuorums qs(2);  // 27 quorums of 4 over 9 servers
  std::set<std::vector<ServerId>> seen;
  std::vector<ServerId> q;
  for (std::size_t i = 0; i < qs.num_quorums(AccessKind::kRead); ++i) {
    qs.quorum(AccessKind::kRead, i, q);
    EXPECT_EQ(q.size(), 4u);
    std::vector<ServerId> sorted = q;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_TRUE(seen.insert(sorted).second) << "duplicate quorum " << i;
  }
  EXPECT_EQ(seen.size(), 27u);
}

TEST(HierarchicalTest, PairwiseIntersection) {
  util::Rng rng(7);
  EXPECT_TRUE(check_intersection(HierarchicalQuorums(1), rng));
  EXPECT_TRUE(check_intersection(HierarchicalQuorums(2), rng));
  EXPECT_TRUE(check_intersection(HierarchicalQuorums(3), rng));
  // h = 4 is not enumerable: sampled check.
  EXPECT_TRUE(check_intersection(HierarchicalQuorums(4), rng, 3000));
}

TEST(HierarchicalTest, BruteForceMinKillMatches) {
  EXPECT_EQ(brute_force_min_kill(HierarchicalQuorums(1), AccessKind::kRead),
            2u);
  EXPECT_EQ(brute_force_min_kill(HierarchicalQuorums(2), AccessKind::kRead),
            4u);
}

TEST(HierarchicalTest, LoadIsUniformAtQOverN) {
  HierarchicalQuorums qs(3);
  util::Rng rng(9);
  LoadEstimate est = empirical_load(qs, AccessKind::kRead, rng, 30000);
  EXPECT_NEAR(est.busiest, 8.0 / 27.0, 0.02);
  EXPECT_NEAR(est.average, 8.0 / 27.0, 0.01);
}

TEST(HierarchicalTest, SitsBetweenGridAndMajorityOnTheTradeoff) {
  HierarchicalQuorums qs(3);  // n = 27
  // Availability 8 > sqrt(27) ~ 5.2 (grid-like) but << majority's 14;
  // load 8/27 ~ 0.30 < majority's ~0.52 but > sqrt-n's ~0.19.
  EXPECT_GT(qs.min_kill(AccessKind::kRead), 5u);
  EXPECT_LT(qs.min_kill(AccessKind::kRead), 14u);
}

TEST(HierarchicalTest, RejectsAbsurdDepth) {
  EXPECT_THROW(HierarchicalQuorums(11), std::logic_error);
}

}  // namespace
}  // namespace pqra::quorum
