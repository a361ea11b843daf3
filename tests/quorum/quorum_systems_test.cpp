#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "quorum/fpp.hpp"
#include "quorum/grid.hpp"
#include "quorum/majority.hpp"
#include "quorum/probabilistic.hpp"
#include "quorum/rowa.hpp"
#include "quorum/singleton.hpp"

namespace pqra::quorum {
namespace {

void expect_valid_quorum(const QuorumSystem& qs, const std::vector<ServerId>& q,
                         std::size_t expected_size) {
  EXPECT_EQ(q.size(), expected_size);
  std::set<ServerId> unique(q.begin(), q.end());
  EXPECT_EQ(unique.size(), q.size()) << "duplicate servers in quorum";
  for (ServerId s : q) EXPECT_LT(s, qs.num_servers());
}

// ---------------------------------------------------------------- parameterized
// Every (n, k) probabilistic configuration must produce valid quorums.

struct ProbParam {
  std::size_t n;
  std::size_t k;
};

class ProbabilisticSweep : public ::testing::TestWithParam<ProbParam> {};

TEST_P(ProbabilisticSweep, PicksValidQuorums) {
  auto [n, k] = GetParam();
  ProbabilisticQuorums qs(n, k);
  util::Rng rng(n * 131 + k);
  std::vector<ServerId> q;
  for (int i = 0; i < 50; ++i) {
    qs.pick(AccessKind::kRead, rng, q);
    expect_valid_quorum(qs, q, k);
  }
  EXPECT_EQ(qs.min_kill(AccessKind::kRead), n - k + 1);
  EXPECT_EQ(qs.is_strict(), 2 * k > n);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, ProbabilisticSweep,
    ::testing::Values(ProbParam{1, 1}, ProbParam{5, 1}, ProbParam{5, 3},
                      ProbParam{5, 5}, ProbParam{34, 1}, ProbParam{34, 6},
                      ProbParam{34, 17}, ProbParam{34, 18}, ProbParam{34, 34},
                      ProbParam{100, 10}, ProbParam{100, 51}));

TEST(ProbabilisticTest, CoversAllServersEventually) {
  ProbabilisticQuorums qs(20, 3);
  util::Rng rng(7);
  std::set<ServerId> seen;
  std::vector<ServerId> q;
  for (int i = 0; i < 500; ++i) {
    qs.pick(AccessKind::kRead, rng, q);
    seen.insert(q.begin(), q.end());
  }
  EXPECT_EQ(seen.size(), 20u);
}

TEST(ProbabilisticTest, RejectsBadParameters) {
  EXPECT_THROW(ProbabilisticQuorums(0, 0), std::logic_error);
  EXPECT_THROW(ProbabilisticQuorums(5, 0), std::logic_error);
  EXPECT_THROW(ProbabilisticQuorums(5, 6), std::logic_error);
}

// ----------------------------------------------------------------- majority
TEST(MajorityTest, QuorumSizeIsFloorHalfPlusOne) {
  EXPECT_EQ(MajorityQuorums(1).quorum_size(AccessKind::kRead), 1u);
  EXPECT_EQ(MajorityQuorums(2).quorum_size(AccessKind::kRead), 2u);
  EXPECT_EQ(MajorityQuorums(5).quorum_size(AccessKind::kRead), 3u);
  EXPECT_EQ(MajorityQuorums(34).quorum_size(AccessKind::kRead), 18u);
}

TEST(MajorityTest, AvailabilityIsCeilHalf) {
  EXPECT_EQ(MajorityQuorums(5).min_kill(AccessKind::kRead), 3u);
  EXPECT_EQ(MajorityQuorums(6).min_kill(AccessKind::kRead), 3u);
  EXPECT_EQ(MajorityQuorums(34).min_kill(AccessKind::kRead), 17u);
}

TEST(MajorityTest, PicksValidQuorums) {
  MajorityQuorums qs(9);
  util::Rng rng(5);
  std::vector<ServerId> q;
  for (int i = 0; i < 50; ++i) {
    qs.pick(AccessKind::kWrite, rng, q);
    expect_valid_quorum(qs, q, 5);
  }
  EXPECT_TRUE(qs.is_strict());
}

// --------------------------------------------------------------------- grid
TEST(GridTest, QuorumIsRowPlusColumn) {
  GridQuorums qs(3, 4);
  EXPECT_EQ(qs.num_servers(), 12u);
  EXPECT_EQ(qs.quorum_size(AccessKind::kRead), 6u);  // 3 + 4 - 1
  EXPECT_EQ(qs.num_quorums(AccessKind::kRead), 12u);
  util::Rng rng(1);
  std::vector<ServerId> q;
  qs.pick(AccessKind::kRead, rng, q);
  expect_valid_quorum(qs, q, 6);
}

TEST(GridTest, EnumeratedQuorumsArePairwiseIntersecting) {
  GridQuorums qs(3, 3);
  std::vector<ServerId> a, b;
  for (std::size_t i = 0; i < qs.num_quorums(AccessKind::kRead); ++i) {
    qs.quorum(AccessKind::kRead, i, a);
    for (std::size_t j = 0; j < qs.num_quorums(AccessKind::kWrite); ++j) {
      qs.quorum(AccessKind::kWrite, j, b);
      bool intersect = false;
      for (ServerId s : a) {
        if (std::find(b.begin(), b.end(), s) != b.end()) intersect = true;
      }
      EXPECT_TRUE(intersect) << "grid quorums " << i << "," << j;
    }
  }
}

TEST(GridTest, SquareFactoryRequiresPerfectSquare) {
  GridQuorums qs = GridQuorums::square(25);
  EXPECT_EQ(qs.rows(), 5u);
  EXPECT_EQ(qs.cols(), 5u);
  EXPECT_THROW(GridQuorums::square(26), std::logic_error);
}

TEST(GridTest, MinKillIsShorterSide) {
  EXPECT_EQ(GridQuorums(3, 5).min_kill(AccessKind::kRead), 3u);
  EXPECT_EQ(GridQuorums(5, 3).min_kill(AccessKind::kRead), 3u);
  EXPECT_EQ(GridQuorums(4, 4).min_kill(AccessKind::kRead), 4u);
}

// ---------------------------------------------------------------------- fpp
struct FppParam {
  std::size_t order;
};

class FppSweep : public ::testing::TestWithParam<FppParam> {};

TEST_P(FppSweep, ProjectivePlaneStructure) {
  std::size_t s = GetParam().order;
  FppQuorums qs(s);
  std::size_t n = s * s + s + 1;
  EXPECT_EQ(qs.num_servers(), n);
  EXPECT_EQ(qs.num_quorums(AccessKind::kRead), n);
  EXPECT_EQ(qs.quorum_size(AccessKind::kRead), s + 1);

  // Any two distinct lines meet in exactly one point.
  std::vector<ServerId> a, b;
  for (std::size_t i = 0; i < n; ++i) {
    qs.quorum(AccessKind::kRead, i, a);
    EXPECT_EQ(a.size(), s + 1);
    for (std::size_t j = i + 1; j < n; ++j) {
      qs.quorum(AccessKind::kRead, j, b);
      std::size_t common = 0;
      for (ServerId x : a) {
        if (std::find(b.begin(), b.end(), x) != b.end()) ++common;
      }
      EXPECT_EQ(common, 1u) << "lines " << i << " and " << j;
    }
  }

  // Every point lies on exactly s + 1 lines (uniform load structure).
  std::vector<std::size_t> incidence(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    qs.quorum(AccessKind::kRead, i, a);
    for (ServerId x : a) ++incidence[x];
  }
  for (std::size_t count : incidence) EXPECT_EQ(count, s + 1);
}

INSTANTIATE_TEST_SUITE_P(Orders, FppSweep,
                         ::testing::Values(FppParam{2}, FppParam{3},
                                           FppParam{5}, FppParam{7}));

TEST(FppTest, RejectsNonPrimeOrder) {
  EXPECT_THROW(FppQuorums(4), std::logic_error);
  EXPECT_THROW(FppQuorums(6), std::logic_error);
}

// ---------------------------------------------------------- singleton / rowa
TEST(SingletonTest, AlwaysServerZero) {
  SingletonQuorums qs(5);
  util::Rng rng(1);
  std::vector<ServerId> q;
  qs.pick(AccessKind::kRead, rng, q);
  ASSERT_EQ(q.size(), 1u);
  EXPECT_EQ(q[0], 0u);
  EXPECT_EQ(qs.min_kill(AccessKind::kWrite), 1u);
}

TEST(RowaTest, ReadOneWriteAllShapes) {
  ReadOneWriteAll qs(6);
  util::Rng rng(2);
  std::vector<ServerId> r, w;
  qs.pick(AccessKind::kRead, rng, r);
  EXPECT_EQ(r.size(), 1u);
  qs.pick(AccessKind::kWrite, rng, w);
  EXPECT_EQ(w.size(), 6u);
  EXPECT_EQ(qs.min_kill(AccessKind::kRead), 6u);
  EXPECT_EQ(qs.min_kill(AccessKind::kWrite), 1u);
}

TEST(RowaTest, ReadQuorumsCoverAllServers) {
  ReadOneWriteAll qs(6);
  util::Rng rng(3);
  std::set<ServerId> seen;
  std::vector<ServerId> q;
  for (int i = 0; i < 300; ++i) {
    qs.pick(AccessKind::kRead, rng, q);
    seen.insert(q[0]);
  }
  EXPECT_EQ(seen.size(), 6u);
}

}  // namespace
}  // namespace pqra::quorum
