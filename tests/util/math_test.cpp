#include "util/math.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace pqra::util {
namespace {

TEST(ChooseTest, SmallExactValues) {
  EXPECT_DOUBLE_EQ(choose(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(choose(5, 0), 1.0);
  EXPECT_DOUBLE_EQ(choose(5, 5), 1.0);
  EXPECT_DOUBLE_EQ(choose(5, 2), 10.0);
  EXPECT_DOUBLE_EQ(choose(10, 3), 120.0);
  EXPECT_DOUBLE_EQ(choose(34, 17), 2333606220.0);
}

TEST(ChooseTest, OutOfRangeIsZero) {
  EXPECT_DOUBLE_EQ(choose(3, 4), 0.0);
}

TEST(ChooseTest, LogChooseMatchesChoose) {
  for (std::uint64_t n = 1; n <= 40; ++n) {
    for (std::uint64_t k = 0; k <= n; ++k) {
      EXPECT_NEAR(std::exp(log_choose(n, k)), choose(n, k),
                  1e-6 * choose(n, k) + 1e-9);
    }
  }
}

TEST(NonoverlapTest, MatchesBinomialRatio) {
  // C(n-k, k) / C(n, k) for values small enough to compute directly.
  for (std::uint64_t n : {4ULL, 10ULL, 34ULL}) {
    for (std::uint64_t k = 1; 2 * k <= n; ++k) {
      double expected = choose(n - k, k) / choose(n, k);
      EXPECT_NEAR(quorum_nonoverlap_probability(n, k), expected, 1e-12);
    }
  }
}

TEST(NonoverlapTest, ZeroWhenQuorumsMustIntersect) {
  EXPECT_DOUBLE_EQ(quorum_nonoverlap_probability(34, 18), 0.0);
  EXPECT_DOUBLE_EQ(quorum_nonoverlap_probability(10, 6), 0.0);
  EXPECT_DOUBLE_EQ(quorum_nonoverlap_probability(3, 2), 0.0);
}

TEST(NonoverlapTest, PaperCaseK1) {
  // n = 34, k = 1: two singletons are disjoint with probability 33/34.
  EXPECT_NEAR(quorum_nonoverlap_probability(34, 1), 33.0 / 34.0, 1e-12);
  EXPECT_NEAR(quorum_overlap_probability(34, 1), 1.0 / 34.0, 1e-12);
}

TEST(NonoverlapTest, DominatedByUpperBound) {
  // Prop. 3.2 of Malkhi et al.: C(n-k,k)/C(n,k) <= ((n-k)/n)^k.
  for (std::uint64_t n : {10ULL, 34ULL, 100ULL}) {
    for (std::uint64_t k = 1; k <= n; ++k) {
      EXPECT_LE(quorum_nonoverlap_probability(n, k),
                nonoverlap_upper_bound(n, k) + 1e-12)
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(NonoverlapTest, DecreasesWithQuorumSize) {
  double prev = 1.0;
  for (std::uint64_t k = 1; k <= 17; ++k) {
    double p = quorum_nonoverlap_probability(34, k);
    EXPECT_LT(p, prev);
    prev = p;
  }
}

TEST(NonoverlapTest, RejectsBadQuorumSize) {
  EXPECT_THROW(quorum_nonoverlap_probability(10, 0), std::logic_error);
  EXPECT_THROW(quorum_nonoverlap_probability(10, 11), std::logic_error);
}

TEST(Corollary7Test, PaperValueAtK1) {
  // n = 34, k = 1: bound is 1/(1 - (33/34)^1) = 34; times M = 6 gives the
  // paper's 204.
  EXPECT_NEAR(corollary7_rounds_per_pseudocycle(34, 1), 34.0, 1e-9);
  EXPECT_NEAR(6.0 * corollary7_rounds_per_pseudocycle(34, 1), 204.0, 1e-6);
}

TEST(Corollary7Test, ApproachesOneForLargeQuorums) {
  EXPECT_NEAR(corollary7_rounds_per_pseudocycle(34, 34), 1.0, 1e-12);
  EXPECT_LT(corollary7_rounds_per_pseudocycle(34, 17), 1.001);
}

TEST(Corollary7Test, MonotoneDecreasingInK) {
  double prev = 1e18;
  for (std::uint64_t k = 1; k <= 34; ++k) {
    double c = corollary7_rounds_per_pseudocycle(34, k);
    EXPECT_LE(c, prev);
    prev = c;
  }
}

TEST(Corollary7Test, SqrtNQuorumIsBetweenOneAndTwo) {
  // §6.4: 1 < c_n < 2 when k = sqrt(n).
  for (std::uint64_t n : {16ULL, 25ULL, 64ULL, 100ULL, 400ULL, 10000ULL}) {
    auto k = static_cast<std::uint64_t>(std::sqrt(static_cast<double>(n)));
    double c = corollary7_rounds_per_pseudocycle(n, k);
    EXPECT_GT(c, 1.0) << n;
    EXPECT_LT(c, 2.0) << n;
  }
}

TEST(R3BoundTest, DecaysGeometrically) {
  double prev = 1.0;
  for (std::uint64_t l = 1; l <= 50; ++l) {
    double b = r3_survival_bound(34, 6, l);
    EXPECT_LE(b, prev + 1e-15);
    prev = b;
  }
  EXPECT_LT(r3_survival_bound(34, 6, 50), 1e-3);
}

TEST(R3BoundTest, ClampedToOne) {
  EXPECT_DOUBLE_EQ(r3_survival_bound(34, 6, 0), 1.0);
}

TEST(ExpectedReadsTest, InverseOfQ) {
  EXPECT_NEAR(expected_reads_until_overlap(34, 1), 34.0, 1e-9);
  EXPECT_NEAR(expected_reads_until_overlap(34, 17), 1.0, 1e-6);
}

TEST(IsPrimeTest, SmallValues) {
  EXPECT_FALSE(is_prime(0));
  EXPECT_FALSE(is_prime(1));
  EXPECT_TRUE(is_prime(2));
  EXPECT_TRUE(is_prime(3));
  EXPECT_FALSE(is_prime(4));
  EXPECT_TRUE(is_prime(5));
  EXPECT_TRUE(is_prime(7));
  EXPECT_FALSE(is_prime(9));
  EXPECT_TRUE(is_prime(11));
  EXPECT_TRUE(is_prime(13));
  EXPECT_FALSE(is_prime(15));
  EXPECT_TRUE(is_prime(101));
  EXPECT_FALSE(is_prime(1001));
}

TEST(SaturatingAddTest, NormalAndInfinite) {
  EXPECT_EQ(saturating_add(2, 3), 5);
  EXPECT_EQ(saturating_add(kPathInf, 3), kPathInf);
  EXPECT_EQ(saturating_add(3, kPathInf), kPathInf);
  EXPECT_EQ(saturating_add(kPathInf, kPathInf), kPathInf);
  EXPECT_EQ(saturating_add(kPathInf - 1, kPathInf - 1), kPathInf);
}

TEST(ShortestDoubleTest, RoundValuesStayPlainAndEveryValueRoundTrips) {
  // Round values print plainly (10, not 1e+01) in every serialized plan and
  // profile.
  EXPECT_EQ(format_double(10.0), "10");
  EXPECT_EQ(format_double(600.0), "600");
  EXPECT_EQ(format_double(1e-05), "1e-05");
  EXPECT_EQ(format_double(0.25), "0.25");
  EXPECT_EQ(format_double(-3.0), "-3");
  EXPECT_EQ(format_double(std::numeric_limits<double>::infinity()), "inf");
  EXPECT_EQ(format_double(std::nan("")), "nan");

  // parse_whole reads every finite rendering back to the identical bits.
  Rng rng(11);
  std::vector<double> values = {0.1,
                                1.0 / 3.0,
                                std::numeric_limits<double>::min(),
                                std::numeric_limits<double>::denorm_min(),
                                std::numeric_limits<double>::max(),
                                -0.0};
  for (int i = 0; i < 2000; ++i) {
    // Random bit patterns cover every exponent; non-finite ones are skipped.
    const double x = std::bit_cast<double>(rng());
    if (std::isfinite(x)) values.push_back(x);
    values.push_back(rng.uniform01() * 1000.0);
  }
  for (const double x : values) {
    const std::string text = format_double(x);
    const std::optional<double> back = parse_whole<double>(text);
    ASSERT_TRUE(back.has_value()) << text;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(*back),
              std::bit_cast<std::uint64_t>(x))
        << text;
  }
}

}  // namespace
}  // namespace pqra::util
