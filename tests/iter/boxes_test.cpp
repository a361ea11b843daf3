#include <gtest/gtest.h>

#include "apps/apsp.hpp"
#include "apps/csp.hpp"
#include "apps/graph.hpp"
#include "apps/linear.hpp"
#include "apps/transitive_closure.hpp"
#include "iter/update_sequence.hpp"
#include "util/codec.hpp"

/// Tests of the ACO contraction-box oracles ([C1]-[C3] of §5) and the
/// Theorem 2 proof invariant: at the close of pseudocycle K, every component
/// lies in D(K) — checked live by run_update_sequence(check_boxes).

namespace pqra::iter {
namespace {

// ------------------------------------------------------------- oracle sanity
TEST(BoxOracleTest, ApspBoxesAreNested) {
  apps::Graph g = apps::make_chain(8);
  apps::ApspOperator op(g);
  // initial in D(0); fixed point in every D(K); initial NOT in D(M) (chain
  // initial is far from the answer).
  for (std::size_t i = 0; i < op.num_components(); ++i) {
    EXPECT_TRUE(op.box_contains(0, i, op.initial(i)));
    for (std::size_t K = 0; K <= 6; ++K) {
      EXPECT_TRUE(op.box_contains(K, i, op.fixed_point(i)));
    }
  }
  std::size_t M = op.max_pseudocycles().value();
  EXPECT_FALSE(op.box_contains(M, 7, op.initial(7)))
      << "the source row's initial value cannot be in the final box";
}

TEST(BoxOracleTest, ApspRejectsOutOfRangeValues) {
  apps::Graph g = apps::make_chain(4);
  apps::ApspOperator op(g);
  // A row below the fixed point (distance too small) is outside every box.
  std::vector<apps::Weight> too_small(4, 0);
  EXPECT_FALSE(op.box_contains(0, 3, util::encode(too_small)));
}

TEST(BoxOracleTest, TransitiveClosureBoxes) {
  apps::Graph g = apps::make_chain(6);
  apps::TransitiveClosureOperator op(g);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_TRUE(op.box_contains(0, i, op.initial(i)));
    EXPECT_TRUE(op.box_contains(9, i, op.fixed_point(i)));
  }
  // A row with a bit outside the closure is in no box.
  apps::ReachRow bogus(1, ~0ULL);
  EXPECT_FALSE(op.box_contains(0, 0, util::encode(bogus)));
  // The initial row of the source is not in a late box (missing bits).
  EXPECT_FALSE(op.box_contains(8, 5, op.initial(5)));
}

TEST(BoxOracleTest, JacobiBoxesShrinkGeometrically) {
  util::Rng rng(3);
  apps::LinearSystem sys = apps::make_dominant_system(6, 0.5, rng);
  apps::JacobiOperator op(std::move(sys), 1e-9);
  EXPECT_TRUE(op.box_contains(0, 0, op.initial(0)));
  EXPECT_TRUE(op.box_contains(50, 0, op.fixed_point(0)));
  // A value at distance r0 from the solution leaves the box after a few
  // halvings (alpha = 0.5).
  double far = util::decode<double>(op.fixed_point(0)) + 1000.0;
  EXPECT_FALSE(op.box_contains(30, 0, util::encode(far)));
}

TEST(BoxOracleTest, ArcConsistencyBoxes) {
  apps::Csp csp = apps::make_ordering_csp(5, 5);
  apps::ArcConsistencyOperator op(std::move(csp));
  for (std::size_t v = 0; v < 5; ++v) {
    EXPECT_TRUE(op.box_contains(0, v, op.initial(v)));
    EXPECT_TRUE(op.box_contains(20, v, op.fixed_point(v)));
  }
  // A domain that dropped a value of the fixpoint is in no box.
  EXPECT_FALSE(op.box_contains(0, 0, util::encode<apps::DomainMask>(0)));
  // Full domain of the last variable is eventually outside (it must shrink).
  EXPECT_FALSE(op.box_contains(20, 4, op.initial(4)));
}

// --------------------------------------------------- Theorem 2 live invariant
// The schedule name is held inline, not behind a pointer: gtest prints this
// parameter byte by byte into the listed test name, and a pointer's bytes
// change with every load address, so the registered names would too.
struct InvariantCase {
  char schedule[8];
  std::size_t staleness;
  std::uint64_t seed;
};

class Theorem2Invariant : public ::testing::TestWithParam<InvariantCase> {
 protected:
  std::unique_ptr<ScheduleGenerator> make(const InvariantCase& c) const {
    std::string kind = c.schedule;
    if (kind == "sync") return make_synchronous_schedule();
    if (kind == "rr") return make_round_robin_schedule();
    if (kind == "oldest") return make_oldest_view_schedule(c.staleness);
    return make_bounded_stale_schedule(c.staleness, util::Rng(c.seed));
  }
};

TEST_P(Theorem2Invariant, ApspStaysInItsBoxes) {
  apps::Graph g = apps::make_chain(9);
  apps::ApspOperator op(g);
  auto schedule = make(GetParam());
  auto r = run_update_sequence(op, *schedule, 30000, /*check_boxes=*/true);
  ASSERT_TRUE(r.converged);
  EXPECT_EQ(r.box_violations, 0u)
      << "Theorem 2 invariant violated under " << GetParam().schedule;
}

TEST_P(Theorem2Invariant, TransitiveClosureStaysInItsBoxes) {
  apps::Graph g = apps::make_cycle(7);
  apps::TransitiveClosureOperator op(g);
  auto schedule = make(GetParam());
  auto r = run_update_sequence(op, *schedule, 30000, true);
  ASSERT_TRUE(r.converged);
  EXPECT_EQ(r.box_violations, 0u);
}

TEST_P(Theorem2Invariant, JacobiStaysInItsBoxes) {
  util::Rng rng(11);
  apps::LinearSystem sys = apps::make_dominant_system(7, 0.6, rng);
  apps::JacobiOperator op(std::move(sys), 1e-7);
  auto schedule = make(GetParam());
  auto r = run_update_sequence(op, *schedule, 50000, true);
  ASSERT_TRUE(r.converged);
  EXPECT_EQ(r.box_violations, 0u);
}

TEST_P(Theorem2Invariant, ArcConsistencyStaysInItsBoxes) {
  apps::Csp csp = apps::make_ordering_csp(6, 7);
  apps::ArcConsistencyOperator op(std::move(csp));
  auto schedule = make(GetParam());
  auto r = run_update_sequence(op, *schedule, 30000, true);
  ASSERT_TRUE(r.converged);
  EXPECT_EQ(r.box_violations, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, Theorem2Invariant,
    ::testing::Values(InvariantCase{"sync", 1, 1}, InvariantCase{"rr", 1, 1},
                      InvariantCase{"stale", 1, 2},
                      InvariantCase{"stale", 1, 3},
                      InvariantCase{"oldest", 1, 1}),
    [](const auto& info) {
      return std::string(info.param.schedule) + "_s" +
             std::to_string(info.param.staleness) + "_" +
             std::to_string(info.param.seed);
    });

TEST(Theorem2InvariantTest, ConvergesWithinMPseudocyclesSynchronously) {
  // Theorem 2's quantitative half: M pseudocycles suffice.
  for (std::size_t n : {4u, 8u, 16u, 33u}) {
    apps::Graph g = apps::make_chain(n);
    apps::ApspOperator op(g);
    auto schedule = make_synchronous_schedule();
    auto r = run_update_sequence(op, *schedule, 100, true);
    ASSERT_TRUE(r.converged);
    EXPECT_LE(r.pseudocycles, op.max_pseudocycles().value()) << "n=" << n;
    EXPECT_EQ(r.box_violations, 0u);
  }
}

}  // namespace
}  // namespace pqra::iter
