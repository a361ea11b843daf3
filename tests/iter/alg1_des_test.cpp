#include "iter/alg1_des.hpp"

#include <gtest/gtest.h>

#include "apps/apsp.hpp"
#include "apps/graph.hpp"
#include "core/spec/checker.hpp"
#include "quorum/grid.hpp"
#include "quorum/majority.hpp"
#include "quorum/probabilistic.hpp"
#include "util/math.hpp"

namespace pqra::iter {
namespace {

TEST(Alg1DesTest, StrictSynchronousConvergesInMRounds) {
  apps::Graph g = apps::make_chain(6);  // d = 5, M = 3
  apps::ApspOperator op(g);
  quorum::MajorityQuorums qs(6);
  Alg1Options options;
  options.quorums = &qs;
  Alg1Result r = run_alg1(op, options);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.rounds, 3u);
  // Strict synchronous: one pseudocycle per round.
  EXPECT_EQ(r.pseudocycles, r.rounds);
}

TEST(Alg1DesTest, OverHalfProbabilisticQuorumBehavesStrictly) {
  apps::Graph g = apps::make_chain(6);
  apps::ApspOperator op(g);
  quorum::ProbabilisticQuorums qs(6, 4);  // 2k > n
  Alg1Options options;
  options.quorums = &qs;
  Alg1Result r = run_alg1(op, options);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.rounds, 3u);
}

struct SweepParam {
  std::size_t k;
  bool monotone;
  bool synchronous;
};

class Alg1Sweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(Alg1Sweep, ConvergesAndSatisfiesTheRegisterSpec) {
  auto [k, monotone, synchronous] = GetParam();
  apps::Graph g = apps::make_chain(10);  // d = 9, M = 4
  apps::ApspOperator op(g);
  quorum::ProbabilisticQuorums qs(10, k);
  Alg1Options options;
  options.quorums = &qs;
  options.monotone = monotone;
  options.synchronous = synchronous;
  options.seed = 42 + k;
  options.round_cap = 3000;
  options.record_history = true;
  Alg1Result r = run_alg1(op, options);
  EXPECT_TRUE(r.converged) << "k=" << k;
  EXPECT_GE(r.rounds, op.max_pseudocycles().value() - 1);
  ASSERT_NE(r.history, nullptr);
  // The execution was cut short by convergence, so pending ops may exist;
  // check [R2] (+ [R4] when monotone) rather than [R1].
  auto r2 = core::spec::check_r2(r.history->ops());
  EXPECT_TRUE(r2.ok) << r2.violations.front();
  auto sw = core::spec::check_single_writer(r.history->ops());
  EXPECT_TRUE(sw.ok) << sw.violations.front();
  if (monotone) {
    auto r4 = core::spec::check_r4(r.history->ops());
    EXPECT_TRUE(r4.ok) << r4.violations.front();
  }
}

INSTANTIATE_TEST_SUITE_P(
    QuorumSizes, Alg1Sweep,
    ::testing::Values(SweepParam{2, true, true}, SweepParam{3, true, true},
                      SweepParam{4, true, true}, SweepParam{6, true, true},
                      SweepParam{3, true, false}, SweepParam{5, true, false},
                      SweepParam{4, false, true}, SweepParam{6, false, true},
                      SweepParam{5, false, false}, SweepParam{8, false, true}),
    [](const auto& info) {
      return "k" + std::to_string(info.param.k) +
             (info.param.monotone ? "_mono" : "_plain") +
             (info.param.synchronous ? "_sync" : "_async");
    });

TEST(Alg1DesTest, SmallQuorumsNeedMoreRoundsThanStrict) {
  apps::Graph g = apps::make_chain(8);
  apps::ApspOperator op(g);
  quorum::ProbabilisticQuorums tiny(8, 1);
  quorum::ProbabilisticQuorums strict(8, 5);
  Alg1Options options;
  options.round_cap = 5000;
  options.quorums = &tiny;
  options.seed = 3;
  Alg1Result r_tiny = run_alg1(op, options);
  options.quorums = &strict;
  Alg1Result r_strict = run_alg1(op, options);
  ASSERT_TRUE(r_tiny.converged);
  ASSERT_TRUE(r_strict.converged);
  EXPECT_GT(r_tiny.rounds, r_strict.rounds);
}

TEST(Alg1DesTest, DeterministicGivenSeed) {
  apps::Graph g = apps::make_chain(7);
  apps::ApspOperator op(g);
  quorum::ProbabilisticQuorums qs(7, 2);
  Alg1Options options;
  options.quorums = &qs;
  options.synchronous = false;
  options.seed = 9;
  Alg1Result a = run_alg1(op, options);
  Alg1Result b = run_alg1(op, options);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.messages.total, b.messages.total);
  EXPECT_DOUBLE_EQ(a.sim_time, b.sim_time);
}

TEST(Alg1DesTest, MessageCountMatchesTheFormulaShape) {
  // §6.4: 2pmk + 2mk messages per round with p = m processes.  Iterations
  // in flight when the run stops add at most one round's worth.
  apps::Graph g = apps::make_chain(6);
  apps::ApspOperator op(g);
  const std::size_t m = 6, k = 4;
  quorum::ProbabilisticQuorums qs(6, k);
  Alg1Options options;
  options.quorums = &qs;
  Alg1Result r = run_alg1(op, options);
  ASSERT_TRUE(r.converged);
  // Each completed iteration: m reads + 1 write, each costing 2k messages.
  std::uint64_t expected_completed = r.iterations * (m + 1) * 2 * k;
  EXPECT_GE(r.messages.total, expected_completed);
  std::uint64_t slack = m * (m + 1) * 2 * k;  // one extra iteration per proc
  EXPECT_LE(r.messages.total, expected_completed + slack);
}

TEST(Alg1DesTest, MonotoneBeatsNonMonotoneOnTinyQuorums) {
  apps::Graph g = apps::make_chain(8);
  apps::ApspOperator op(g);
  quorum::ProbabilisticQuorums qs(8, 2);
  Alg1Options options;
  options.quorums = &qs;
  options.seed = 11;
  options.round_cap = 5000;
  options.monotone = true;
  Alg1Result mono = run_alg1(op, options);
  options.monotone = false;
  Alg1Result plain = run_alg1(op, options);
  ASSERT_TRUE(mono.converged);
  EXPECT_GT(mono.monotone_cache_hits, 0u);
  if (plain.converged) {
    EXPECT_LE(mono.rounds, plain.rounds);
  }
}

TEST(Alg1DesTest, GridQuorumsWorkAsTheRegisterSubstrate) {
  apps::Graph g = apps::make_chain(9);
  apps::ApspOperator op(g);
  quorum::GridQuorums qs(3, 3);
  Alg1Options options;
  options.quorums = &qs;
  Alg1Result r = run_alg1(op, options);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.rounds, apps::apsp_pseudocycle_bound(g));
}

TEST(Alg1DesTest, FewerProcessesThanComponents) {
  apps::Graph g = apps::make_chain(8);
  apps::ApspOperator op(g);
  quorum::MajorityQuorums qs(8);
  Alg1Options options;
  options.quorums = &qs;
  options.num_processes = 3;  // each owns 2-3 rows
  Alg1Result r = run_alg1(op, options);
  EXPECT_TRUE(r.converged);
}

TEST(Alg1DesTest, SingleProcessOwnsEverything) {
  apps::Graph g = apps::make_chain(5);
  apps::ApspOperator op(g);
  quorum::MajorityQuorums qs(5);
  Alg1Options options;
  options.quorums = &qs;
  options.num_processes = 1;
  Alg1Result r = run_alg1(op, options);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.rounds, r.iterations);
}

TEST(Alg1DesTest, RoundCapReportsNonConvergence) {
  apps::Graph g = apps::make_chain(12);
  apps::ApspOperator op(g);
  quorum::ProbabilisticQuorums qs(12, 1);
  Alg1Options options;
  options.quorums = &qs;
  options.monotone = false;
  options.round_cap = 5;
  options.seed = 5;
  Alg1Result r = run_alg1(op, options);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.rounds, 5u);
}

TEST(Alg1DesTest, CrashToleranceWithRetries) {
  apps::Graph g = apps::make_chain(6);
  apps::ApspOperator op(g);
  quorum::ProbabilisticQuorums qs(10, 3);
  // 5 alive >= k = 3.
  const net::FaultPlan crashed = net::FaultPlan::parse(
      "crash:0@0;crash:1@0;crash:2@0;crash:3@0;crash:4@0");
  Alg1Options options;
  options.quorums = &qs;
  options.fault_plan = &crashed;
  options.retry = core::RetryPolicy::fixed(8.0);
  Alg1Result r = run_alg1(op, options);
  EXPECT_TRUE(r.converged);
  EXPECT_GT(r.retries, 0u);
}

TEST(Alg1DesTest, MajorityStallsWhenMajorityCrashed) {
  apps::Graph g = apps::make_chain(6);
  apps::ApspOperator op(g);
  quorum::MajorityQuorums qs(10);
  // 5 alive < 6 needed.
  const net::FaultPlan crashed = net::FaultPlan::parse(
      "crash:0@0;crash:1@0;crash:2@0;crash:3@0;crash:4@0");
  Alg1Options options;
  options.quorums = &qs;
  options.fault_plan = &crashed;
  options.retry = core::RetryPolicy::fixed(8.0);
  options.max_sim_time = 500.0;
  Alg1Result r = run_alg1(op, options);
  EXPECT_FALSE(r.converged)
      << "majority cannot make progress with half the servers down";
}

TEST(Alg1DesTest, ProbabilisticSurvivesWhereMajorityStalls) {
  // The §4 availability story end-to-end: same crash set, same quorum size
  // regime, opposite outcomes.
  apps::Graph g = apps::make_chain(6);
  apps::ApspOperator op(g);
  const net::FaultPlan crashed = net::FaultPlan::parse(
      "crash:0@0;crash:1@0;crash:2@0;crash:3@0;crash:4@0;crash:5@0");
  Alg1Options options;
  options.fault_plan = &crashed;
  options.retry = core::RetryPolicy::fixed(8.0);
  options.max_sim_time = 3000.0;

  quorum::ProbabilisticQuorums prob(10, 3);
  options.quorums = &prob;
  Alg1Result r_prob = run_alg1(op, options);
  EXPECT_TRUE(r_prob.converged);

  quorum::MajorityQuorums maj(10);
  options.quorums = &maj;
  Alg1Result r_maj = run_alg1(op, options);
  EXPECT_FALSE(r_maj.converged);
}

TEST(Alg1DesTest, SurvivesServerChurnWithRetries) {
  apps::Graph g = apps::make_chain(6);
  apps::ApspOperator op(g);
  quorum::ProbabilisticQuorums qs(12, 3);
  util::Rng churn_rng(21);
  net::FaultPlan plan =
      net::FaultPlan::random_churn(12, /*horizon=*/300.0,
                                   /*mean_uptime=*/40.0,
                                   /*mean_downtime=*/10.0, churn_rng);
  iter::Alg1Options options;
  options.quorums = &qs;
  options.retry = core::RetryPolicy::fixed(8.0);
  options.fault_plan = &plan;
  options.round_cap = 20000;
  options.max_sim_time = 20000.0;
  Alg1Result r = run_alg1(op, options);
  EXPECT_TRUE(r.converged);
}

TEST(Alg1DesTest, LatencyStatsMatchTheSynchronousDelayModel) {
  apps::Graph g = apps::make_chain(6);
  apps::ApspOperator op(g);
  quorum::MajorityQuorums qs(6);
  Alg1Options options;
  options.quorums = &qs;
  Alg1Result r = run_alg1(op, options);
  ASSERT_TRUE(r.converged);
  // Constant delay 1 each way: every op takes exactly 2 time units.
  EXPECT_GT(r.read_latency.count(), 0u);
  EXPECT_DOUBLE_EQ(r.read_latency.mean(), 2.0);
  EXPECT_DOUBLE_EQ(r.read_latency.min(), 2.0);
  EXPECT_DOUBLE_EQ(r.read_latency.max(), 2.0);
  EXPECT_DOUBLE_EQ(r.write_latency.mean(), 2.0);
}

TEST(Alg1DesTest, AsyncLatencyGrowsWithQuorumSize) {
  apps::Graph g = apps::make_chain(6);
  apps::ApspOperator op(g);
  Alg1Options options;
  options.synchronous = false;
  options.seed = 13;
  quorum::ProbabilisticQuorums small(12, 2);
  options.quorums = &small;
  Alg1Result r_small = run_alg1(op, options);
  quorum::ProbabilisticQuorums large(12, 10);
  options.quorums = &large;
  Alg1Result r_large = run_alg1(op, options);
  // Read latency = max over k of (exp + exp): grows with k.
  EXPECT_GT(r_large.read_latency.mean(), r_small.read_latency.mean());
}

TEST(Alg1DesTest, RequiresAQuorumSystem) {
  apps::Graph g = apps::make_chain(4);
  apps::ApspOperator op(g);
  EXPECT_THROW(run_alg1(op, Alg1Options{}), std::logic_error);
}

}  // namespace
}  // namespace pqra::iter
