#include <gtest/gtest.h>

#include "apps/apsp.hpp"
#include "apps/graph.hpp"
#include "core/spec/checker.hpp"
#include "core/spec/history.hpp"
#include "iter/alg1_des.hpp"
#include "net/fault_plan.hpp"
#include "quorum/probabilistic.hpp"

/// Seeded-churn property suite (ISSUE satellite): random crash/recover
/// schedules plus message drops/duplicates/reorders through the full DES
/// stack, with the recorded operation history replayed through the spec
/// checkers ([R2], [R4], single-writer; [R1]'s liveness shows up as
/// convergence).  Each case is parameterized by its seed and the seed
/// appears in the test name, so a violation reproduces with a single
/// --gtest_filter invocation.

namespace pqra {
namespace {

class FaultChurnProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultChurnProperty, SpecHoldsUnderSeededChurnAndMessageFaults) {
  const std::uint64_t seed = GetParam();
  apps::Graph g = apps::make_chain(6);
  apps::ApspOperator op(g);
  quorum::ProbabilisticQuorums qs(10, 3);

  util::Rng churn_rng(seed);
  net::FaultPlan plan =
      net::FaultPlan::random_churn(10, /*horizon=*/600.0, /*mean_uptime=*/50.0,
                                   /*mean_downtime=*/12.0, churn_rng);
  net::MessageFaults message;
  message.drop_probability = 0.03;
  message.duplicate_probability = 0.02;
  message.reorder_probability = 0.1;
  message.reorder_delay_max = 3.0;
  plan.with_message_faults(message);

  core::RetryPolicy retry;
  retry.rpc_timeout = 6.0;
  retry.backoff_factor = 1.5;
  retry.max_backoff = 20.0;
  retry.jitter = 0.1;
  // No deadline: every operation keeps retrying until it completes, so the
  // history has no failed ops, only (possibly) ones still in flight at the
  // end of the run.

  iter::Alg1Options options;
  options.quorums = &qs;
  options.monotone = true;
  options.seed = seed;
  options.round_cap = 5000;
  options.fault_plan = &plan;
  options.retry = retry;
  options.max_sim_time = 50000.0;
  // The history records writes at invocation, so a write that is still in
  // flight when the run ends is visible to [R2] even though reads may
  // already have observed it.
  options.record_history = true;

  iter::Alg1Result r = iter::run_alg1(op, options);
  EXPECT_TRUE(r.converged) << "failing seed=" << seed;
  EXPECT_GT(r.retries, 0u) << "churn plan injected nothing; seed=" << seed;

  ASSERT_NE(r.history, nullptr);
  // The execution is truncated at convergence, so ops can legitimately still
  // be in flight at the end and [R1] (completeness) is not applicable; the
  // liveness it expresses is witnessed by r.converged above.  The safety
  // conditions hold on the truncated history as-is: check_r2 indexes
  // unresponded writes, so a read that observed an in-flight write still
  // finds its record.
  const auto& ops = r.history->ops();
  core::spec::CheckResult check = core::spec::check_r2(ops);
  for (core::spec::CheckResult part :
       {core::spec::check_single_writer(ops), core::spec::check_r4(ops)}) {
    if (!part.ok) {
      check.ok = false;
      check.violations.insert(check.violations.end(),
                              part.violations.begin(), part.violations.end());
    }
  }
  EXPECT_TRUE(check.ok) << "failing seed=" << seed << "\n  "
                        << (check.violations.empty()
                                ? std::string("(no detail)")
                                : check.violations.front());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultChurnProperty,
                         ::testing::Values(1u, 7u, 42u, 1337u, 99991u),
                         [](const auto& info) {
                           return "seed_" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace pqra
