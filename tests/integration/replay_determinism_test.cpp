#include <gtest/gtest.h>

#include <sstream>

#include "apps/apsp.hpp"
#include "apps/graph.hpp"
#include "core/spec/history.hpp"
#include "iter/alg1_des.hpp"
#include "net/fault_plan.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "quorum/probabilistic.hpp"

/// Deterministic replay: the same fault-plan + seed must reproduce the
/// execution byte for byte.  Two independent runs with identical options
/// each fill their own metrics registry and operation history; the exported
/// JSON snapshots and history JSONL must compare equal as strings.  (The
/// CLI-level twin of this test is cli_fault_replay in tests/CMakeLists.txt,
/// which diffs two experiment_cli metrics files.)

namespace pqra {
namespace {

struct RunArtifacts {
  std::string metrics_json;
  std::string trace_jsonl;
  iter::Alg1Result result;
};

RunArtifacts run_once(std::uint64_t seed) {
  apps::Graph g = apps::make_chain(6);
  apps::ApspOperator op(g);
  quorum::ProbabilisticQuorums qs(8, 3);

  net::FaultPlan plan = net::FaultPlan::parse(
      "outage:2@5-60; outage:5@40-120; slow:1*4@10; noslow:1@80; "
      "drop=0.03; dup=0.02; reorder=0.1:3");

  core::RetryPolicy retry;
  retry.rpc_timeout = 6.0;
  retry.backoff_factor = 1.5;
  retry.max_backoff = 20.0;
  retry.jitter = 0.1;

  obs::Registry registry(obs::Concurrency::kSingleThread);
  iter::Alg1Options options;
  options.quorums = &qs;
  options.monotone = true;
  options.seed = seed;
  options.round_cap = 5000;
  options.fault_plan = &plan;
  options.retry = retry;
  options.max_sim_time = 50000.0;
  options.metrics = &registry;
  options.record_history = true;

  RunArtifacts a;
  a.result = iter::run_alg1(op, options);
  std::ostringstream metrics_out;
  obs::write_json(registry, metrics_out);
  a.metrics_json = metrics_out.str();
  std::ostringstream trace_out;
  core::spec::write_history_jsonl(a.result.history->ops(), trace_out);
  a.trace_jsonl = trace_out.str();
  return a;
}

TEST(ReplayDeterminismTest, SameFaultPlanAndSeedGiveByteIdenticalArtifacts) {
  RunArtifacts first = run_once(42);
  RunArtifacts second = run_once(42);

  ASSERT_TRUE(first.result.converged);
  EXPECT_GT(first.result.retries, 0u) << "fault plan injected nothing";
  EXPECT_EQ(first.result.rounds, second.result.rounds);
  EXPECT_EQ(first.result.retries, second.result.retries);
  EXPECT_EQ(first.result.sim_time, second.result.sim_time);
  EXPECT_EQ(first.metrics_json, second.metrics_json);
  EXPECT_EQ(first.trace_jsonl, second.trace_jsonl);
  EXPECT_FALSE(first.metrics_json.empty());
  EXPECT_FALSE(first.trace_jsonl.empty());
}

TEST(ReplayDeterminismTest, DifferentSeedsActuallyDiverge) {
  // Guards the test above against vacuous equality (e.g. everything-empty
  // artifacts would also compare equal).
  RunArtifacts a = run_once(42);
  RunArtifacts b = run_once(43);
  EXPECT_NE(a.trace_jsonl, b.trace_jsonl);
}

}  // namespace
}  // namespace pqra
