#include <gtest/gtest.h>

#include <memory>

#include "apps/approx_agreement.hpp"
#include "apps/apsp.hpp"
#include "apps/csp.hpp"
#include "apps/graph.hpp"
#include "apps/linear.hpp"
#include "apps/transitive_closure.hpp"
#include "core/server_process.hpp"
#include "core/spec/checker.hpp"
#include "iter/alg1_des.hpp"
#include "iter/update_sequence.hpp"
#include "quorum/fpp.hpp"
#include "quorum/grid.hpp"
#include "quorum/hierarchical.hpp"
#include "quorum/majority.hpp"
#include "quorum/probabilistic.hpp"
#include "quorum/rowa.hpp"
#include "quorum/singleton.hpp"

/// End-to-end sweeps: every application over every quorum system, with the
/// register specification checked on the recorded execution.  This is the
/// paper's whole pipeline exercised in one place.

namespace pqra {
namespace {

std::unique_ptr<iter::AcoOperator> make_operator(const std::string& app,
                                                 std::size_t m) {
  util::Rng rng(4242);
  if (app == "apsp") {
    return std::make_unique<apps::ApspOperator>(apps::make_chain(m));
  }
  if (app == "tc") {
    return std::make_unique<apps::TransitiveClosureOperator>(
        apps::make_cycle(m));
  }
  if (app == "csp") {
    return std::make_unique<apps::ArcConsistencyOperator>(
        apps::make_ordering_csp(m, m + 1));
  }
  if (app == "jacobi") {
    return std::make_unique<apps::JacobiOperator>(
        apps::make_dominant_system(m, 0.6, rng), 1e-7);
  }
  std::vector<double> inputs;
  for (std::size_t i = 0; i < m; ++i) inputs.push_back(rng.uniform01() * 50);
  return std::make_unique<apps::ApproxAgreementOperator>(std::move(inputs),
                                                         0.05);
}

std::unique_ptr<quorum::QuorumSystem> make_system(const std::string& kind) {
  if (kind == "prob3of12") {
    return std::make_unique<quorum::ProbabilisticQuorums>(12, 3);
  }
  if (kind == "prob7of12") {
    return std::make_unique<quorum::ProbabilisticQuorums>(12, 7);
  }
  if (kind == "majority") return std::make_unique<quorum::MajorityQuorums>(9);
  if (kind == "grid") return std::make_unique<quorum::GridQuorums>(3, 3);
  if (kind == "fpp") return std::make_unique<quorum::FppQuorums>(3);
  if (kind == "hier") return std::make_unique<quorum::HierarchicalQuorums>(2);
  if (kind == "rowa") return std::make_unique<quorum::ReadOneWriteAll>(7);
  return std::make_unique<quorum::SingletonQuorums>(5);
}

struct StackCase {
  const char* app;
  const char* system;
  bool synchronous;
};

class FullStackSweep : public ::testing::TestWithParam<StackCase> {};

TEST_P(FullStackSweep, ConvergesAndSatisfiesTheSpec) {
  auto [app, system, synchronous] = GetParam();
  auto op = make_operator(app, 7);
  auto qs = make_system(system);
  iter::Alg1Options options;
  options.quorums = qs.get();
  options.monotone = true;
  options.synchronous = synchronous;
  options.seed = 77;
  options.round_cap = 30000;
  options.record_history = true;
  iter::Alg1Result r = iter::run_alg1(*op, options);
  EXPECT_TRUE(r.converged) << app << " over " << qs->name();
  ASSERT_NE(r.history, nullptr);

  const auto& ops = r.history->ops();
  auto r2 = core::spec::check_r2(ops);
  EXPECT_TRUE(r2.ok) << r2.violations.front();
  auto sw = core::spec::check_single_writer(ops);
  EXPECT_TRUE(sw.ok) << sw.violations.front();
  auto r4 = core::spec::check_r4(ops);
  EXPECT_TRUE(r4.ok) << r4.violations.front();
  if (qs->is_strict() && synchronous) {
    auto reg = core::spec::check_regular(ops);
    EXPECT_TRUE(reg.ok) << reg.violations.front();
  }
}

INSTANTIATE_TEST_SUITE_P(
    AppsTimesSystems, FullStackSweep,
    ::testing::Values(
        StackCase{"apsp", "prob3of12", true},
        StackCase{"apsp", "prob7of12", false},
        StackCase{"apsp", "majority", true},
        StackCase{"apsp", "grid", false},
        StackCase{"apsp", "fpp", true},
        StackCase{"apsp", "hier", true},
        StackCase{"apsp", "rowa", false},
        StackCase{"apsp", "singleton", true},
        StackCase{"tc", "prob3of12", false},
        StackCase{"tc", "grid", true},
        StackCase{"tc", "hier", false},
        StackCase{"csp", "prob3of12", true},
        StackCase{"csp", "fpp", false},
        StackCase{"csp", "majority", false},
        StackCase{"jacobi", "prob3of12", false},
        StackCase{"jacobi", "grid", true},
        StackCase{"jacobi", "rowa", true},
        StackCase{"agree", "prob3of12", true},
        StackCase{"agree", "majority", false},
        StackCase{"agree", "singleton", false}),
    [](const auto& info) {
      return std::string(info.param.app) + "_" + info.param.system +
             (info.param.synchronous ? "_sync" : "_async");
    });

TEST(FullStackTest, LossyNetworkWithRetriesStillConvergesAndSatisfiesR2) {
  // 10% message loss everywhere; retries provide liveness, and the
  // specification must still hold (drops never corrupt, only delay).
  apps::Graph g = apps::make_chain(6);
  apps::ApspOperator op(g);
  quorum::ProbabilisticQuorums qs(10, 3);

  util::Rng master(5);
  sim::Simulator sim;
  auto delays = sim::make_exponential_delay(1.0);
  net::SimTransport transport(sim, *delays, master.fork(1), 16);
  transport.faults().set_message_faults({.drop_probability = 0.10});

  // run_alg1 owns its transport (no drop-probability knob), so the register
  // layer is driven directly here.
  std::vector<std::unique_ptr<core::ServerProcess>> servers;
  for (net::NodeId s = 0; s < 10; ++s) {
    servers.push_back(std::make_unique<core::ServerProcess>(transport, s));
    servers.back()->replica().preload(0, util::encode<std::int64_t>(0));
  }
  core::spec::HistoryRecorder history;
  history.record_initial(0);
  core::ClientOptions copts;
  copts.monotone = true;
  copts.retry = core::RetryPolicy::fixed(6.0);
  core::QuorumRegisterClient writer(sim, transport, 10, qs,
                                    master.fork(2), copts, &history);
  core::QuorumRegisterClient reader(sim, transport, 11, qs,
                                    master.fork(3), copts, &history);

  int completed = 0;
  std::function<void(int)> loop = [&](int remaining) {
    if (remaining == 0) return;
    writer.write(0, util::encode<std::int64_t>(remaining),
                 [&, remaining](core::Timestamp) {
                   reader.read(0, [&, remaining](core::ReadResult) {
                     ++completed;
                     loop(remaining - 1);
                   });
                 });
  };
  loop(40);
  sim.run();
  EXPECT_EQ(completed, 40);
  EXPECT_GT(writer.counters().retries + reader.counters().retries, 0u);
  auto verdict = core::spec::check_random_register(history.ops(), true);
  EXPECT_TRUE(verdict.ok) << verdict.violations.front();
}

class LossSweep : public ::testing::TestWithParam<int> {};

TEST_P(LossSweep, RegisterSurvivesMessageLossWithRetries) {
  const double drop = GetParam() / 100.0;
  quorum::ProbabilisticQuorums qs(10, 3);
  util::Rng master(31 + GetParam());
  sim::Simulator sim;
  auto delays = sim::make_exponential_delay(1.0);
  net::SimTransport transport(sim, *delays, master.fork(1), 12);
  transport.faults().set_message_faults({.drop_probability = drop});
  std::vector<std::unique_ptr<core::ServerProcess>> servers;
  for (net::NodeId s = 0; s < 10; ++s) {
    servers.push_back(std::make_unique<core::ServerProcess>(transport, s));
    servers.back()->replica().preload(0, util::encode<std::int64_t>(0));
  }
  core::spec::HistoryRecorder history;
  history.record_initial(0);
  core::ClientOptions copts;
  copts.monotone = true;
  copts.retry = core::RetryPolicy::fixed(8.0);
  core::QuorumRegisterClient client(sim, transport, 10, qs,
                                    master.fork(2), copts, &history);
  int completed = 0;
  std::function<void(int)> loop = [&](int remaining) {
    if (remaining == 0) return;
    client.write(0, util::encode<std::int64_t>(remaining),
                 [&, remaining](core::Timestamp) {
                   client.read(0, [&, remaining](core::ReadResult) {
                     ++completed;
                     loop(remaining - 1);
                   });
                 });
  };
  loop(25);
  sim.run();
  EXPECT_EQ(completed, 25) << "drop probability " << drop;
  auto verdict = core::spec::check_random_register(history.ops(), true);
  EXPECT_TRUE(verdict.ok) << verdict.violations.front();
}

INSTANTIATE_TEST_SUITE_P(DropRates, LossSweep,
                         ::testing::Values(5, 15, 30, 50),
                         [](const auto& info) {
                           return "drop" + std::to_string(info.param) + "pct";
                         });

TEST(FullStackTest, AllAppsAgreeAcrossRuntimesOnTheResult) {
  // The DES and the sequential runner must land on identical fixed points.
  apps::Graph g = apps::make_chain(8);
  apps::ApspOperator op(g);
  quorum::MajorityQuorums qs(8);
  iter::Alg1Options options;
  options.quorums = &qs;
  auto des = iter::run_alg1(op, options);
  ASSERT_TRUE(des.converged);
  auto schedule = iter::make_synchronous_schedule();
  auto seq = iter::run_update_sequence(op, *schedule, 100);
  ASSERT_TRUE(seq.converged);
  for (std::size_t i = 0; i < op.num_components(); ++i) {
    EXPECT_EQ(seq.final_x[i], op.fixed_point(i));
  }
}

}  // namespace
}  // namespace pqra
