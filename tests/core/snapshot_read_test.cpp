#include <gtest/gtest.h>

#include <memory>

#include "apps/apsp.hpp"
#include "apps/graph.hpp"
#include "core/quorum_register_client.hpp"
#include "core/server_process.hpp"
#include "core/spec/checker.hpp"
#include "iter/alg1_des.hpp"
#include "net/sim_transport.hpp"
#include "quorum/majority.hpp"
#include "quorum/probabilistic.hpp"
#include "util/codec.hpp"

namespace pqra::core {
namespace {

struct SnapCluster {
  SnapCluster(std::size_t n, const quorum::QuorumSystem& qs,
              ClientOptions options = {}, std::uint64_t seed = 1)
      : delay(sim::make_constant_delay(1.0)),
        transport(sim, *delay, util::Rng(seed),
                  static_cast<net::NodeId>(n + 1)),
        client(std::make_unique<QuorumRegisterClient>(
            sim, transport, static_cast<net::NodeId>(n), qs,
            util::Rng(seed).fork(60), options, &history)) {
    for (std::size_t s = 0; s < n; ++s) {
      servers.push_back(std::make_unique<ServerProcess>(
          transport, static_cast<net::NodeId>(s)));
      for (net::RegisterId reg = 0; reg < 4; ++reg) {
        servers.back()->replica().preload(
            reg, util::encode<std::int64_t>(reg * 100));
      }
    }
    for (net::RegisterId reg = 0; reg < 4; ++reg) {
      history.record_initial(reg);
    }
  }

  sim::Simulator sim;
  std::unique_ptr<sim::DelayModel> delay;
  net::SimTransport transport;
  std::vector<std::unique_ptr<ServerProcess>> servers;
  spec::HistoryRecorder history;
  std::unique_ptr<QuorumRegisterClient> client;
};

TEST(SnapshotReadTest, ReturnsAllRegistersInOrder) {
  quorum::MajorityQuorums qs(5);
  SnapCluster c(5, qs);
  bool done = false;
  c.client->read_snapshot({0, 1, 2, 3}, [&](std::vector<ReadResult> results) {
    ASSERT_EQ(results.size(), 4u);
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_EQ(results[j].ts, 0u);
      EXPECT_EQ(util::decode<std::int64_t>(results[j].value),
                static_cast<std::int64_t>(j) * 100);
    }
    done = true;
  });
  c.sim.run();
  EXPECT_TRUE(done);
}

TEST(SnapshotReadTest, CostsOneQuorumExchangeRegardlessOfRegisterCount) {
  quorum::MajorityQuorums qs(5);  // quorums of 3
  SnapCluster c(5, qs);
  c.client->read_snapshot({0, 1, 2, 3},
                          [](std::vector<ReadResult>) {});
  c.sim.run();
  // 3 requests + 3 acks, not 4 * (3 + 3).
  EXPECT_EQ(c.transport.stats().total, 6u);
}

TEST(SnapshotReadTest, SeesCompletedWritesThroughStrictQuorums) {
  quorum::MajorityQuorums qs(5);
  SnapCluster c(5, qs);
  bool done = false;
  c.client->write(2, util::encode<std::int64_t>(77), [&](Timestamp) {
    c.client->read_snapshot({0, 2}, [&](std::vector<ReadResult> results) {
      EXPECT_EQ(results[0].ts, 0u);
      EXPECT_EQ(results[1].ts, 1u);
      EXPECT_EQ(util::decode<std::int64_t>(results[1].value), 77);
      done = true;
    });
  });
  c.sim.run();
  EXPECT_TRUE(done);
}

TEST(SnapshotReadTest, MonotoneCacheAppliesPerRegister) {
  quorum::ProbabilisticQuorums qs(30, 2);
  ClientOptions options;
  options.monotone = true;
  SnapCluster c(30, qs, options, 9);
  Timestamp last_seen = 0;
  std::function<void(int)> loop = [&](int remaining) {
    if (remaining == 0) return;
    c.client->write(1, util::encode<std::int64_t>(remaining),
                    [&, remaining](Timestamp) {
                      c.client->read_snapshot(
                          {0, 1, 2, 3},
                          [&, remaining](std::vector<ReadResult> results) {
                            EXPECT_GE(results[1].ts, last_seen);
                            last_seen = results[1].ts;
                            loop(remaining - 1);
                          });
                    });
  };
  loop(40);
  c.sim.run();
  auto r4 = spec::check_r4(c.history.ops());
  EXPECT_TRUE(r4.ok) << r4.violations.front();
  auto r2 = spec::check_r2(c.history.ops());
  EXPECT_TRUE(r2.ok) << r2.violations.front();
}

TEST(SnapshotReadTest, RejectsWriteBackCombination) {
  quorum::MajorityQuorums qs(5);
  ClientOptions options;
  options.write_back = true;
  SnapCluster c(5, qs, options);
  EXPECT_THROW(c.client->read_snapshot({0}, [](std::vector<ReadResult>) {}),
               std::logic_error);
}

TEST(SnapshotReadTest, Alg1ConvergesWithFarFewerMessages) {
  apps::Graph g = apps::make_chain(10);
  apps::ApspOperator op(g);
  quorum::ProbabilisticQuorums qs(10, 4);
  iter::Alg1Options options;
  options.quorums = &qs;
  options.seed = 3;
  iter::Alg1Result per_register = iter::run_alg1(op, options);
  options.snapshot_reads = true;
  iter::Alg1Result snapshot = iter::run_alg1(op, options);
  ASSERT_TRUE(per_register.converged);
  ASSERT_TRUE(snapshot.converged);
  EXPECT_LT(snapshot.messages.total, per_register.messages.total / 3)
      << "snapshot reads must collapse the per-register read fan-out";
  // Correlated staleness may cost some rounds but not an order of magnitude.
  EXPECT_LE(snapshot.rounds, per_register.rounds * 3);
}

TEST(SnapshotReadTest, Alg1SpecStillHoldsWithSnapshots) {
  apps::Graph g = apps::make_chain(8);
  apps::ApspOperator op(g);
  quorum::ProbabilisticQuorums qs(8, 3);
  iter::Alg1Options options;
  options.quorums = &qs;
  options.snapshot_reads = true;
  options.record_history = true;
  options.seed = 11;
  iter::Alg1Result r = iter::run_alg1(op, options);
  ASSERT_TRUE(r.converged);
  auto r2 = spec::check_r2(r.history->ops());
  EXPECT_TRUE(r2.ok) << r2.violations.front();
  auto r4 = spec::check_r4(r.history->ops());
  EXPECT_TRUE(r4.ok) << r4.violations.front();
}

}  // namespace
}  // namespace pqra::core
