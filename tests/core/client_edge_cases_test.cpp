#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/quorum_register_client.hpp"
#include "core/server_process.hpp"
#include "net/sim_transport.hpp"
#include "quorum/majority.hpp"
#include "quorum/probabilistic.hpp"
#include "util/codec.hpp"
#include "util/math.hpp"

/// Edge cases of the register client: concurrent operations, spurious and
/// mismatched acks, oversized values, many registers.

namespace pqra::core {
namespace {

struct EdgeCluster {
  explicit EdgeCluster(std::size_t n, ClientOptions options = {},
                       std::uint64_t seed = 1)
      : qs(n),
        delay(sim::make_exponential_delay(1.0)),
        transport(sim, *delay, util::Rng(seed),
                  static_cast<net::NodeId>(n + 1)),
        client(std::make_unique<QuorumRegisterClient>(
            sim, transport, static_cast<net::NodeId>(n), qs,
            util::Rng(seed).fork(44), options, nullptr)) {
    for (std::size_t s = 0; s < n; ++s) {
      servers.push_back(std::make_unique<ServerProcess>(
          transport, static_cast<net::NodeId>(s)));
    }
  }

  quorum::MajorityQuorums qs;
  sim::Simulator sim;
  std::unique_ptr<sim::DelayModel> delay;
  net::SimTransport transport;
  std::vector<std::unique_ptr<ServerProcess>> servers;
  std::unique_ptr<QuorumRegisterClient> client;
};

TEST(ClientEdgeTest, ConcurrentReadsOfTheSameRegisterBothComplete) {
  EdgeCluster c(5);
  for (auto& s : c.servers) s->replica().preload(0, util::encode<std::int64_t>(1));
  int completed = 0;
  c.client->read(0, [&](ReadResult) { ++completed; });
  c.client->read(0, [&](ReadResult) { ++completed; });
  c.sim.run();
  EXPECT_EQ(completed, 2);
}

TEST(ClientEdgeTest, InterleavedWritesToManyRegisters) {
  EdgeCluster c(7);
  constexpr int kRegs = 32;
  std::vector<Timestamp> written(kRegs + 1, 0);
  const auto write = [&](net::RegisterId reg) {
    c.client->write(reg, util::encode<std::int64_t>(reg),
                    [&written, reg](WriteResult r) { written[reg] = r.ts; });
  };
  for (net::RegisterId reg = 0; reg < kRegs; ++reg) write(reg);
  c.sim.run();
  // Every register is independently versioned: each first write is ts 1,
  // also on register kRegs, which the 32 writes before it left untouched.
  write(kRegs);
  c.sim.run();
  EXPECT_EQ(written, std::vector<Timestamp>(kRegs + 1, 1));
}

TEST(ClientEdgeTest, SpuriousAcksForUnknownOpsAreIgnored) {
  EdgeCluster c(5);
  // Inject acks the client never asked for.
  c.transport.send(0, 5, net::Message::read_ack(0, 424242, 9, {}));
  c.transport.send(1, 5, net::Message::write_ack(0, 424243, 9));
  bool done = false;
  c.client->read(0, [&](ReadResult) { done = true; });
  c.sim.run();
  EXPECT_TRUE(done);
}

TEST(ClientEdgeTest, MismatchedAckTypeForPendingOpIsDropped) {
  EdgeCluster c(5);
  bool done = false;
  c.client->read(0, [&](ReadResult) { done = true; });
  // A write ack aimed at the read's op id (op ids start at 1).
  c.transport.send(0, 5, net::Message::write_ack(0, 1, 3));
  c.sim.run();
  EXPECT_TRUE(done);
}

TEST(ClientEdgeTest, LargeValuesRoundTrip) {
  EdgeCluster c(5);
  std::vector<std::int64_t> big(4096);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::int64_t>(i * i);
  }
  bool done = false;
  c.client->write(0, util::encode(big), [&](Timestamp) {
    c.client->read(0, [&](ReadResult r) {
      EXPECT_EQ(util::decode<std::vector<std::int64_t>>(r.value), big);
      done = true;
    });
  });
  c.sim.run();
  EXPECT_TRUE(done);
}

TEST(ClientEdgeTest, EmptyValueIsAValidValue) {
  EdgeCluster c(5);
  bool done = false;
  c.client->write(0, Value{}, [&](Timestamp ts) {
    EXPECT_EQ(ts, 1u);
    c.client->read(0, [&](ReadResult r) {
      EXPECT_EQ(r.ts, 1u);
      EXPECT_TRUE(r.value.empty());
      done = true;
    });
  });
  c.sim.run();
  EXPECT_TRUE(done);
}

TEST(ClientEdgeTest, CallbacksAreRequired) {
  EdgeCluster c(5);
  EXPECT_THROW(c.client->read(0, nullptr), std::logic_error);
  EXPECT_THROW(c.client->write(0, Value{}, nullptr), std::logic_error);
}

TEST(ClientEdgeTest, RetryTimersOnCompletedOpsAreHarmless) {
  ClientOptions options;
  options.retry = RetryPolicy::fixed(0.5);  // much shorter than round trips: several
                                // retries fire for every op
  EdgeCluster c(9, options, 3);
  int completed = 0;
  std::function<void(int)> loop = [&](int remaining) {
    if (remaining == 0) return;
    c.client->write(0, util::encode<std::int64_t>(remaining),
                    [&, remaining](Timestamp) {
                      c.client->read(0, [&, remaining](ReadResult) {
                        ++completed;
                        loop(remaining - 1);
                      });
                    });
  };
  loop(20);
  c.sim.run();
  EXPECT_EQ(completed, 20);
  EXPECT_GT(c.client->counters().retries, 0u);
}

TEST(ClientEdgeTest, RepairAndWriteBackCompose) {
  ClientOptions options;
  options.monotone = true;
  options.read_repair = true;
  options.write_back = true;
  EdgeCluster c(9, options, 5);
  for (auto& s : c.servers) s->replica().preload(0, util::encode<std::int64_t>(0));
  int completed = 0;
  std::function<void(int)> loop = [&](int remaining) {
    if (remaining == 0) return;
    c.client->write(0, util::encode<std::int64_t>(remaining),
                    [&, remaining](Timestamp) {
                      c.client->read(0, [&, remaining](ReadResult) {
                        ++completed;
                        loop(remaining - 1);
                      });
                    });
  };
  loop(15);
  c.sim.run();
  EXPECT_EQ(completed, 15);
  EXPECT_EQ(c.client->counters().write_backs, 15u);
}

/// DES cluster with probabilistic quorums for the deadline/degradation
/// tests; servers can be crashed through the transport's fault injector.
struct FaultableCluster {
  explicit FaultableCluster(std::size_t n, std::size_t k,
                            ClientOptions options = {}, std::uint64_t seed = 1)
      : qs(n, k),
        delay(sim::make_exponential_delay(1.0)),
        transport(sim, *delay, util::Rng(seed),
                  static_cast<net::NodeId>(n + 1)),
        client(std::make_unique<QuorumRegisterClient>(
            sim, transport, static_cast<net::NodeId>(n), qs,
            util::Rng(seed).fork(44), options, nullptr)) {
    for (std::size_t s = 0; s < n; ++s) {
      servers.push_back(std::make_unique<ServerProcess>(
          transport, static_cast<net::NodeId>(s)));
      servers.back()->replica().preload(0, util::encode<std::int64_t>(7));
    }
  }

  quorum::ProbabilisticQuorums qs;
  sim::Simulator sim;
  std::unique_ptr<sim::DelayModel> delay;
  net::SimTransport transport;
  std::vector<std::unique_ptr<ServerProcess>> servers;
  std::unique_ptr<QuorumRegisterClient> client;
};

TEST(ClientDeadlineTest, ReadFailsOutrightWhenNoServerAnswers) {
  ClientOptions options;
  options.retry.rpc_timeout = 2.0;
  options.retry.deadline = 10.0;
  FaultableCluster c(5, 3, options);
  for (net::NodeId s = 0; s < 5; ++s) c.transport.faults().crash(s);

  bool called = false;
  c.client->read(0, [&](ReadResult r) {
    called = true;
    EXPECT_EQ(r.status, OpStatus::kTimedOut);
    EXPECT_EQ(r.acks, 0u);
  });
  c.sim.run();
  EXPECT_TRUE(called);
  EXPECT_EQ(c.client->counters().op_failures, 1u);
  EXPECT_EQ(c.client->counters().reads_completed, 0u);
  EXPECT_GT(c.client->counters().retries, 0u);
}

TEST(ClientDeadlineTest, DegradedReadReportsStalenessBound) {
  ClientOptions options;
  options.retry.rpc_timeout = 2.0;
  options.retry.backoff_factor = 1.0;  // steady attempts: more live draws
  options.retry.deadline = 30.0;
  options.retry.degraded_ok = true;
  options.retry.min_degraded_acks = 1;
  FaultableCluster c(5, 3, options);
  // Only 0 lives.
  for (net::NodeId s = 1; s < 5; ++s) c.transport.faults().crash(s);

  bool called = false;
  c.client->read(0, [&](ReadResult r) {
    called = true;
    EXPECT_EQ(r.status, OpStatus::kDegraded);
    EXPECT_EQ(r.acks, 1u);
    // epsilon-intersection: P(this 1-server access set missed the latest
    // write's 3-server quorum) = C(5-3,1)/C(5,1) = 0.4.
    EXPECT_NEAR(r.staleness_bound,
                util::asymmetric_nonoverlap_probability(5, 3, 1), 1e-12);
  });
  c.sim.run();
  EXPECT_TRUE(called);
  EXPECT_EQ(c.client->counters().degraded_reads, 1u);
  EXPECT_EQ(c.client->counters().op_failures, 0u);
}

TEST(ClientDeadlineTest, DegradedWriteReportsEffectiveAccessSet) {
  ClientOptions options;
  options.retry.rpc_timeout = 2.0;
  options.retry.backoff_factor = 1.0;  // steady attempts: more live draws
  options.retry.deadline = 30.0;
  options.retry.degraded_ok = true;
  FaultableCluster c(5, 3, options);
  // 0 and 1 live.
  for (net::NodeId s = 2; s < 5; ++s) c.transport.faults().crash(s);

  bool called = false;
  c.client->write(0, util::encode<std::int64_t>(9), [&](WriteResult w) {
    called = true;
    EXPECT_EQ(w.status, OpStatus::kDegraded);
    EXPECT_EQ(w.acks, 2u);
    // P(a future 3-server read misses this 2-server write set).
    EXPECT_NEAR(w.staleness_bound,
                util::asymmetric_nonoverlap_probability(5, 2, 3), 1e-12);
  });
  c.sim.run();
  EXPECT_TRUE(called);
  EXPECT_EQ(c.client->counters().degraded_writes, 1u);
}

TEST(ClientDeadlineTest, HealthyClusterNeverDegrades) {
  ClientOptions options;
  options.retry.rpc_timeout = 2.0;
  options.retry.deadline = 50.0;
  options.retry.degraded_ok = true;
  FaultableCluster c(5, 3, options);

  int ok = 0;
  c.client->write(0, util::encode<std::int64_t>(1), [&](WriteResult w) {
    EXPECT_EQ(w.status, OpStatus::kOk);
    ++ok;
    c.client->read(0, [&](ReadResult r) {
      EXPECT_EQ(r.status, OpStatus::kOk);
      EXPECT_EQ(r.acks, 3u);
      ++ok;
    });
  });
  c.sim.run();
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(c.client->counters().degraded_reads, 0u);
  EXPECT_EQ(c.client->counters().degraded_writes, 0u);
  EXPECT_EQ(c.client->counters().op_failures, 0u);
}

}  // namespace
}  // namespace pqra::core
