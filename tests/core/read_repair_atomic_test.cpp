#include <gtest/gtest.h>

#include <memory>

#include "core/quorum_register_client.hpp"
#include "core/server_process.hpp"
#include "core/spec/checker.hpp"
#include "net/sim_transport.hpp"
#include "quorum/majority.hpp"
#include "quorum/probabilistic.hpp"
#include "util/codec.hpp"

/// Read repair and the atomic (write-back) read mode.

namespace pqra::core {
namespace {

struct Cluster {
  Cluster(std::size_t n, std::size_t num_clients,
          const quorum::QuorumSystem& qs, ClientOptions options,
          std::uint64_t seed = 1, bool synchronous = true)
      : delay(synchronous ? sim::make_constant_delay(1.0)
                          : sim::make_exponential_delay(1.0)),
        transport(sim, *delay, util::Rng(seed),
                  static_cast<net::NodeId>(n + num_clients)) {
    for (std::size_t s = 0; s < n; ++s) {
      servers.push_back(std::make_unique<ServerProcess>(
          transport, static_cast<net::NodeId>(s)));
      servers.back()->replica().preload(0, util::encode<std::int64_t>(0));
    }
    history.record_initial(0);
    for (std::size_t c = 0; c < num_clients; ++c) {
      clients.push_back(std::make_unique<QuorumRegisterClient>(
          sim, transport, static_cast<net::NodeId>(n + c), qs,
          util::Rng(seed).fork(700 + c), options, &history));
    }
  }

  std::size_t replicas_at_ts(Timestamp ts) const {
    std::size_t count = 0;
    for (const auto& s : servers) {
      const TimestampedValue* tv = s->replica().get(0);
      if (tv != nullptr && tv->ts == ts) ++count;
    }
    return count;
  }

  sim::Simulator sim;
  std::unique_ptr<sim::DelayModel> delay;
  net::SimTransport transport;
  std::vector<std::unique_ptr<ServerProcess>> servers;
  std::vector<std::unique_ptr<QuorumRegisterClient>> clients;
  spec::HistoryRecorder history;
};

TEST(ReadRepairTest, RepairsSpreadTheLatestValue) {
  quorum::ProbabilisticQuorums qs(20, 8);
  ClientOptions options;
  options.read_repair = true;
  Cluster c(20, 2, qs, options);
  // One write reaches 8 replicas; then a series of reads (quorums of 8,
  // usually overlapping the write) repairs stale responders.
  std::size_t after_write = 0;
  std::function<void(int)> reads = [&](int remaining) {
    if (remaining == 0) return;
    c.clients[1]->read(0, [&, remaining](ReadResult) {
      reads(remaining - 1);
    });
  };
  c.clients[0]->write(0, util::encode<std::int64_t>(7), [&](Timestamp) {
    after_write = c.replicas_at_ts(1);
    reads(12);
  });
  c.sim.run();
  EXPECT_EQ(after_write, 8u);
  EXPECT_GT(c.replicas_at_ts(1), after_write)
      << "read repair should have installed ts 1 on extra replicas";
  EXPECT_GT(c.clients[1]->counters().repairs_sent, 0u);
}

TEST(ReadRepairTest, NoRepairTrafficWhenEveryoneIsFresh) {
  quorum::MajorityQuorums qs(5);
  ClientOptions options;
  options.read_repair = true;
  Cluster c(5, 1, qs, options);
  bool done = false;
  // Reading the preloaded initial value: nothing newer to push.
  c.clients[0]->read(0, [&](ReadResult r) {
    EXPECT_EQ(r.ts, 0u);
    done = true;
  });
  c.sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(c.clients[0]->counters().repairs_sent, 0u);
}

TEST(ReadRepairTest, AcceleratesConvergenceOfStaleReplicas) {
  // Without repair, a k=4-of-20 write leaves 16 replicas stale forever
  // (single write).  With repair, repeated reads converge the cluster.
  quorum::ProbabilisticQuorums qs(20, 4);
  for (bool repair : {false, true}) {
    ClientOptions options;
    options.read_repair = repair;
    Cluster c(20, 2, qs, options, /*seed=*/9);
    std::function<void(int)> reads = [&](int remaining) {
      if (remaining == 0) return;
      c.clients[1]->read(0, [&, remaining](ReadResult) {
        reads(remaining - 1);
      });
    };
    c.clients[0]->write(0, util::encode<std::int64_t>(5), [&](Timestamp) {
      reads(40);
    });
    c.sim.run();
    if (repair) {
      EXPECT_GT(c.replicas_at_ts(1), 10u);
    } else {
      EXPECT_EQ(c.replicas_at_ts(1), 4u);
    }
  }
}

TEST(AtomicModeTest, WriteBackHappensBeforeTheReadReturns) {
  quorum::ProbabilisticQuorums qs(12, 4);
  ClientOptions options;
  options.write_back = true;
  Cluster c(12, 2, qs, options);
  bool done = false;
  c.clients[0]->write(0, util::encode<std::int64_t>(3), [&](Timestamp) {
    c.clients[1]->read(0, [&](ReadResult r) {
      // At response time, the returned value must already sit on a full
      // write quorum beyond the writer's own: the reader pushed it.
      if (r.ts == 1) {
        EXPECT_GE(c.replicas_at_ts(1), 4u);
      }
      done = true;
    });
  });
  c.sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(c.clients[1]->counters().write_backs, 1u);
}

TEST(AtomicModeTest, ReadsTakeTwoRoundTripsSynchronously) {
  quorum::MajorityQuorums qs(5);
  ClientOptions plain;
  Cluster c1(5, 1, qs, plain);
  ClientOptions atomic;
  atomic.write_back = true;
  Cluster c2(5, 1, qs, atomic);
  for (Cluster* c : {&c1, &c2}) {
    c->clients[0]->read(0, [](ReadResult) {});
    c->sim.run();
  }
  EXPECT_DOUBLE_EQ(c1.clients[0]->read_latency().mean(), 2.0);
  EXPECT_DOUBLE_EQ(c2.clients[0]->read_latency().mean(), 4.0);
}

TEST(AtomicModeTest, StrictQuorumsWithWriteBackPassTheAtomicChecker) {
  quorum::MajorityQuorums qs(7);
  ClientOptions options;
  options.write_back = true;
  Cluster c(7, 3, qs, options, /*seed=*/3, /*synchronous=*/false);
  // Writer streams values; two readers race each other.
  std::function<void(int)> writes = [&](int remaining) {
    if (remaining == 0) return;
    c.clients[0]->write(0, util::encode<std::int64_t>(remaining),
                        [&, remaining](Timestamp) { writes(remaining - 1); });
  };
  std::function<void(std::size_t, int)> reads = [&](std::size_t who,
                                                    int remaining) {
    if (remaining == 0) return;
    c.clients[who]->read(0, [&, who, remaining](ReadResult) {
      reads(who, remaining - 1);
    });
  };
  writes(25);
  reads(1, 40);
  reads(2, 40);
  c.sim.run();
  auto verdict = spec::check_atomic(c.history.ops());
  EXPECT_TRUE(verdict.ok) << verdict.violations.front();
}

TEST(AtomicCheckerTest, DetectsNewOldInversion) {
  spec::HistoryRecorder rec;
  rec.record_initial(0);
  auto w = rec.begin_write(0, 0, 1.0, 1);
  rec.end_write(w, 10.0);  // long write, concurrent with both reads
  auto r1 = rec.begin_read(1, 0, 2.0);
  rec.end_read(r1, 3.0, 1);  // sees the new value...
  auto r2 = rec.begin_read(2, 0, 4.0);
  rec.end_read(r2, 5.0, 0);  // ...but a later read sees the old one
  auto verdict = spec::check_atomic(rec.ops());
  ASSERT_FALSE(verdict.ok);
  bool found = false;
  for (const auto& v : verdict.violations) {
    if (v.find("[ATOMIC]") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(AtomicCheckerTest, OverlappingReadsMayDisagree) {
  spec::HistoryRecorder rec;
  rec.record_initial(0);
  auto w = rec.begin_write(0, 0, 1.0, 1);
  rec.end_write(w, 10.0);
  auto r1 = rec.begin_read(1, 0, 2.0);
  auto r2 = rec.begin_read(2, 0, 2.5);  // overlaps r1
  rec.end_read(r1, 6.0, 1);
  rec.end_read(r2, 6.5, 0);  // fine: concurrent reads may order freely
  EXPECT_TRUE(spec::check_atomic(rec.ops()).ok);
}

}  // namespace
}  // namespace pqra::core
