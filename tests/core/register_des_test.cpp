#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/quorum_register_client.hpp"
#include "core/server_process.hpp"
#include "core/spec/checker.hpp"
#include "net/sim_transport.hpp"
#include "quorum/majority.hpp"
#include "quorum/probabilistic.hpp"
#include "util/codec.hpp"

namespace pqra::core {
namespace {

/// A small simulated cluster: n servers at NodeIds [0, n), clients above.
struct Cluster {
  Cluster(std::size_t n, std::size_t num_clients,
          const quorum::QuorumSystem& qs, ClientOptions options = {},
          bool synchronous = true, std::uint64_t seed = 1)
      : quorums(qs),
        delay(synchronous ? sim::make_constant_delay(1.0)
                          : sim::make_exponential_delay(1.0)),
        transport(sim, *delay, util::Rng(seed),
                  static_cast<net::NodeId>(n + num_clients)) {
    for (std::size_t s = 0; s < n; ++s) {
      servers.push_back(std::make_unique<ServerProcess>(
          transport, static_cast<net::NodeId>(s)));
    }
    for (std::size_t c = 0; c < num_clients; ++c) {
      clients.push_back(std::make_unique<QuorumRegisterClient>(
          sim, transport, static_cast<net::NodeId>(n + c), quorums,
          util::Rng(seed).fork(500 + c), options, &history));
    }
  }

  const quorum::QuorumSystem& quorums;
  sim::Simulator sim;
  std::unique_ptr<sim::DelayModel> delay;
  net::SimTransport transport;
  std::vector<std::unique_ptr<ServerProcess>> servers;
  std::vector<std::unique_ptr<QuorumRegisterClient>> clients;
  spec::HistoryRecorder history;
};

Value val(std::int64_t x) { return util::encode(x); }

TEST(RegisterDesTest, WriteThenReadWithFullQuorumReturnsValue) {
  quorum::ProbabilisticQuorums qs(5, 5);  // quorum = everyone: no staleness
  Cluster c(5, 1, qs);
  bool write_done = false;
  bool read_done = false;
  c.clients[0]->write(0, val(11), [&](Timestamp ts) {
    EXPECT_EQ(ts, 1u);
    write_done = true;
    c.clients[0]->read(0, [&](ReadResult r) {
      EXPECT_EQ(r.ts, 1u);
      EXPECT_EQ(util::decode<std::int64_t>(r.value), 11);
      read_done = true;
    });
  });
  c.sim.run();
  EXPECT_TRUE(write_done);
  EXPECT_TRUE(read_done);
}

TEST(RegisterDesTest, TimestampsIncreasePerRegister) {
  quorum::ProbabilisticQuorums qs(5, 3);
  Cluster c(5, 1, qs);
  std::vector<Timestamp> seen;
  std::function<void(int)> write_next = [&](int remaining) {
    if (remaining == 0) return;
    c.clients[0]->write(0, val(remaining), [&, remaining](WriteResult r) {
      seen.push_back(r.ts);
      write_next(remaining - 1);
    });
  };
  write_next(5);
  c.sim.run();
  EXPECT_EQ(seen, (std::vector<Timestamp>{1, 2, 3, 4, 5}));
}

TEST(RegisterDesTest, ReadSeesPreloadedInitialValue) {
  quorum::ProbabilisticQuorums qs(4, 2);
  Cluster c(4, 1, qs);
  for (auto& s : c.servers) s->replica().preload(7, val(70));
  c.history.record_initial(7);
  bool done = false;
  c.clients[0]->read(7, [&](ReadResult r) {
    EXPECT_EQ(r.ts, 0u);
    EXPECT_EQ(util::decode<std::int64_t>(r.value), 70);
    done = true;
  });
  c.sim.run();
  EXPECT_TRUE(done);
}

TEST(RegisterDesTest, StrictQuorumsAreRegular) {
  // With a majority system, a completed write is always visible.
  quorum::MajorityQuorums qs(7);
  Cluster c(7, 2, qs);
  bool done = false;
  c.clients[0]->write(0, val(5), [&](Timestamp) {
    c.clients[1]->read(0, [&](ReadResult r) {
      EXPECT_EQ(r.ts, 1u);
      EXPECT_EQ(util::decode<std::int64_t>(r.value), 5);
      done = true;
    });
  });
  c.sim.run();
  EXPECT_TRUE(done);
  auto result = spec::check_regular(c.history.ops());
  EXPECT_TRUE(result.ok) << result.violations.front();
}

TEST(RegisterDesTest, TinyQuorumsCanReturnStaleValues) {
  // k = 1 on 30 servers: a reader right after a write almost surely misses.
  quorum::ProbabilisticQuorums qs(30, 1);
  Cluster c(30, 2, qs);
  for (auto& s : c.servers) s->replica().preload(0, val(0));
  c.history.record_initial(0);
  int stale_reads = 0;
  int total_reads = 0;
  std::function<void(int)> rounds = [&](int remaining) {
    if (remaining == 0) return;
    c.clients[0]->write(0, val(remaining), [&, remaining](Timestamp ts) {
      c.clients[1]->read(0, [&, ts, remaining](ReadResult r) {
        ++total_reads;
        if (r.ts < ts) ++stale_reads;
        rounds(remaining - 1);
      });
    });
  };
  rounds(40);
  c.sim.run();
  EXPECT_EQ(total_reads, 40);
  EXPECT_GT(stale_reads, 20) << "k=1 should miss most of the time";
  // ...but [R2] still holds: stale values were genuinely written.
  auto r2 = spec::check_r2(c.history.ops());
  EXPECT_TRUE(r2.ok) << r2.violations.front();
}

TEST(RegisterDesTest, MonotoneClientNeverGoesBackwards) {
  quorum::ProbabilisticQuorums qs(30, 2);
  ClientOptions options;
  options.monotone = true;
  Cluster c(30, 2, qs, options, /*synchronous=*/false, /*seed=*/7);
  for (auto& s : c.servers) s->replica().preload(0, val(0));
  c.history.record_initial(0);
  Timestamp last_seen = 0;
  std::function<void(int)> loop = [&](int remaining) {
    if (remaining == 0) return;
    c.clients[0]->write(0, val(remaining), [&, remaining](Timestamp) {
      c.clients[1]->read(0, [&, remaining](ReadResult r) {
        EXPECT_GE(r.ts, last_seen) << "[R4] violated";
        last_seen = r.ts;
        loop(remaining - 1);
      });
    });
  };
  loop(60);
  c.sim.run();
  auto result = spec::check_random_register(c.history.ops(), true);
  EXPECT_TRUE(result.ok) << result.violations.front();
  EXPECT_GT(c.clients[1]->counters().monotone_cache_hits, 0u);
}

TEST(RegisterDesTest, NonMonotoneClientDoesGoBackwards) {
  quorum::ProbabilisticQuorums qs(30, 2);
  Cluster c(30, 2, qs, {}, /*synchronous=*/false, /*seed=*/7);
  for (auto& s : c.servers) s->replica().preload(0, val(0));
  c.history.record_initial(0);
  bool went_backwards = false;
  Timestamp last_seen = 0;
  std::function<void(int)> loop = [&](int remaining) {
    if (remaining == 0) return;
    c.clients[0]->write(0, val(remaining), [&, remaining](Timestamp) {
      c.clients[1]->read(0, [&, remaining](ReadResult r) {
        if (r.ts < last_seen) went_backwards = true;
        last_seen = r.ts;
        loop(remaining - 1);
      });
    });
  };
  loop(60);
  c.sim.run();
  EXPECT_TRUE(went_backwards)
      << "without the monotone cache, k=2 of 30 must regress eventually";
  auto r4 = spec::check_r4(c.history.ops());
  EXPECT_FALSE(r4.ok);
}

TEST(RegisterDesTest, ParallelReadsOfDistinctRegistersComplete) {
  quorum::ProbabilisticQuorums qs(10, 3);
  Cluster c(10, 1, qs);
  for (RegisterId reg = 0; reg < 8; ++reg) {
    for (auto& s : c.servers) s->replica().preload(reg, val(reg * 10));
    c.history.record_initial(reg);
  }
  int completed = 0;
  for (RegisterId reg = 0; reg < 8; ++reg) {
    c.clients[0]->read(reg, [&completed, reg](ReadResult r) {
      EXPECT_EQ(util::decode<std::int64_t>(r.value),
                static_cast<std::int64_t>(reg) * 10);
      ++completed;
    });
  }
  c.sim.run();
  EXPECT_EQ(completed, 8);
  auto r1 = spec::check_r1(c.history.ops());
  EXPECT_TRUE(r1.ok) << r1.violations.front();
}

TEST(RegisterDesTest, RetryRecoversFromCrashedServers) {
  quorum::ProbabilisticQuorums qs(10, 3);
  ClientOptions options;
  options.retry = RetryPolicy::fixed(10.0);
  Cluster c(10, 1, qs, options);
  // Crash 6 of 10 servers; 4 alive >= k = 3, so retries eventually find a
  // live quorum.
  for (net::NodeId s = 0; s < 6; ++s) c.transport.faults().crash(s);
  bool done = false;
  c.clients[0]->write(0, val(1), [&](Timestamp) {
    c.clients[0]->read(0, [&](ReadResult r) {
      EXPECT_EQ(r.ts, 1u);
      done = true;
    });
  });
  c.sim.run();
  EXPECT_TRUE(done);
  EXPECT_GT(c.clients[0]->counters().retries, 0u);
}

TEST(RegisterDesTest, WithoutRetriesCrashedQuorumStalls) {
  quorum::ProbabilisticQuorums qs(10, 3);
  Cluster c(10, 1, qs);
  for (net::NodeId s = 0; s < 8; ++s) c.transport.faults().crash(s);
  bool done = false;
  c.clients[0]->write(0, val(1), [&](Timestamp) { done = true; });
  c.sim.run();
  EXPECT_FALSE(done) << "2 live servers cannot form a 3-quorum";
  auto r1 = spec::check_r1(c.history.ops());
  EXPECT_FALSE(r1.ok);  // the incomplete execution shows up in [R1]
}

TEST(RegisterDesTest, DeterministicGivenSeed) {
  auto run = [](std::uint64_t seed) {
    quorum::ProbabilisticQuorums qs(20, 4);
    Cluster c(20, 2, qs, {}, /*synchronous=*/false, seed);
    for (auto& s : c.servers) s->replica().preload(0, val(0));
    std::vector<Timestamp> observed;
    std::function<void(int)> loop = [&](int remaining) {
      if (remaining == 0) return;
      c.clients[0]->write(0, val(remaining), [&, remaining](Timestamp) {
        c.clients[1]->read(0, [&, remaining](ReadResult r) {
          observed.push_back(r.ts);
          loop(remaining - 1);
        });
      });
    };
    loop(30);
    c.sim.run();
    return observed;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

}  // namespace
}  // namespace pqra::core
