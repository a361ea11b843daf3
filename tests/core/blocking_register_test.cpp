#include "core/blocking_register.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "core/threaded_server.hpp"
#include "quorum/majority.hpp"
#include "quorum/probabilistic.hpp"
#include "util/codec.hpp"

namespace pqra::core {
namespace {

/// n threaded servers + a transport sized for extra client nodes.
struct ThreadedCluster {
  ThreadedCluster(std::size_t n, std::size_t num_clients,
                  std::size_t preload_registers = 0)
      : transport(static_cast<net::NodeId>(n + num_clients)) {
    for (std::size_t s = 0; s < n; ++s) {
      Replica replica;
      for (std::size_t reg = 0; reg < preload_registers; ++reg) {
        replica.preload(static_cast<net::RegisterId>(reg),
                        util::encode<std::int64_t>(0));
      }
      servers.push_back(std::make_unique<ThreadedServer>(
          transport, static_cast<net::NodeId>(s), std::move(replica)));
    }
  }

  ~ThreadedCluster() {
    transport.close();
    servers.clear();
  }

  net::ThreadTransport transport;
  std::vector<std::unique_ptr<ThreadedServer>> servers;
};

TEST(BlockingRegisterTest, WriteThenReadFullQuorum) {
  quorum::ProbabilisticQuorums qs(4, 4);
  ThreadedCluster cluster(4, 1);
  BlockingRegisterClient client(cluster.transport, 4, qs, util::Rng(1));
  auto ts = client.write(0, util::encode<std::int64_t>(77));
  ASSERT_TRUE(ts.has_value());
  EXPECT_EQ(*ts, 1u);
  auto r = client.read(0);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->ts, 1u);
  EXPECT_EQ(util::decode<std::int64_t>(r->value), 77);
}

TEST(BlockingRegisterTest, MajorityQuorumsSeeEveryWrite) {
  quorum::MajorityQuorums qs(5);
  ThreadedCluster cluster(5, 2);
  BlockingRegisterClient writer(cluster.transport, 5, qs, util::Rng(1));
  BlockingRegisterClient reader(cluster.transport, 6, qs, util::Rng(2));
  for (std::int64_t i = 1; i <= 20; ++i) {
    ASSERT_TRUE(writer.write(0, util::encode(i)).has_value());
    auto r = reader.read(0);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->ts, static_cast<Timestamp>(i));
    EXPECT_EQ(util::decode<std::int64_t>(r->value), i);
  }
}

TEST(BlockingRegisterTest, MonotoneReadsNeverRegress) {
  quorum::ProbabilisticQuorums qs(12, 2);
  ThreadedCluster cluster(12, 2, /*preload_registers=*/1);
  std::atomic<bool> done{false};
  std::thread writer_thread([&] {
    BlockingRegisterClient writer(cluster.transport, 12, qs, util::Rng(1));
    for (std::int64_t i = 1; i <= 200; ++i) {
      if (!writer.write(0, util::encode(i)).has_value()) return;
    }
    done = true;
  });
  BlockingRegisterClient reader(cluster.transport, 13, qs, util::Rng(2),
                                /*monotone=*/true);
  Timestamp last = 0;
  while (!done.load()) {
    auto r = reader.read(0);
    ASSERT_TRUE(r.has_value());
    EXPECT_GE(r->ts, last);
    last = r->ts;
  }
  writer_thread.join();
}

TEST(BlockingRegisterTest, ConcurrentReadersAndOneWriter) {
  quorum::MajorityQuorums qs(7);
  constexpr int kReaders = 4;
  ThreadedCluster cluster(7, kReaders + 1, /*preload_registers=*/1);
  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::vector<std::thread> readers;
  for (int i = 0; i < kReaders; ++i) {
    readers.emplace_back([&cluster, &qs, &stop, &violations, i] {
      // Monotone readers: plain regular reads may legitimately regress when
      // read 1 catches a write still in flight (the new/old inversion that
      // atomic write-back or the §6.2 cache removes).
      BlockingRegisterClient reader(cluster.transport,
                                    static_cast<net::NodeId>(8 + i), qs,
                                    util::Rng(10 + i), /*monotone=*/true);
      Timestamp last = 0;
      while (!stop.load()) {
        auto r = reader.read(0);
        if (!r.has_value()) return;
        if (r->ts < last) ++violations;
        last = r->ts;
      }
    });
  }
  BlockingRegisterClient writer(cluster.transport, 7, qs, util::Rng(1));
  for (std::int64_t i = 1; i <= 100; ++i) {
    ASSERT_TRUE(writer.write(0, util::encode(i)).has_value());
  }
  stop = true;
  for (auto& t : readers) t.join();
  EXPECT_EQ(violations.load(), 0);
}

TEST(BlockingRegisterTest, ShutdownUnblocksClient) {
  quorum::ProbabilisticQuorums qs(4, 4);
  auto cluster = std::make_unique<ThreadedCluster>(4, 1);
  std::atomic<bool> got_nullopt{false};
  std::thread t([&] {
    BlockingRegisterClient client(cluster->transport, 4, qs, util::Rng(1));
    // Consume the 4 acks of a normal write, then block on a second op that
    // will never finish because the transport closes.
    (void)client.write(0, util::encode<std::int64_t>(1));
    cluster->transport.close();
    got_nullopt = !client.read(0).has_value();
  });
  t.join();
  EXPECT_TRUE(got_nullopt);
}

TEST(BlockingRegisterTest, TimesOutInsteadOfBlockingOnACrashedQuorum) {
  // Regression for the fault-injection ISSUE: with every server crashed an
  // operation used to block forever; under a deadline policy it must return
  // nullopt with last_status() == kTimedOut.
  quorum::ProbabilisticQuorums qs(4, 2);
  ThreadedCluster cluster(4, 1, /*preload_registers=*/1);
  cluster.transport.with_faults([](net::FaultInjector& faults) {
    for (net::NodeId s = 0; s < 4; ++s) faults.crash(s);
  });

  RetryPolicy retry;
  retry.rpc_timeout = 0.01;
  retry.deadline = 0.05;
  BlockingRegisterClient client(cluster.transport, 4, qs, util::Rng(1),
                                /*monotone=*/false, /*metrics=*/nullptr,
                                retry);
  EXPECT_FALSE(client.read(0).has_value());
  EXPECT_EQ(client.last_status(), OpStatus::kTimedOut);
  EXPECT_FALSE(client.write(0, util::encode<std::int64_t>(1)).has_value());
  EXPECT_EQ(client.last_status(), OpStatus::kTimedOut);
  EXPECT_EQ(client.counters().op_failures, 2u);
  EXPECT_GT(client.counters().retries, 0u);
}

TEST(BlockingRegisterTest, RetriesThroughATransientCrash) {
  quorum::ProbabilisticQuorums qs(3, 3);
  ThreadedCluster cluster(3, 1, /*preload_registers=*/1);
  cluster.transport.with_faults(
      [](net::FaultInjector& faults) { faults.crash(0); });

  RetryPolicy retry;
  retry.rpc_timeout = 0.02;
  retry.backoff_factor = 1.0;
  BlockingRegisterClient client(cluster.transport, 3, qs, util::Rng(1),
                                /*monotone=*/false, /*metrics=*/nullptr,
                                retry);
  std::thread healer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    cluster.transport.with_faults(
        [](net::FaultInjector& faults) { faults.recover(0); });
  });
  // No deadline: the read keeps retrying and completes once node 0 is back.
  auto r = client.read(0);
  healer.join();
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->status, OpStatus::kOk);
  EXPECT_EQ(r->acks, 3u);
  EXPECT_GT(client.counters().retries, 0u);
}

TEST(BlockingRegisterTest, DegradedReadReportsPartialAccessSet) {
  // Only server 0 is alive; a degraded-ok policy settles at the deadline
  // with however many acks accumulated and a nonzero staleness bound.
  quorum::ProbabilisticQuorums qs(4, 3);
  ThreadedCluster cluster(4, 1, /*preload_registers=*/1);
  cluster.transport.with_faults([](net::FaultInjector& faults) {
    for (net::NodeId s = 1; s < 4; ++s) faults.crash(s);
  });

  RetryPolicy retry;
  retry.rpc_timeout = 0.02;
  retry.backoff_factor = 1.0;
  retry.deadline = 0.4;
  retry.degraded_ok = true;
  retry.min_degraded_acks = 1;
  BlockingRegisterClient client(cluster.transport, 4, qs, util::Rng(1),
                                /*monotone=*/false, /*metrics=*/nullptr,
                                retry);
  auto r = client.read(0);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->status, OpStatus::kDegraded);
  EXPECT_EQ(client.last_status(), OpStatus::kDegraded);
  EXPECT_GE(r->acks, 1u);
  EXPECT_LT(r->acks, 3u);
  EXPECT_GT(r->staleness_bound, 0.0);
  EXPECT_LE(r->staleness_bound, 1.0);
}

}  // namespace
}  // namespace pqra::core
