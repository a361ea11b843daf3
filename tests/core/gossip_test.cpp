#include <gtest/gtest.h>

#include <memory>

#include "apps/apsp.hpp"
#include "apps/graph.hpp"
#include "core/quorum_register_client.hpp"
#include "core/server_process.hpp"
#include "iter/alg1_des.hpp"
#include "net/sim_transport.hpp"
#include "quorum/probabilistic.hpp"
#include "util/codec.hpp"

namespace pqra::core {
namespace {

Value val(std::int64_t x) { return util::encode(x); }

TEST(ReplicaStoreTest, EncodeMergeRoundTrip) {
  Replica a;
  a.handle(net::Message::write_req(0, 1, 3, val(30)));
  a.handle(net::Message::write_req(5, 2, 7, val(70)));
  Replica b;
  EXPECT_EQ(b.merge_store(a.encode_store()), 2u);
  EXPECT_EQ(b.get(0)->ts, 3u);
  EXPECT_EQ(util::decode<std::int64_t>(b.get(5)->value), 70);
  // Merging again changes nothing.
  EXPECT_EQ(b.merge_store(a.encode_store()), 0u);
}

TEST(ReplicaStoreTest, MergeKeepsNewerLocalState) {
  Replica a, b;
  a.handle(net::Message::write_req(0, 1, 2, val(2)));
  b.handle(net::Message::write_req(0, 1, 5, val(5)));
  EXPECT_EQ(b.merge_store(a.encode_store()), 0u);
  EXPECT_EQ(b.get(0)->ts, 5u);
  EXPECT_EQ(a.merge_store(b.encode_store()), 1u);
  EXPECT_EQ(a.get(0)->ts, 5u);
}

TEST(ReplicaStoreTest, MergeRejectsCorruptedPayload) {
  Replica a;
  a.handle(net::Message::write_req(0, 1, 1, val(1)));
  Value enc = a.encode_store();
  enc.mutable_bytes().pop_back();
  Replica b;
  EXPECT_THROW(b.merge_store(enc), std::logic_error);
}

TEST(GossipTest, SpreadsAWriteToEveryReplicaWithoutReads) {
  const std::size_t n = 12;
  sim::Simulator sim;
  auto delay = sim::make_constant_delay(1.0);
  net::SimTransport transport(sim, *delay, util::Rng(1),
                              static_cast<net::NodeId>(n + 1));
  GossipOptions gossip;
  gossip.interval = 2.0;
  gossip.group_size = n;
  std::vector<std::unique_ptr<ServerProcess>> servers;
  for (std::size_t s = 0; s < n; ++s) {
    servers.push_back(std::make_unique<ServerProcess>(
        transport, static_cast<net::NodeId>(s), sim, gossip, util::Rng(7)));
  }
  quorum::ProbabilisticQuorums qs(n, 1);  // the write touches ONE replica
  QuorumRegisterClient writer(sim, transport, n, qs, util::Rng(3));
  writer.write(0, val(42), [](Timestamp) {});
  // Push-gossip doubles coverage roughly every interval: by t=60 all 12
  // replicas should hold the value.
  sim.run_until(60.0);
  std::size_t holders = 0;
  for (const auto& s : servers) {
    const TimestampedValue* tv = s->replica().get(0);
    if (tv != nullptr && tv->ts == 1) ++holders;
  }
  EXPECT_EQ(holders, n);
  std::uint64_t merges = 0;
  for (const auto& s : servers) merges += s->gossip_merges();
  EXPECT_GE(merges, n - 1);
}

TEST(GossipTest, GossipMessagesAreCountedSeparately) {
  const std::size_t n = 4;
  sim::Simulator sim;
  auto delay = sim::make_constant_delay(1.0);
  net::SimTransport transport(sim, *delay, util::Rng(1),
                              static_cast<net::NodeId>(n));
  GossipOptions gossip;
  gossip.interval = 1.0;
  gossip.group_size = n;
  std::vector<std::unique_ptr<ServerProcess>> servers;
  for (std::size_t s = 0; s < n; ++s) {
    servers.push_back(std::make_unique<ServerProcess>(
        transport, static_cast<net::NodeId>(s), sim, gossip, util::Rng(5)));
  }
  sim.run_until(10.0);
  auto stats = transport.stats();
  EXPECT_GT(stats.by_type[static_cast<int>(net::MsgType::kGossip)], 0u);
  EXPECT_EQ(stats.by_type[static_cast<int>(net::MsgType::kReadReq)], 0u);
}

TEST(GossipTest, AcceleratesTinyQuorumConvergence) {
  apps::Graph g = apps::make_chain(10);
  apps::ApspOperator op(g);
  quorum::ProbabilisticQuorums qs(10, 1);
  iter::Alg1Options options;
  options.quorums = &qs;
  options.seed = 5;
  options.round_cap = 5000;
  iter::Alg1Result plain = iter::run_alg1(op, options);
  options.gossip_interval = 2.0;
  iter::Alg1Result gossip = iter::run_alg1(op, options);
  ASSERT_TRUE(plain.converged);
  ASSERT_TRUE(gossip.converged);
  EXPECT_LT(gossip.rounds, plain.rounds)
      << "anti-entropy should rescue k=1 quorums";
}

TEST(GossipTest, RequiresSaneGroup) {
  sim::Simulator sim;
  auto delay = sim::make_constant_delay(1.0);
  net::SimTransport transport(sim, *delay, util::Rng(1), 2);
  GossipOptions gossip;
  gossip.interval = 1.0;
  gossip.group_size = 1;  // nobody to talk to
  EXPECT_THROW(ServerProcess(transport, 0, sim, gossip, util::Rng(1)),
               std::logic_error);
}

}  // namespace
}  // namespace pqra::core
