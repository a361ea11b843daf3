/// \file sharded_store_test.cpp
/// ShardedStoreClient's own contract (docs/SHARDING.md): keys_touched() and
/// the pqra_store_keys_touched gauge count distinct keys over gets and
/// puts, and every access resolves the key's replica group through the
/// ring, so a membership edit takes effect on the next operation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "core/keyspace/hash_ring.hpp"
#include "core/keyspace/sharded_store.hpp"
#include "core/server_process.hpp"
#include "net/sim_transport.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "quorum/probabilistic.hpp"
#include "sim/delay_model.hpp"
#include "sim/simulator.hpp"
#include "util/codec.hpp"
#include "util/rng.hpp"

namespace pqra::core::keyspace {
namespace {

constexpr std::size_t kServers = 8;
constexpr std::size_t kReplicas = 3;

/// Eight servers on a ring, clients on the NodeIds after them.
struct Cluster {
  explicit Cluster(std::size_t quorum, std::size_t num_clients = 1)
      : delay(sim::make_exponential_delay(1.0)),
        transport(simulator, *delay, util::Rng(7),
                  static_cast<net::NodeId>(kServers + num_clients)),
        quorums(kReplicas, quorum) {
    for (net::NodeId s = 0; s < kServers; ++s) {
      ring.add_node(s);
      servers.emplace_back(transport, s);
    }
  }

  ShardedStoreClient& add_client(obs::Registry* metrics = nullptr) {
    ShardedStoreOptions options;
    options.client.metrics = metrics;
    const auto self = static_cast<net::NodeId>(kServers + clients.size());
    return clients.emplace_back(simulator, transport, self, ring, quorums,
                                util::Rng(11), options);
  }

  /// Runs one get to completion.
  void get(ShardedStoreClient& client, KeyId key) {
    bool done = false;
    client.get(key, [&done](ReadResult) { done = true; });
    simulator.run();
    ASSERT_TRUE(done);
  }

  /// Runs one put to completion.
  void put(ShardedStoreClient& client, KeyId key, std::int64_t value) {
    bool done = false;
    client.put(key, util::encode(value), [&done](Timestamp) { done = true; });
    simulator.run();
    ASSERT_TRUE(done);
  }

  /// The timestamp server \p s holds for \p key (0 if it holds none).
  Timestamp ts_at(net::NodeId s, KeyId key) {
    const TimestampedValue* held = servers[s].replica().get(key);
    return held == nullptr ? 0 : held->ts;
  }

  sim::Simulator simulator;
  std::unique_ptr<sim::DelayModel> delay;
  net::SimTransport transport;
  HashRing ring;
  quorum::ProbabilisticQuorums quorums;
  std::deque<ServerProcess> servers;
  std::deque<ShardedStoreClient> clients;
};

double keys_gauge(obs::Registry& registry) {
  return registry
      .gauge(obs::names::kStoreKeysTouched, "", obs::GaugeMerge::kSum)
      .value();
}

TEST(ShardedStoreTest, KeysTouchedCountsDistinctKeysOverGetsAndPuts) {
  Cluster cluster(/*quorum=*/2, /*num_clients=*/2);
  obs::Registry registry(obs::Concurrency::kSingleThread);
  ShardedStoreClient& a = cluster.add_client(&registry);
  ShardedStoreClient& b = cluster.add_client(&registry);
  EXPECT_EQ(a.keys_touched(), 0u);

  struct Step {
    bool put;
    KeyId key;
    std::size_t touched_after;
  };
  const Step steps[] = {
      {true, 1, 1},   // put on a fresh key
      {false, 1, 1},  // then a get of the same key
      {false, 2, 2},  // a get of a key nobody wrote
      {false, 2, 2},  // repeated
      {true, 1, 2},   // repeated put
      {true, 3, 3},
      {false, 4, 4},
      {false, 3, 4},
  };
  std::int64_t value = 0;
  for (const Step& step : steps) {
    if (step.put) {
      cluster.put(a, step.key, ++value);
    } else {
      cluster.get(a, step.key);
    }
    EXPECT_EQ(a.keys_touched(), step.touched_after) << "key " << step.key;
    EXPECT_EQ(keys_gauge(registry),
              static_cast<double>(step.touched_after));
  }

  // A second client counts its own keys; the gauge sums over clients.
  cluster.get(b, 1);
  cluster.get(b, 9);
  cluster.get(b, 9);
  EXPECT_EQ(b.keys_touched(), 2u);
  EXPECT_EQ(a.keys_touched(), 4u);
  EXPECT_EQ(keys_gauge(registry), 6.0);
  EXPECT_EQ(registry.counter(obs::names::kStoreGets).value(), 8u);
  EXPECT_EQ(registry.counter(obs::names::kStorePuts).value(), 3u);
}

// Every access resolves the key's group through the ring.  With quorums as
// large as the group (k = n = 3) a put reaches every member, so after a
// member leaves the ring the next put must land on the new group — the
// removed node keeps the old timestamp, the node that joined the group
// gets the new one.  A group memo that outlived the edit would write to
// the removed node instead.
TEST(ShardedStoreTest, PutAfterRingRemovalLandsOnTheNewGroup) {
  Cluster cluster(/*quorum=*/kReplicas);
  ShardedStoreClient& client = cluster.add_client();
  constexpr KeyId kKey = 5;

  std::vector<net::NodeId> old_group;
  cluster.ring.replica_group(kKey, kReplicas, old_group);
  cluster.put(client, kKey, 1);
  cluster.get(client, kKey);  // a second access through the same group
  for (net::NodeId s : old_group) EXPECT_EQ(cluster.ts_at(s, kKey), 1u);

  const net::NodeId removed = old_group[1];
  cluster.ring.remove_node(removed);
  std::vector<net::NodeId> new_group;
  cluster.ring.replica_group(kKey, kReplicas, new_group);
  ASSERT_EQ(std::count(new_group.begin(), new_group.end(), removed), 0);

  cluster.put(client, kKey, 2);
  for (net::NodeId s : new_group) {
    EXPECT_EQ(cluster.ts_at(s, kKey), 2u) << "group member " << s;
  }
  EXPECT_EQ(cluster.ts_at(removed, kKey), 1u)
      << "the put reached the node that left the group";
  for (net::NodeId s = 0; s < kServers; ++s) {
    const bool member =
        std::count(new_group.begin(), new_group.end(), s) > 0;
    if (!member && s != removed) {
      EXPECT_EQ(cluster.ts_at(s, kKey), 0u) << "server " << s;
    }
  }
}

}  // namespace
}  // namespace pqra::core::keyspace
