#pragma once

/// \file sharded_store.hpp
/// Client facade of the sharded multi-key register store.
///
/// A ShardedStoreClient is the paper's probabilistic-quorum register client
/// run independently per key (docs/SHARDING.md): get/put on KeyId k resolve
/// k's n-replica group through the consistent-hash ring and run §4's
/// read/write protocol against a quorum sampled *inside that group*.  All
/// per-register client state — writer timestamp, the §6.2 monotone cache,
/// staleness tracking — is QuorumRegisterClient's one record per register
/// (core::KeyState), and a key IS a register (net::KeyId), so the facade
/// adds only the ring resolution (via ClientOptions::ring), the
/// single-writer-per-key discipline, and store-level metrics.
///
/// experiment_cli and pqra_explore build their store runs through the store
/// harness (src/harness/store_harness.hpp), which sets ClientOptions::ring
/// on a plain client; this facade remains for pqra_bench's own store.
///
/// ε-intersection is a *per-key* guarantee in this regime: two quorums of
/// size k drawn from the same n-member group intersect with the usual
/// probability bound over n = group size, independent of cluster size or of
/// any other key's traffic (docs/SHARDING.md works the numbers).

#include <cstddef>

#include "core/keyspace/hash_ring.hpp"
#include "core/quorum_register_client.hpp"

namespace pqra::core::keyspace {

struct ShardedStoreOptions {
  /// Per-key protocol options.  `ring` is set by the store constructor;
  /// metrics/trace/spans/retry/monotone/read_repair pass through to the
  /// underlying client unchanged.
  ClientOptions client;
};

class ShardedStoreClient {
 public:
  /// \p ring must outlive the store; \p quorums must be sized to one
  /// replica group (quorums.num_servers() == replicas per key <=
  /// ring.num_nodes(), which QuorumRegisterClient checks).
  ShardedStoreClient(sim::Simulator& simulator, net::Transport& transport,
                     NodeId self, const HashRing& ring,
                     const quorum::QuorumSystem& quorums, const util::Rng& rng,
                     ShardedStoreOptions options = {},
                     spec::HistoryRecorder* history = nullptr);

  /// Reads key \p key through a quorum of its replica group.
  void get(KeyId key, QuorumRegisterClient::ReadCallback cb);

  /// Writes key \p key.  This client must be the key's only writer
  /// (single-writer-per-key ownership; the workload layer assigns keys to
  /// writers, e.g. key % num_clients in pqra_bench's store).
  void put(KeyId key, Value value, QuorumRegisterClient::WriteCallback cb);

  /// Distinct keys this client has touched (gets + puts).
  std::size_t keys_touched() const { return client_.keys_touched(); }

  const ClientCounters& counters() const { return client_.counters(); }
  NodeId id() const { return client_.id(); }

 private:
  obs::Counter* gets_ = nullptr;
  obs::Counter* puts_ = nullptr;
  obs::Gauge* keys_gauge_ = nullptr;
  QuorumRegisterClient client_;
};

}  // namespace pqra::core::keyspace
