#include "core/keyspace/sharded_store.hpp"

#include <utility>

#include "obs/names.hpp"

namespace pqra::core::keyspace {

namespace {

ClientOptions with_ring(ClientOptions options, const HashRing& ring) {
  options.ring = &ring;
  return options;
}

}  // namespace

ShardedStoreClient::ShardedStoreClient(sim::Simulator& simulator,
                                       net::Transport& transport, NodeId self,
                                       const HashRing& ring,
                                       const quorum::QuorumSystem& quorums,
                                       const util::Rng& rng,
                                       ShardedStoreOptions options,
                                       spec::HistoryRecorder* history)
    : client_(simulator, transport, self, quorums, /*server_base=*/0, rng,
              with_ring(options.client, ring), history) {
  if (options.client.metrics != nullptr) {
    obs::Registry& reg = *options.client.metrics;
    namespace n = obs::names;
    gets_ = &reg.counter(n::kStoreGets, "Sharded-store gets started");
    puts_ = &reg.counter(n::kStorePuts, "Sharded-store puts started");
    // Shards merge with kSum: each parallel run's registry counts its own
    // clients' distinct keys, and the aggregate reports the total across
    // (run, client) pairs — deterministic in any merge order.
    keys_gauge_ = &reg.gauge(n::kStoreKeysTouched,
                             "Distinct keys touched, summed over clients",
                             obs::GaugeMerge::kSum);
  }
}

void ShardedStoreClient::get(KeyId key, QuorumRegisterClient::ReadCallback cb) {
  if (gets_ != nullptr) gets_->inc();
  const std::size_t before = keys_touched();
  client_.read(key, std::move(cb));
  // The op created the key's client record iff the table grew.
  if (keys_gauge_ != nullptr && keys_touched() != before) keys_gauge_->add(1);
}

void ShardedStoreClient::put(KeyId key, Value value,
                             QuorumRegisterClient::WriteCallback cb) {
  if (puts_ != nullptr) puts_->inc();
  const std::size_t before = keys_touched();
  client_.write(key, std::move(value), std::move(cb));
  if (keys_gauge_ != nullptr && keys_touched() != before) keys_gauge_->add(1);
}

}  // namespace pqra::core::keyspace
