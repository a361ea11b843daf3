#include "harness/store_harness.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "obs/names.hpp"

namespace pqra::harness {

namespace {

/// The run's ring over servers [0, servers), or none at replicas = 0.
std::optional<core::keyspace::HashRing> ring_for(const RunOptions& options) {
  if (options.replicas == 0) return std::nullopt;
  std::optional<core::keyspace::HashRing> ring(std::in_place, options.vnodes);
  for (std::size_t s = 0; s < options.cluster.servers; ++s) {
    ring->add_node(static_cast<net::NodeId>(s));
  }
  return ring;
}

}  // namespace

StoreCluster::StoreCluster(sim::Simulator& simulator,
                           net::SimTransport& transport,
                           const util::Rng& master,
                           const ClusterOptions& options)
    : simulator_(simulator),
      transport_(transport),
      recovery_(options.recovery),
      metrics_(options.metrics) {
  for (std::size_t s = 0; s < options.servers; ++s) {
    const auto id = static_cast<net::NodeId>(s);
    if (options.gossip_interval > 0.0) {
      core::GossipOptions gossip;
      gossip.interval = options.gossip_interval;
      gossip.group_size = options.servers;
      servers_.emplace_back(transport, id, simulator, gossip,
                            master.fork(200 + s), metrics_);
    } else {
      servers_.emplace_back(transport, id, metrics_);
    }
    core::Replica& replica = servers_.back().replica();
    replica.set_default_initial(options.initial);
    if (recovery_ == Recovery::kWal) {
      // The disk's stream is drawn only when a torn write picks its tear,
      // so fault-free durable runs keep their non-durable twins' schedule.
      disks_.emplace_back(id, &transport.faults(), master.fork(300 + s));
      const storage::DurableStore::Options durable{options.snapshot_every};
      stores_.emplace_back(disks_.back(), durable);
      stores_.back().attach(replica);
      stores_.back().checkpoint();
    }
  }
  transport_.faults().set_lifecycle_listener(this);
}

StoreCluster::~StoreCluster() {
  transport_.faults().set_lifecycle_listener(nullptr);
}

void StoreCluster::recover(net::NodeId node) {
  if (node >= servers_.size()) return;
  switch (recovery_) {
    case Recovery::kMemory:
      break;
    case Recovery::kAmnesia:
      servers_[node].replica().reset_store();
      break;
    case Recovery::kWal:
      disks_[node].drop_volatile();
      stores_[node].recover();
      break;
  }
}

void StoreCluster::heal_at(sim::Time at) {
  simulator_.schedule_at(at, sim::EventTag::kFault, [this] {
    net::FaultInjector& inj = transport_.faults();
    for (std::size_t s = 0; s < servers_.size(); ++s) {
      inj.recover(static_cast<net::NodeId>(s));
      inj.clear_slow(static_cast<net::NodeId>(s));
    }
    inj.heal();
    inj.set_message_faults(net::MessageFaults{});
  });
}

void StoreCluster::publish_storage() const {
  if (metrics_ == nullptr || recovery_ != Recovery::kWal) return;
  namespace names = obs::names;
  obs::Registry& m = *metrics_;
  for (const storage::MemDisk& disk : disks_) {
    const storage::MemDisk::Counters& c = disk.counters();
    m.counter(names::kWalAppends, "WAL records appended").inc(c.appends);
    m.counter(names::kWalAppendBytes, "WAL bytes appended").inc(c.append_bytes);
    m.counter(names::kWalSyncs, "WAL sync calls").inc(c.syncs);
    m.counter(names::kWalLostSyncs, "WAL syncs lost to injection")
        .inc(c.lost_syncs);
    m.counter(names::kWalTornSyncs, "WAL syncs torn by injection")
        .inc(c.torn_syncs);
    m.counter(names::kSnapshotInstalls, "Snapshot images installed")
        .inc(c.snapshot_installs);
  }
  for (const storage::DurableStore& store : stores_) {
    const storage::DurableStore::Counters& c = store.counters();
    m.counter(names::kStorageRecoveries, "Durable store recoveries")
        .inc(c.recoveries);
    m.counter(names::kSnapshotLoads, "Snapshots loaded on recovery")
        .inc(c.snapshot_loads);
    m.counter(names::kWalReplayedRecords, "WAL records replayed")
        .inc(c.replayed_records);
    m.counter(names::kWalTornDropped, "Torn WAL tails discarded")
        .inc(c.torn_tails_dropped);
  }
}

net::FaultPlan churn_plan(std::size_t servers, double downtime,
                          sim::Time horizon, std::uint64_t seed) {
  util::Rng rng(seed * 1000003 + 17);
  return net::FaultPlan::random_churn(servers, horizon,
                                      kChurnCycle * (1.0 - downtime),
                                      kChurnCycle * downtime, rng);
}

core::RetryPolicy store_retry() {
  core::RetryPolicy retry;
  retry.rpc_timeout = 6.0;
  retry.backoff_factor = 1.5;
  retry.max_backoff = 24.0;
  retry.jitter = 0.1;
  return retry;
}

StoreRun::StoreRun(std::uint64_t seed, const RunOptions& options)
    : options_(options),
      master_(seed),
      delays_(options.delay.make()),
      transport_(simulator_, *delays_, master_.fork(10),
                 static_cast<net::NodeId>(options.cluster.servers +
                                          options.clients)),
      cluster_(simulator_, transport_, master_, options.cluster),
      ring_(ring_for(options)),
      quorums_(options.replicas > 0 ? options.replicas
                                    : options.cluster.servers,
               options.quorum) {
  obs::Registry* metrics = options.cluster.metrics;
  if (metrics != nullptr) {
    transport_.bind_metrics(*metrics);
    transport_.faults().bind_metrics(*metrics);
  }

  // Only written keys get store entries; pre-size each store for its
  // expected share so writes do not pay a rehash chain per replica.
  const std::size_t keys = options.keys_per_client * options.clients;
  const std::size_t expected_writes =
      std::min(keys, options.clients * options.ops);
  const std::size_t per_server =
      expected_writes * std::max<std::size_t>(options.replicas, 1) /
          std::max<std::size_t>(options.cluster.servers, 1) +
      16;
  for (std::size_t s = 0; s < cluster_.size(); ++s) {
    cluster_.server(s).replica().reserve(per_server);
    // Each traced RPC gets its server_handle child in the clients' sink.
    cluster_.server(s).bind_spans(options.spans, simulator_);
  }
  history_.reserve(keys + 4 * options.clients * options.ops);
  for (std::size_t key = 0; key < keys; ++key) {
    history_.record_initial(static_cast<net::KeyId>(key));
  }

  core::ClientOptions copts;
  copts.monotone = options.monotone;
  copts.read_repair = options.read_repair;
  copts.write_back = options.write_back;
  copts.metrics = metrics;
  copts.spans = options.spans;
  copts.retry = store_retry();
  if (ring_) copts.ring = &*ring_;
  for (std::size_t i = 0; i < options.clients; ++i) {
    clients_.emplace_back(
        simulator_, transport_,
        static_cast<net::NodeId>(options.cluster.servers + i), quorums_,
        master_.fork(500 + i), copts, &history_);
    loops_.push_back(Loop{master_.fork(900 + i), options.ops});
  }
}

net::FaultPlan StoreRun::resolve_keys(const net::FaultPlan& plan,
                                      const RunOptions& options) {
  if (!plan.has_key_targets()) return plan;
  const std::optional<core::keyspace::HashRing> ring = ring_for(options);
  return plan.resolve_keys([&](net::KeyId key) {
    return ring ? ring->primary(key)
                : static_cast<net::NodeId>(key % options.cluster.servers);
  });
}

void StoreRun::install(const net::FaultPlan& plan) {
  resolve_keys(plan, options_).install(simulator_, transport_);
  cluster_.heal_at(options_.horizon);
}

void StoreRun::think(std::size_t i) {
  Loop& loop = loops_[i];
  if (loop.remaining == 0) return;
  --loop.remaining;
  simulator_.schedule_in(loop.rng.uniform01() * 2.0, sim::EventTag::kWorkload,
                         [this, i] { issue(i); });
}

// One operation: with probability 0.4 a put, else a read — of every key for
// 30% of the reads under snapshot_reads, else of one key.
void StoreRun::issue(std::size_t i) {
  Loop& loop = loops_[i];
  const std::size_t clients = options_.clients;
  const std::size_t per_client = options_.keys_per_client;
  if (loop.rng.bernoulli(0.4)) {
    // A put on an owned key: slot * clients + owner, where the owner is this
    // client or, with contended keys, one of the next w - 1.
    const std::size_t slot =
        per_client > 1 ? static_cast<std::size_t>(loop.rng.below(per_client))
                       : 0;
    const std::size_t writers = options_.writers_per_key;
    std::size_t owner = i;
    if (writers > 1) {
      owner = (i + static_cast<std::size_t>(loop.rng.below(writers))) % clients;
    }
    ++puts_;
    clients_[i].write(static_cast<net::KeyId>(slot * clients + owner),
                      util::encode(++loop.next_value),
                      [this, i](core::Timestamp) { think(i); });
  } else if (options_.snapshot_reads && loop.rng.bernoulli(0.3)) {
    std::vector<core::RegisterId> keys(per_client * clients);
    for (std::size_t k = 0; k < keys.size(); ++k) {
      keys[k] = static_cast<core::RegisterId>(k);
    }
    ++gets_;
    clients_[i].read_snapshot(std::move(keys),
                              [this, i](std::vector<core::ReadResult>) {
                                think(i);
                              });
  } else {
    const std::uint64_t key = options_.zipf != nullptr
                                  ? options_.zipf->draw(loop.rng)
                                  : loop.rng.below(per_client * clients);
    ++gets_;
    clients_[i].read(static_cast<net::KeyId>(key),
                     [this, i](core::ReadResult) { think(i); });
  }
}

void StoreRun::run_workload() {
  for (std::size_t i = 0; i < loops_.size(); ++i) think(i);
  simulator_.run_until(options_.horizon + 1000.0 +
                       60.0 * static_cast<double>(options_.ops));

  obs::Registry* metrics = options_.cluster.metrics;
  if (metrics == nullptr) return;
  namespace names = obs::names;
  metrics->counter(names::kStoreGets, "Sharded-store gets started").inc(gets_);
  metrics->counter(names::kStorePuts, "Sharded-store puts started").inc(puts_);
  // Shards merge with kSum: the aggregate is the total over (run, client)
  // pairs, deterministic in any merge order.
  metrics
      ->gauge(names::kStoreKeysTouched,
              "Distinct keys touched, summed over clients",
              obs::GaugeMerge::kSum)
      .add(static_cast<double>(keys_touched()));
  cluster_.publish_storage();
}

std::size_t StoreRun::keys_touched() const {
  std::size_t total = 0;
  for (const core::QuorumRegisterClient& c : clients_) {
    total += c.keys_touched();
  }
  return total;
}

}  // namespace pqra::harness
