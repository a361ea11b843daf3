#pragma once

/// \file store_harness.hpp
/// One assembly of the paper's probabilistic-quorum register (§4, monotone
/// per §6.2) run as a multi-key store under crash and recovery
/// (docs/SHARDING.md, docs/DURABILITY.md).
///
///   - StoreCluster owns servers [0, n) on a caller's simulator and
///     transport: their shared default initial value, optional gossip,
///     optional durable storage, and the one recovery rule applied on every
///     crashed -> up transition.  experiment_cli app=avail builds its
///     servers through it.
///   - StoreRun owns one closed-loop run on a cluster: simulator, transport,
///     ring, clients and the workload.  experiment_cli app=store and
///     pqra_explore's direct workload build through it.
///
/// RNG streams, forked from the run's master seed: transport 10 (StoreRun),
/// gossip 200+s, disks 300+s, clients 500+i, workload loops 900+i.  fork()
/// is const, so a stream a run does not use leaves every other draw alone.

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "core/keyspace/hash_ring.hpp"
#include "core/quorum_register_client.hpp"
#include "core/server_process.hpp"
#include "core/spec/history.hpp"
#include "net/fault_plan.hpp"
#include "net/sim_transport.hpp"
#include "quorum/probabilistic.hpp"
#include "sim/delay_model.hpp"
#include "storage/durable_store.hpp"
#include "storage/mem_disk.hpp"
#include "util/codec.hpp"
#include "util/zipf.hpp"

namespace pqra::harness {

/// What a server does with its store when it comes back up — the
/// crash-prone server model of Imbs–Mostéfaoui–Perrin–Raynal, written down
/// once (docs/DURABILITY.md).
enum class Recovery {
  kMemory,   ///< the store survives; a crash only severs the network
  kAmnesia,  ///< the store is lost; reads answer the default initial value
  kWal,      ///< a MemDisk-backed DurableStore replays its durable prefix
};

struct ClusterOptions {
  std::size_t servers = 16;
  /// Anti-entropy period; 0 disables gossip.
  sim::Time gossip_interval = 0.0;
  Recovery recovery = Recovery::kMemory;
  /// WAL appends between checkpoints under kWal; 0 = never checkpoint.
  std::size_t snapshot_every = 64;
  /// Every server's default initial value: what a key reads as (at ts 0)
  /// before its first write.
  core::Value initial = util::encode<std::int64_t>(0);
  /// Server, storage, transport, client and store metrics; may be null.
  obs::Registry* metrics = nullptr;
};

/// Servers [0, servers) of one run.  The cluster is the fault injector's
/// lifecycle listener from construction until its destructor detaches it.
class StoreCluster final : public net::NodeLifecycleListener {
 public:
  /// Builds the servers on \p transport; under kWal attaches a MemDisk
  /// (stream 300+s of \p master) and a DurableStore to each and checkpoints
  /// it.  Gossip draws from stream 200+s.
  StoreCluster(sim::Simulator& simulator, net::SimTransport& transport,
               const util::Rng& master, const ClusterOptions& options);
  ~StoreCluster();
  StoreCluster(const StoreCluster&) = delete;
  StoreCluster& operator=(const StoreCluster&) = delete;

  void on_recover(net::NodeId node) override { recover(node); }

  /// Applies the recovery rule to \p node; a client node has no store.
  /// Callers that replace the listener (pqra_explore's recovery oracle)
  /// call it from their own on_recover.
  void recover(net::NodeId node);

  /// At \p at every server recovers and leaves the slow set, partitions
  /// heal and message faults clear, so pending operations can complete and
  /// [R1] stays checkable.
  void heal_at(sim::Time at);

  /// Adds the storage layer's totals to the metrics registry under kWal:
  /// the pqra_wal_*, pqra_snapshot_* and pqra_storage_* counters.
  void publish_storage() const;

  std::size_t size() const { return servers_.size(); }
  core::ServerProcess& server(std::size_t s) { return servers_[s]; }
  /// Only under kWal.
  storage::MemDisk& disk(std::size_t s) { return disks_[s]; }
  storage::DurableStore& durable(std::size_t s) { return stores_[s]; }

 private:
  sim::Simulator& simulator_;
  net::SimTransport& transport_;
  Recovery recovery_;
  obs::Registry* metrics_;
  std::deque<core::ServerProcess> servers_;
  std::deque<storage::MemDisk> disks_;
  std::deque<storage::DurableStore> stores_;
};

/// Mean length of one churn_plan up-and-down cycle, so a plan holds about
/// servers * horizon / kChurnCycle outages.
inline constexpr sim::Time kChurnCycle = 400.0;

/// Server churn as a downtime fraction: each server alternates exponential
/// up and down periods that split a kChurnCycle cycle d : (1 - d), until
/// \p horizon.  Down periods are long next to an operation deadline, which
/// starves strict majorities while probabilistic quorums keep finding k
/// live servers.  Draws from a stream of its own, derived from \p seed.
net::FaultPlan churn_plan(std::size_t servers, double downtime,
                          sim::Time horizon, std::uint64_t seed);

/// The retry policy every store client runs: a 6-unit attempt timeout,
/// backoff x1.5 capped at 24, 10% jitter, no deadline.
core::RetryPolicy store_retry();

struct RunOptions {
  ClusterOptions cluster;
  /// Replica-group size on a consistent-hash ring; 0 = every server holds
  /// every key, and quorum ids are server ids.
  std::size_t replicas = 3;
  std::size_t vnodes = 16;
  /// Quorum size k.
  std::size_t quorum = 2;
  std::size_t clients = 4;
  /// Operations per client.
  std::size_t ops = 100;
  /// Client i owns keys slot * clients + i, slot in [0, keys_per_client).
  std::size_t keys_per_client = 1;
  /// > 1: a client also puts the keys of the next w - 1 clients.
  std::size_t writers_per_key = 1;
  bool monotone = true;
  bool read_repair = false;
  bool write_back = false;
  /// 30% of the reads read every key (full replication only).
  bool snapshot_reads = false;
  /// Read-key distribution over the whole keyspace; null = uniform.  Must
  /// outlive the run; draw() is const, so runs may share one.
  const util::Zipfian* zipf = nullptr;
  sim::DelaySpec delay{sim::DelaySpec::Kind::kExponential, 1.0};
  /// Faults live in [0, horizon]; install() heals the cluster there.
  sim::Time horizon = 600.0;
  /// The clients' and the servers' causal spans; null = none.
  obs::SpanSink* spans = nullptr;
};

/// One closed-loop store run: clients [servers, servers + clients) against
/// a StoreCluster, every key reading as the cluster's initial value until
/// its first put, every operation recorded for the spec checkers.
class StoreRun {
 public:
  StoreRun(std::uint64_t seed, const RunOptions& options);
  StoreRun(const StoreRun&) = delete;
  StoreRun& operator=(const StoreRun&) = delete;

  /// \p plan with each key target replaced by its key's primary server:
  /// the ring primary, or key % servers without a ring — the same rule the
  /// clients route by.  Lets a caller check a plan before any run starts.
  static net::FaultPlan resolve_keys(const net::FaultPlan& plan,
                                     const RunOptions& options);

  /// Installs \p plan (key targets resolved), then schedules the horizon
  /// heal, so plan events at the horizon fire first.
  void install(const net::FaultPlan& plan);

  /// Starts one closed loop per client and runs to horizon + 1000 +
  /// 60 * ops, then adds the store counters and the storage totals to the
  /// metrics registry.  Each loop thinks U(0, 2), then issues one operation
  /// (one at a time: condition (3) of §3) until `ops` have settled.
  void run_workload();

  sim::Simulator& simulator() { return simulator_; }
  net::SimTransport& transport() { return transport_; }
  StoreCluster& cluster() { return cluster_; }
  core::spec::HistoryRecorder& history() { return history_; }
  /// Distinct keys touched, summed over clients.
  std::size_t keys_touched() const;

 private:
  /// One client's loop state; its draws come from stream 900+i.
  struct Loop {
    util::Rng rng;
    std::size_t remaining = 0;
    std::int64_t next_value = 0;
  };

  void think(std::size_t i);
  void issue(std::size_t i);

  RunOptions options_;
  util::Rng master_;
  sim::Simulator simulator_;
  std::unique_ptr<sim::DelayModel> delays_;
  net::SimTransport transport_;
  StoreCluster cluster_;
  std::optional<core::keyspace::HashRing> ring_;
  quorum::ProbabilisticQuorums quorums_;
  core::spec::HistoryRecorder history_;
  std::deque<core::QuorumRegisterClient> clients_;
  std::vector<Loop> loops_;
  std::uint64_t gets_ = 0;
  std::uint64_t puts_ = 0;
};

}  // namespace pqra::harness
