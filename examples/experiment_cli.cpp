/// \file experiment_cli.cpp
/// General experiment driver: pick an application, a graph/instance, a
/// quorum system and an execution mode on the command line, get the §7-style
/// metrics back.  This is the scripting entry point for anything the fixed
/// bench binaries do not cover.
///
///   ./experiment_cli app=apsp graph=chain size=34 quorum=prob k=4
///                    monotone=1 sync=1 runs=3 seed=1
///
/// keys (defaults):
///   app     = apsp | tc | csp | jacobi | agree | avail | store (apsp)
///   graph   = chain | cycle | grid | random | tree    (chain; apsp/tc
///             only; an unknown name exits 2)
///   size    = problem size                            (16)
///   quorum  = prob | majority | grid | fpp | hier | rowa | singleton (prob)
///   k       = probabilistic quorum size               (4)
///   servers = replica count for prob/majority/rowa    (= size)
///   monotone= 0|1 (1)        sync = 0|1 (1)
///   runs    = repetitions (3)   seed = master seed (1)
///   cap     = round cap (20000)
///   churn   = server churn intensity in [0, 1): 0 = off, d in (0,1) = each
///             server is down a fraction d of the time (exponential up/down
///             periods); anything else exits 2 (0)
///   fault-plan = explicit fault schedule (net::FaultPlan::parse grammar,
///             e.g. "crash:2@10;recover:2@50;drop=0.02"); overrides churn.
///             Its nodes are the servers then one client per process; a
///             node id past them or a `k<KEY>` target (app=store only)
///             exits 2 naming the clause
///   jobs    = worker threads for the replication loop (0 = hardware
///             concurrency; default 0).  Runs are independent seeded
///             replications, each with its own simulator and metrics shard,
///             merged in run order — stdout and every exported file are
///             byte-identical for any jobs value (the determinism regression
///             in tests/ enforces this).  Wall-clock timing goes to stderr.
///
/// app=store is the sharded multi-key register store (docs/SHARDING.md): c
/// clients run a mixed get/put workload over a keyspace of `keys` keys
/// (Zipf-skewed reads with theta in [0,1)), each key living on a
/// `replicas`-server consistent-hash group; key-addressed fault targets
/// (`crash:k12@10`) resolve through the ring.  Every run's history is
/// key-partitioned spec-checked (core/spec check_batch_by_key) and runs are
/// independent seeded replications merged in run order, so stdout and every
/// export stay byte-identical across --jobs.  Exit 0 iff every run's
/// checkers pass.
///
///   ./experiment_cli app=store keys=10000 theta=0.8 servers=16 replicas=3
///                    k=2 clients=4 ops=100 runs=3 seed=1 jobs=8
///
/// store keys (defaults): keys (10000), theta (0.8), servers (16),
/// replicas (3; 0 = full replication), k (2), vnodes (16), clients (4),
/// ops per client (100), monotone (1), horizon (600), churn/fault-plan
/// (churn in [0, 1); fault-plan nodes are the servers then the clients),
/// runs (3), seed (1), jobs (0).
///
/// app=avail is the dynamic-availability experiment (ISSUE: churn where
/// probabilistic quorums keep answering while strict majorities stall): one
/// client issues alternating writes/reads under a deadline retry policy
/// against the selected quorum system AND a strict-majority baseline on the
/// same churn schedule, and reports each system's operation success rate
/// plus a stale-read tally (successful reads whose timestamp trails the
/// client's last acked write).  Exit status 0 means the paper's claim held
/// (selected >= 95% success, majority < 50%).
///
/// avail keys: servers (25), k (4), quorum (prob), runs (3), seed (1),
/// churn (0.6; must lie in (0, 1)), horizon (6000), jobs (0), and
/// (docs/DURABILITY.md):
///   recovery = memory | amnesia | wal   (memory; any other name exits 2)
///     memory:  recovering servers keep their in-memory store (the legacy
///              behavior — a crash only severs the network).
///     amnesia: recovering servers come back empty, re-preloaded with the
///              initial value only — the worst case durable storage guards
///              against, surfaced in the stale-read tally.
///     wal:     every server runs a MemDisk-backed DurableStore
///              (WAL + snapshots); recovery replays the durable prefix.
///   snapshot-every = N   WAL appends between checkpoints for recovery=wal
///                        (64; 0 = never checkpoint)
///
/// Observability outputs (all optional; `--key value` and `--key=value`
/// spellings also accepted, so these read naturally as flags):
///   --metrics-out FILE   JSON snapshot of the metrics registry
///   --prom-out FILE      Prometheus text exposition of the same registry
///   --trace-out FILE     run 0's operation history as JSONL
///                        (core::spec::write_history_jsonl): initial values
///                        and still-pending operations included, checked
///                        before it is written by the same rules the CLI
///                        prints
///   --spans-out FILE     JSONL causal spans of run 0 (obs/span.hpp)
///   --spans-chrome-out FILE  run 0's spans as Chrome trace-event JSON (one
///                        "read rN"/"write rN" slice per operation, one lane
///                        per client)
///   --span-sample N      trace every Nth (hashed) operation (default 1 =
///                        all; 0 = none); deterministic in (seed, proc, op)
///   --profile-out FILE   DES self-profiler JSON for run 0 (per-event-tag
///                        fire counts + wall/simulated-time histograms).
///                        Wall times are nondeterministic by nature and go
///                        ONLY to this file; stdout and all other exports
///                        stay byte-identical with or without it.
///
/// Input the selected app does not understand is rejected with exit status
/// 2 before anything runs: an unknown key (`unknown option '<key>'`), a
/// malformed argument, a value that is not a whole number / number where
/// one is expected, a number or name outside a key's range, or a fault plan
/// the run cannot install.

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "apps/apsp.hpp"
#include "apps/approx_agreement.hpp"
#include "apps/csp.hpp"
#include "apps/graph.hpp"
#include "apps/linear.hpp"
#include "apps/transitive_closure.hpp"
#include "core/keyspace/sharded_store.hpp"
#include "core/quorum_register_client.hpp"
#include "core/server_process.hpp"
#include "core/spec/batch.hpp"
#include "core/spec/history.hpp"
#include "iter/alg1_des.hpp"
#include "net/fault_plan.hpp"
#include "net/sim_transport.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "obs/span.hpp"
#include "quorum/fpp.hpp"
#include "quorum/grid.hpp"
#include "quorum/hierarchical.hpp"
#include "quorum/majority.hpp"
#include "quorum/probabilistic.hpp"
#include "quorum/rowa.hpp"
#include "quorum/singleton.hpp"
#include "sim/parallel_runner.hpp"
#include "sim/profiler.hpp"
#include "storage/durable_store.hpp"
#include "storage/mem_disk.hpp"
#include "util/codec.hpp"
#include "util/math.hpp"
#include "util/stats.hpp"
#include "util/zipf.hpp"

using namespace pqra;

namespace {

/// Prints \p message and exits with the usage-error status 2.
[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "%s\n", message.c_str());
  std::exit(2);
}

/// Parses the whole of \p text as a T, or exits 2 naming \p key.
template <typename T>
T parse_value(const std::string& key, const std::string& text,
              const char* expected) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) {
    usage_error("bad value '" + text + "' for " + key + ": expected " +
                expected);
  }
  return value;
}

/// Exits 2: \p value is a number but outside what \p key accepts.
[[noreturn]] void bad_value(const std::string& key, double value,
                            const char* expected) {
  usage_error("bad value '" + util::format_double(value) + "' for " + key +
              ": expected " + expected);
}

class Args {
 public:
  /// Accepts `key=value`, `--key=value` and `--key value` interchangeably.
  Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      while (!arg.empty() && arg.front() == '-') arg.erase(arg.begin());
      auto eq = arg.find('=');
      if (eq != std::string::npos) {
        values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      } else if (i + 1 < argc) {
        values_[arg] = argv[++i];
      } else {
        usage_error("malformed argument '" + arg + "'");
      }
    }
  }

  std::string get(const std::string& key, const std::string& fallback) {
    const std::string* value = find(key);
    return value == nullptr ? fallback : *value;
  }

  std::size_t get_n(const std::string& key, std::size_t fallback) {
    const std::string* value = find(key);
    return value == nullptr
               ? fallback
               : parse_value<std::size_t>(key, *value, "a whole number");
  }

  double get_f(const std::string& key, double fallback) {
    const std::string* value = find(key);
    return value == nullptr ? fallback
                            : parse_value<double>(key, *value, "a number");
  }

  /// Exits 2 naming the first key the selected app never read; call once
  /// the app has read all of its keys, before it runs.
  void reject_unread() const {
    for (const auto& [key, value] : values_) {
      if (!read_.contains(key)) usage_error("unknown option '" + key + "'");
    }
  }

 private:
  /// Marks \p key as one the app understands; nullptr when it is not set.
  const std::string* find(const std::string& key) {
    read_.insert(key);
    auto it = values_.find(key);
    return it == values_.end() ? nullptr : &it->second;
  }

  std::map<std::string, std::string> values_;
  std::set<std::string> read_;
};

apps::Graph make_graph(const std::string& kind, std::size_t size,
                       util::Rng& rng) {
  if (kind == "chain") return apps::make_chain(size);
  if (kind == "cycle") return apps::make_cycle(size);
  if (kind == "grid") {
    std::size_t side = 2;
    while (side * side < size) ++side;
    return apps::make_grid_graph(side, side);
  }
  if (kind == "random") return apps::make_random_gnp(size, 0.3, 1, 9, rng);
  if (kind == "tree") return apps::make_random_tree(size, rng);
  usage_error("bad value '" + kind +
              "' for graph: expected chain | cycle | grid | random | tree");
}

std::unique_ptr<iter::AcoOperator> make_app(const std::string& app,
                                            const std::string& graph_kind,
                                            std::size_t size,
                                            util::Rng& rng) {
  if (app == "apsp") {
    return std::make_unique<apps::ApspOperator>(
        make_graph(graph_kind, size, rng));
  }
  if (app == "tc") {
    return std::make_unique<apps::TransitiveClosureOperator>(
        make_graph(graph_kind, size, rng));
  }
  if (app == "csp") {
    return std::make_unique<apps::ArcConsistencyOperator>(
        apps::make_ordering_csp(size, size + 2));
  }
  if (app == "jacobi") {
    return std::make_unique<apps::JacobiOperator>(
        apps::make_dominant_system(size, 0.7, rng), 1e-8);
  }
  if (app == "agree") {
    std::vector<double> inputs;
    for (std::size_t i = 0; i < size; ++i) {
      inputs.push_back(rng.uniform01() * 100.0);
    }
    return std::make_unique<apps::ApproxAgreementOperator>(std::move(inputs),
                                                           0.01);
  }
  std::fprintf(stderr, "unknown app '%s'\n", app.c_str());
  return nullptr;
}

std::unique_ptr<quorum::QuorumSystem> make_quorums(const std::string& kind,
                                                   std::size_t servers,
                                                   std::size_t k) {
  if (kind == "prob") {
    return std::make_unique<quorum::ProbabilisticQuorums>(servers, k);
  }
  if (kind == "majority") {
    return std::make_unique<quorum::MajorityQuorums>(servers);
  }
  if (kind == "grid") {
    std::size_t side = 2;
    while (side * side < servers) ++side;
    return std::make_unique<quorum::GridQuorums>(side, side);
  }
  if (kind == "fpp") {
    // Smallest prime order with s^2 + s + 1 >= servers.
    std::size_t s = 2;
    while (s * s + s + 1 < servers || !util::is_prime(s)) ++s;
    return std::make_unique<quorum::FppQuorums>(s);
  }
  if (kind == "hier") {
    std::size_t h = 0, n = 1;
    while (n < servers) {
      n *= 3;
      ++h;
    }
    return std::make_unique<quorum::HierarchicalQuorums>(h);
  }
  if (kind == "rowa") return std::make_unique<quorum::ReadOneWriteAll>(servers);
  if (kind == "singleton") {
    return std::make_unique<quorum::SingletonQuorums>(servers);
  }
  std::fprintf(stderr, "unknown quorum system '%s'\n", kind.c_str());
  return nullptr;
}

/// Opens \p path for writing and hands the stream to \p write.  Returns
/// false (with a message) if the file cannot be created.
template <typename WriteFn>
bool write_file(const std::string& path, const char* what, WriteFn write) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for %s output\n", path.c_str(), what);
    return false;
  }
  write(out);
  std::printf("wrote %s to %s\n", what, path.c_str());
  return true;
}

/// Churn as a downtime fraction d: each server alternates exponential up
/// and down periods whose means split an ~80-time-unit cycle d/(1-d), so a
/// server is down a fraction d of the run in expectation.  Down periods are
/// long relative to an operation deadline, which is what starves strict
/// majorities while probabilistic quorums keep finding k live servers.
net::FaultPlan make_churn_plan(std::size_t num_servers, double downtime_frac,
                               double horizon, util::Rng& rng) {
  constexpr double kCycle = 400.0;
  return net::FaultPlan::random_churn(num_servers, horizon,
                                      kCycle * (1.0 - downtime_frac),
                                      kCycle * downtime_frac, rng);
}

/// The retry policy the availability experiment holds every system to: a
/// short per-attempt timeout, exponential backoff, and a hard operation
/// deadline well below typical down-period length.
core::RetryPolicy avail_retry_policy() {
  core::RetryPolicy retry;
  retry.rpc_timeout = 2.0;
  retry.backoff_factor = 1.5;
  retry.max_backoff = 4.0;
  retry.jitter = 0.1;
  retry.deadline = 25.0;
  return retry;
}

struct AvailTally {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  /// Successful reads whose timestamp trails the client's last acked write
  /// — what recovery=amnesia produces and recovery=wal prevents.
  std::uint64_t stale_reads = 0;

  double success_rate() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(ok) /
                                static_cast<double>(attempted);
  }
};

/// Drives one client: alternating write/read on one register, a new
/// operation one time unit after the previous one settles, until the
/// horizon.  Lives on the heap for the simulator's lifetime (callbacks
/// capture `this`).
class AvailLoop {
 public:
  AvailLoop(sim::Simulator& simulator, core::QuorumRegisterClient& client,
            double horizon, AvailTally& tally)
      : simulator_(simulator),
        client_(client),
        horizon_(horizon),
        tally_(tally) {}

  void start() { step(); }

 private:
  void step() {
    if (simulator_.now() >= horizon_) return;
    ++tally_.attempted;
    if (tally_.attempted % 2 == 1) {
      client_.write(0, util::Codec<std::uint64_t>::encode(next_value_++),
                    [this](core::WriteResult r) {
                      if (ok_status(r.status)) last_write_ts_ = r.ts;
                      settle(r.status);
                    });
    } else {
      client_.read(0, [this](core::ReadResult r) {
        // A successful read older than the last acked write is a stale
        // read: under recovery=amnesia a recovering quorum can forget the
        // write entirely, which is exactly what the tally surfaces.
        if (ok_status(r.status) && r.ts < last_write_ts_) {
          ++tally_.stale_reads;
        }
        settle(r.status);
      });
    }
  }

  static bool ok_status(core::OpStatus status) {
    return status == core::OpStatus::kOk ||
           status == core::OpStatus::kDegraded;
  }

  void settle(core::OpStatus status) {
    if (ok_status(status)) {
      ++tally_.ok;
    } else {
      ++tally_.failed;
    }
    simulator_.schedule_in(1.0, [this] { step(); });
  }

  sim::Simulator& simulator_;
  core::QuorumRegisterClient& client_;
  double horizon_;
  AvailTally& tally_;
  std::uint64_t next_value_ = 1;
  core::Timestamp last_write_ts_ = 0;
};

/// What a recovering server does with its store (docs/DURABILITY.md).
enum class AvailRecovery { kMemory, kAmnesia, kWal };

/// Lifecycle hook applying the recovery mode on every crashed->up
/// transition: amnesia resets the store to the initial value only, wal
/// models the crash (drop volatile) and replays the durable prefix.
class AvailRecoveryDriver final : public net::NodeLifecycleListener {
 public:
  AvailRecoveryDriver(AvailRecovery mode,
                      std::vector<std::unique_ptr<core::ServerProcess>>& servers,
                      std::deque<storage::MemDisk>* disks,
                      std::deque<storage::DurableStore>* stores)
      : mode_(mode), servers_(servers), disks_(disks), stores_(stores) {}

  void on_recover(net::NodeId node) override {
    if (node >= servers_.size()) return;  // clients have no store
    core::Replica& replica = servers_[node]->replica();
    switch (mode_) {
      case AvailRecovery::kMemory:
        break;  // the legacy behavior: the store survives the crash
      case AvailRecovery::kAmnesia:
        replica.reset_store();
        replica.restore_entry(0, 0, net::Value{});
        break;
      case AvailRecovery::kWal:
        (*disks_)[node].drop_volatile();
        (*stores_)[node].recover();
        break;
    }
  }

 private:
  AvailRecovery mode_;
  std::vector<std::unique_ptr<core::ServerProcess>>& servers_;
  std::deque<storage::MemDisk>* disks_;
  std::deque<storage::DurableStore>* stores_;
};

/// One availability run of one quorum system under one churn schedule.
AvailTally run_availability_once(const quorum::QuorumSystem& quorums,
                                 double downtime_frac, double horizon,
                                 std::uint64_t seed, AvailRecovery recovery,
                                 std::size_t snapshot_every,
                                 obs::Registry* metrics) {
  const std::size_t n = quorums.num_servers();
  util::Rng master(seed);
  sim::Simulator simulator;
  std::unique_ptr<sim::DelayModel> delays = sim::make_exponential_delay(1.0);
  net::SimTransport transport(simulator, *delays, master.fork(1),
                              static_cast<net::NodeId>(n + 1));
  if (metrics != nullptr) {
    transport.bind_metrics(*metrics);
    transport.faults().bind_metrics(*metrics);
  }

  std::vector<std::unique_ptr<core::ServerProcess>> servers;
  servers.reserve(n);
  for (std::size_t s = 0; s < n; ++s) {
    servers.push_back(std::make_unique<core::ServerProcess>(
        transport, static_cast<net::NodeId>(s), metrics));
    servers.back()->replica().preload(0, net::Value{});
  }

  // recovery=wal: one MemDisk + DurableStore per server, in deques so
  // attached listener pointers stay stable.  The checkpoint makes the
  // preloaded initial durable before any churn.
  std::deque<storage::MemDisk> disks;
  std::deque<storage::DurableStore> stores;
  if (recovery == AvailRecovery::kWal) {
    for (std::size_t s = 0; s < n; ++s) {
      disks.emplace_back(static_cast<net::NodeId>(s), &transport.faults(),
                         master.fork(300 + s));
      stores.emplace_back(disks.back(),
                          storage::DurableStore::Options{snapshot_every});
      stores.back().attach(servers[s]->replica());
      stores.back().checkpoint();
    }
  }
  AvailRecoveryDriver recovery_driver(recovery, servers, &disks, &stores);
  transport.faults().set_lifecycle_listener(&recovery_driver);

  util::Rng churn_rng(seed * 1000003 + 17);
  net::FaultPlan plan = make_churn_plan(n, downtime_frac, horizon, churn_rng);
  plan.install(simulator, transport);

  core::ClientOptions copts;
  copts.retry = avail_retry_policy();
  copts.metrics = metrics;
  core::QuorumRegisterClient client(simulator, transport,
                                    static_cast<net::NodeId>(n), quorums,
                                    /*server_base=*/0, master.fork(2), copts);

  AvailTally tally;
  AvailLoop loop(simulator, client, horizon, tally);
  loop.start();
  // Slack past the horizon lets the last operation reach its deadline.
  simulator.run_until(horizon + 100.0);

  // Publish the storage-layer counters into this run's metrics shard
  // (obs/names.hpp pqra_wal_* / pqra_snapshot_* / pqra_storage_*).
  if (metrics != nullptr && recovery == AvailRecovery::kWal) {
    namespace names = obs::names;
    storage::MemDisk::Counters disk_total;
    storage::DurableStore::Counters store_total;
    for (const storage::MemDisk& disk : disks) {
      disk_total.appends += disk.counters().appends;
      disk_total.append_bytes += disk.counters().append_bytes;
      disk_total.syncs += disk.counters().syncs;
      disk_total.lost_syncs += disk.counters().lost_syncs;
      disk_total.torn_syncs += disk.counters().torn_syncs;
      disk_total.snapshot_installs += disk.counters().snapshot_installs;
    }
    for (const storage::DurableStore& store : stores) {
      store_total.recoveries += store.counters().recoveries;
      store_total.snapshot_loads += store.counters().snapshot_loads;
      store_total.replayed_records += store.counters().replayed_records;
      store_total.torn_tails_dropped += store.counters().torn_tails_dropped;
    }
    metrics->counter(names::kWalAppends, "WAL records appended")
        .inc(disk_total.appends);
    metrics->counter(names::kWalAppendBytes, "WAL bytes appended")
        .inc(disk_total.append_bytes);
    metrics->counter(names::kWalSyncs, "WAL sync calls").inc(disk_total.syncs);
    metrics->counter(names::kWalLostSyncs, "WAL syncs lost to injection")
        .inc(disk_total.lost_syncs);
    metrics->counter(names::kWalTornSyncs, "WAL syncs torn by injection")
        .inc(disk_total.torn_syncs);
    metrics->counter(names::kSnapshotInstalls, "Snapshot images installed")
        .inc(disk_total.snapshot_installs);
    metrics->counter(names::kStorageRecoveries, "Durable store recoveries")
        .inc(store_total.recoveries);
    metrics->counter(names::kSnapshotLoads, "Snapshots loaded on recovery")
        .inc(store_total.snapshot_loads);
    metrics->counter(names::kWalReplayedRecords, "WAL records replayed")
        .inc(store_total.replayed_records);
    metrics->counter(names::kWalTornDropped, "Torn WAL tails discarded")
        .inc(store_total.torn_tails_dropped);
  }
  // The driver dies with this frame; detach it before the transport does.
  transport.faults().set_lifecycle_listener(nullptr);
  return tally;
}

/// app=avail: the selected system and a strict-majority baseline face the
/// same churn process; reports both success rates and exits 0 iff the
/// paper's availability claim held.
int run_availability(Args& args) {
  const std::size_t servers = args.get_n("servers", 25);
  const std::size_t k = args.get_n("k", 4);
  const std::string quorum_kind = args.get("quorum", "prob");
  const std::size_t runs = args.get_n("runs", 3);
  const std::uint64_t seed = args.get_n("seed", 1);
  const double churn = args.get_f("churn", 0.6);
  if (!(churn > 0.0 && churn < 1.0)) {
    bad_value("churn", churn, "a downtime fraction in (0, 1)");
  }
  const double horizon = args.get_f("horizon", 6000.0);
  const std::string recovery_name = args.get("recovery", "memory");
  AvailRecovery recovery = AvailRecovery::kMemory;
  if (recovery_name == "amnesia") {
    recovery = AvailRecovery::kAmnesia;
  } else if (recovery_name == "wal") {
    recovery = AvailRecovery::kWal;
  } else if (recovery_name != "memory") {
    usage_error("bad value '" + recovery_name +
                "' for recovery: expected memory | amnesia | wal");
  }
  const std::size_t snapshot_every = args.get_n("snapshot-every", 64);
  const std::string metrics_out = args.get("metrics-out", "");
  const std::string prom_out = args.get("prom-out", "");
  const std::size_t jobs = args.get_n("jobs", 0);
  args.reject_unread();

  std::unique_ptr<quorum::QuorumSystem> selected =
      make_quorums(quorum_kind, servers, k);
  if (selected == nullptr) return 2;
  quorum::MajorityQuorums majority(servers);

  std::printf("availability under churn: n=%zu, downtime fraction %.2f, "
              "horizon %.0f, %zu runs, recovery=%s\n  %s vs %s baseline\n\n",
              servers, churn, horizon, runs, recovery_name.c_str(),
              selected->name().c_str(), majority.name().c_str());

  // The registry sees only the selected system's runs: mixing the baseline
  // into the same counters would make the exported fault/retry metrics
  // unattributable.  Each run reports into a private shard, merged below in
  // run order, so the export is identical for any jobs value.
  const bool want_metrics = !metrics_out.empty() || !prom_out.empty();
  obs::Registry registry(obs::Concurrency::kSingleThread);

  struct AvailRunOutput {
    AvailTally sel;
    AvailTally maj;
    std::unique_ptr<obs::Registry> shard;
  };
  sim::ParallelRunner pool(jobs);
  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<AvailRunOutput> outputs = pool.map<AvailRunOutput>(
      runs, [&](std::size_t run) {
        AvailRunOutput out;
        if (want_metrics) {
          out.shard =
              std::make_unique<obs::Registry>(obs::Concurrency::kSingleThread);
        }
        const std::uint64_t run_seed = seed + run * 7919;
        out.sel = run_availability_once(*selected, churn, horizon, run_seed,
                                        recovery, snapshot_every,
                                        out.shard.get());
        out.maj = run_availability_once(majority, churn, horizon, run_seed,
                                        recovery, snapshot_every, nullptr);
        return out;
      });
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  AvailTally sel_total, maj_total;
  for (std::size_t run = 0; run < runs; ++run) {
    const AvailRunOutput& out = outputs[run];
    if (out.shard != nullptr) registry.merge_from(*out.shard);
    const AvailTally& sel = out.sel;
    const AvailTally& maj = out.maj;
    std::printf("  run %zu: %s %5.1f%% (%llu/%llu, %llu stale) | "
                "majority %5.1f%% (%llu/%llu, %llu stale)\n",
                run, selected->name().c_str(), 100.0 * sel.success_rate(),
                static_cast<unsigned long long>(sel.ok),
                static_cast<unsigned long long>(sel.attempted),
                static_cast<unsigned long long>(sel.stale_reads),
                100.0 * maj.success_rate(),
                static_cast<unsigned long long>(maj.ok),
                static_cast<unsigned long long>(maj.attempted),
                static_cast<unsigned long long>(maj.stale_reads));
    sel_total.attempted += sel.attempted;
    sel_total.ok += sel.ok;
    sel_total.failed += sel.failed;
    sel_total.stale_reads += sel.stale_reads;
    maj_total.attempted += maj.attempted;
    maj_total.ok += maj.ok;
    maj_total.failed += maj.failed;
    maj_total.stale_reads += maj.stale_reads;
  }
  // Wall-clock is nondeterministic by nature, so it goes to stderr: stdout
  // stays byte-comparable across jobs values.
  std::fprintf(stderr,
               "timing: %zu runs in %.3f s wall (jobs=%zu) | %.0f ops/s\n",
               runs, wall_s, pool.jobs(),
               wall_s > 0.0 ? static_cast<double>(sel_total.attempted +
                                                  maj_total.attempted) /
                                  wall_s
                            : 0.0);

  const double sel_rate = sel_total.success_rate();
  const double maj_rate = maj_total.success_rate();
  const bool claim_holds = sel_rate >= 0.95 && maj_rate < 0.5;
  std::printf("\n%s success %.1f%% (%llu stale reads) | majority success "
              "%.1f%% (%llu stale reads) | claim %s\n",
              selected->name().c_str(), 100.0 * sel_rate,
              static_cast<unsigned long long>(sel_total.stale_reads),
              100.0 * maj_rate,
              static_cast<unsigned long long>(maj_total.stale_reads),
              claim_holds ? "HOLDS" : "FAILED");

  bool outputs_ok = true;
  if (!metrics_out.empty()) {
    outputs_ok &= write_file(metrics_out, "metrics JSON", [&](auto& out) {
      obs::write_json(registry, out);
    });
  }
  if (!prom_out.empty()) {
    outputs_ok &= write_file(prom_out, "Prometheus metrics", [&](auto& out) {
      obs::write_prometheus(registry, out);
    });
  }
  return (claim_holds && outputs_ok) ? 0 : 1;
}

/// One store client's op loop: think delay, then a put on an owned key or a
/// (possibly Zipf-skewed) get on any key, sequentially until `ops` settle.
/// Heap-pinned for the simulator's lifetime (callbacks capture `this`).
class StoreLoop {
 public:
  StoreLoop(sim::Simulator& simulator, core::keyspace::ShardedStoreClient& c,
            util::Rng rng, std::size_t ops, std::size_t own_index,
            std::size_t num_clients, std::size_t keys_per_client,
            const util::Zipfian* zipf)
      : simulator_(simulator),
        client_(c),
        rng_(std::move(rng)),
        remaining_(ops),
        own_index_(own_index),
        num_clients_(num_clients),
        keys_per_client_(keys_per_client),
        zipf_(zipf) {}

  void start() { step(); }

 private:
  void step() {
    if (remaining_ == 0) return;
    --remaining_;
    simulator_.schedule_in(rng_.uniform01() * 2.0, sim::EventTag::kWorkload,
                           [this] { issue(); });
  }

  void issue() {
    const std::size_t total = keys_per_client_ * num_clients_;
    if (rng_.bernoulli(0.4)) {
      // Key k = slot * clients + owner: this client only puts its own keys
      // (single-writer-per-key, the store facade's contract).
      const std::size_t slot =
          keys_per_client_ > 1
              ? static_cast<std::size_t>(rng_.below(keys_per_client_))
              : 0;
      const auto key =
          static_cast<net::KeyId>(slot * num_clients_ + own_index_);
      client_.put(key, util::encode(++next_value_),
                  [this](core::Timestamp) { step(); });
    } else {
      const auto key = static_cast<net::KeyId>(
          zipf_ != nullptr ? zipf_->draw(rng_) : rng_.below(total));
      client_.get(key, [this](core::ReadResult) { step(); });
    }
  }

  sim::Simulator& simulator_;
  core::keyspace::ShardedStoreClient& client_;
  util::Rng rng_;
  std::size_t remaining_;
  std::size_t own_index_;
  std::size_t num_clients_;
  std::size_t keys_per_client_;
  const util::Zipfian* zipf_;
  std::int64_t next_value_ = 0;
};

struct StoreConfig {
  std::size_t keys = 10000;
  double theta = 0.8;
  std::size_t servers = 16;
  std::size_t replicas = 3;  ///< 0 = full replication
  std::size_t k = 2;
  std::size_t vnodes = 16;
  std::size_t clients = 4;
  std::size_t ops = 100;
  bool monotone = true;
  double horizon = 600.0;
  double churn = 0.0;
  /// Explicit schedule with its key targets already resolved through the
  /// ring (make_ring); empty when the run uses churn or no faults.
  net::FaultPlan fault_plan;
  /// Shared rank distribution, built once per invocation: the zeta
  /// normalization is O(keys) with a pow() per key, which at 10⁵ keys costs
  /// more than a run's whole setup.  Draw() is const and thread-safe, so
  /// every run (and every --jobs thread) samples the same object.
  const util::Zipfian* zipf = nullptr;
};

/// The run's consistent-hash ring over servers [0, servers): the same for
/// every run, so a plan's key targets resolve once, before any run.
core::keyspace::HashRing make_ring(const StoreConfig& cfg) {
  core::keyspace::HashRing ring(cfg.vnodes);
  for (std::size_t s = 0; s < cfg.servers; ++s) {
    ring.add_node(static_cast<net::NodeId>(s));
  }
  return ring;
}

struct StoreRunOutput {
  std::uint64_t fingerprint = 0;
  std::uint64_t events = 0;
  std::size_t ops_checked = 0;
  std::size_t keys_touched = 0;
  std::size_t keys_checked = 0;
  bool spec_ok = false;
  std::string spec_summary;
  std::unique_ptr<obs::Registry> shard;
};

/// \p history, when set, receives the run's history (for --trace-out).
StoreRunOutput run_store_once(const StoreConfig& cfg, std::uint64_t run_seed,
                              core::spec::HistoryRecorder* history,
                              obs::SpanSink* spans) {
  StoreRunOutput out;
  out.shard = std::make_unique<obs::Registry>(obs::Concurrency::kSingleThread);
  util::Rng master(run_seed);
  const auto n = static_cast<net::NodeId>(cfg.servers);
  // The keyspace is rounded up to a whole number of per-client slots so the
  // slot*clients+owner layout covers it exactly.
  const std::size_t keys_per_client =
      (cfg.keys + cfg.clients - 1) / cfg.clients;
  const std::size_t total_keys = keys_per_client * cfg.clients;
  const bool sharded = cfg.replicas > 0;

  const core::keyspace::HashRing ring = make_ring(cfg);
  quorum::ProbabilisticQuorums quorums(sharded ? cfg.replicas : cfg.servers,
                                       cfg.k);

  sim::Simulator simulator;
  std::unique_ptr<sim::DelayModel> delays = sim::make_exponential_delay(1.0);
  net::SimTransport transport(simulator, *delays, master.fork(10),
                              static_cast<net::NodeId>(cfg.servers +
                                                       cfg.clients));
  transport.bind_metrics(*out.shard);
  transport.faults().bind_metrics(*out.shard);

  std::deque<core::ServerProcess> servers;
  for (net::NodeId s = 0; s < n; ++s) {
    servers.emplace_back(transport, s, out.shard.get());
  }

  // Every key reads as (ts 0, encoded zero) before its first put, so reads
  // are well-defined for [R2].  The replicas carry that as their shared
  // default initial value — observably identical to preloading the whole
  // keyspace, without materializing total_keys × replicas store entries
  // (which at 10⁵ keys cost more than the simulation they set up).
  core::spec::HistoryRecorder local_history;
  if (history == nullptr) history = &local_history;
  history->reserve(total_keys + 4 * cfg.clients * cfg.ops);
  const core::Value zero = util::encode<std::int64_t>(0);
  // Only written keys materialize store entries now; pre-size each store
  // for its expected share so the run does not pay a per-replica rehash
  // chain as writes trickle in.  (An over-estimate only costs memory.)
  const std::size_t expected_writes =
      std::min(total_keys, cfg.clients * cfg.ops);
  const std::size_t per_server =
      expected_writes * std::max<std::size_t>(cfg.replicas, 1) /
          std::max<std::size_t>(cfg.servers, 1) +
      16;
  for (core::ServerProcess& s : servers) {
    s.replica().set_default_initial(zero);
    s.replica().reserve(per_server);
  }
  for (std::size_t key = 0; key < total_keys; ++key) {
    history->record_initial(static_cast<net::KeyId>(key));
  }

  core::keyspace::ShardedStoreOptions sopts;
  sopts.client.monotone = cfg.monotone;
  sopts.client.metrics = out.shard.get();
  sopts.client.spans = spans;
  sopts.client.retry.rpc_timeout = 6.0;
  sopts.client.retry.backoff_factor = 1.5;
  sopts.client.retry.max_backoff = 24.0;
  sopts.client.retry.jitter = 0.1;

  // replicas=0 degenerates gracefully: the "group" is the whole ring, so
  // quorums sample over every server — full replication through the same
  // facade.
  std::deque<core::keyspace::ShardedStoreClient> clients;
  std::deque<StoreLoop> loops;
  for (std::size_t i = 0; i < cfg.clients; ++i) {
    clients.emplace_back(simulator, transport,
                         static_cast<net::NodeId>(cfg.servers + i), ring,
                         quorums, master.fork(500 + i), sopts, history);
    loops.emplace_back(simulator, clients.back(), master.fork(900 + i),
                       cfg.ops, i, cfg.clients, keys_per_client, cfg.zipf);
  }

  // Fault schedule: explicit plan (key targets already resolved) or random
  // churn; either way the horizon fully recovers the cluster so pending ops
  // complete and [R1] stays checkable.
  net::FaultPlan plan = cfg.fault_plan;
  if (cfg.churn > 0.0) {
    util::Rng churn_rng(run_seed * 1000003 + 17);
    plan = make_churn_plan(cfg.servers, cfg.churn, cfg.horizon, churn_rng);
  }
  plan.install(simulator, transport);
  simulator.schedule_at(cfg.horizon, sim::EventTag::kFault, [&transport, n] {
    net::FaultInjector& inj = transport.faults();
    for (net::NodeId s = 0; s < n; ++s) {
      inj.recover(s);
      inj.clear_slow(s);
    }
    inj.heal();
    inj.set_message_faults(net::MessageFaults{});
  });

  for (StoreLoop& loop : loops) loop.start();
  simulator.run_until(cfg.horizon + 1000.0 +
                      60.0 * static_cast<double>(cfg.ops));

  out.fingerprint = simulator.fingerprint();
  out.events = simulator.events_processed();
  out.ops_checked = history->ops().size();
  for (core::keyspace::ShardedStoreClient& c : clients) {
    out.keys_touched += c.keys_touched();
  }

  core::spec::BatchOptions bo;
  bo.r4 = cfg.monotone;
  const core::spec::KeyedBatchResult batch =
      core::spec::check_batch_by_key(history->ops(), bo);
  out.keys_checked = batch.keys_checked;
  out.spec_ok = batch.ok();
  out.spec_summary = batch.summary();
  return out;
}

/// app=store: mixed-key Zipfian workload on the sharded store,
/// key-partitioned spec check per run, byte-identical across --jobs.
int run_store(Args& args) {
  StoreConfig cfg;
  cfg.keys = args.get_n("keys", cfg.keys);
  cfg.theta = args.get_f("theta", cfg.theta);
  cfg.servers = args.get_n("servers", cfg.servers);
  cfg.replicas = args.get_n("replicas", cfg.replicas);
  cfg.k = args.get_n("k", cfg.k);
  cfg.vnodes = args.get_n("vnodes", cfg.vnodes);
  cfg.clients = args.get_n("clients", cfg.clients);
  cfg.ops = args.get_n("ops", cfg.ops);
  cfg.monotone = args.get_n("monotone", 1) != 0;
  cfg.horizon = args.get_f("horizon", cfg.horizon);
  cfg.churn = args.get_f("churn", cfg.churn);
  const std::size_t runs = args.get_n("runs", 3);
  const std::uint64_t seed = args.get_n("seed", 1);
  const std::string fault_spec = args.get("fault-plan", "");
  const std::string metrics_out = args.get("metrics-out", "");
  const std::string prom_out = args.get("prom-out", "");
  const std::string trace_out = args.get("trace-out", "");
  const std::string spans_out = args.get("spans-out", "");
  const std::uint64_t span_sample = args.get_n("span-sample", 1);
  const std::size_t jobs = args.get_n("jobs", 0);
  args.reject_unread();

  if (cfg.keys == 0 || cfg.clients == 0 || cfg.servers == 0 ||
      cfg.vnodes == 0 || cfg.theta < 0.0 || cfg.theta >= 1.0 ||
      cfg.replicas > cfg.servers ||
      cfg.k > (cfg.replicas > 0 ? cfg.replicas : cfg.servers)) {
    std::fprintf(stderr,
                 "app=store: need keys/clients/servers/vnodes > 0, theta in "
                 "[0,1), replicas <= servers, k <= group size\n");
    return 2;
  }
  if (!(cfg.churn >= 0.0 && cfg.churn < 1.0)) {
    bad_value("churn", cfg.churn, "a downtime fraction in [0, 1)");
  }
  if (!fault_spec.empty()) {
    // The explicit plan overrides churn; replicas=0 maps a key to
    // key % servers, as the unsharded store does.
    cfg.churn = 0.0;
    const core::keyspace::HashRing ring = make_ring(cfg);
    try {
      cfg.fault_plan = net::FaultPlan::parse(fault_spec).resolve_keys(
          [&](net::KeyId key) {
            return cfg.replicas > 0
                       ? ring.primary(key)
                       : static_cast<net::NodeId>(key % cfg.servers);
          });
      cfg.fault_plan.check_targets(cfg.servers + cfg.clients);
    } catch (const std::logic_error& e) {
      usage_error(std::string("fault-plan: ") + e.what());
    }
  }

  std::printf("sharded store: keys=%zu theta=%g | servers=%zu replicas=%zu "
              "k=%zu vnodes=%zu | clients=%zu ops=%zu%s | %zu runs\n\n",
              cfg.keys, cfg.theta, cfg.servers, cfg.replicas, cfg.k,
              cfg.vnodes, cfg.clients, cfg.ops,
              (!fault_spec.empty() || cfg.churn > 0.0) ? " | faults" : "",
              runs);

  // The exported history and spans are run 0's only; every run reports into
  // a private metrics shard merged below in run order — the same discipline
  // as the iterative apps, so all outputs are byte-identical for any --jobs
  // value.
  const bool want_trace = !trace_out.empty();
  const bool want_spans = !spans_out.empty();
  obs::Registry registry(obs::Concurrency::kSingleThread);
  core::spec::HistoryRecorder run0_history;
  obs::SpanSink spans(obs::SpanSink::Options{seed, span_sample});

  sim::ParallelRunner pool(jobs);
  // One zeta normalization for all runs (and all jobs threads); the rounded
  // keyspace mirrors run_store_once's slot layout.
  const std::size_t keys_rounded =
      (cfg.keys + cfg.clients - 1) / cfg.clients * cfg.clients;
  std::optional<util::Zipfian> zipf;
  if (cfg.theta > 0.0) zipf.emplace(keys_rounded, cfg.theta);
  cfg.zipf = zipf.has_value() ? &*zipf : nullptr;
  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<StoreRunOutput> outputs =
      pool.map<StoreRunOutput>(runs, [&](std::size_t run) {
        return run_store_once(cfg, seed + run * 7919,
                              want_trace && run == 0 ? &run0_history : nullptr,
                              want_spans && run == 0 ? &spans : nullptr);
      });
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  bool all_ok = true;
  std::uint64_t events_total = 0;
  for (std::size_t run = 0; run < runs; ++run) {
    const StoreRunOutput& out = outputs[run];
    registry.merge_from(*out.shard);
    events_total += out.events;
    all_ok &= out.spec_ok;
    std::printf("  run %zu: %s ops=%zu keys-touched=%zu fingerprint=%llu\n",
                run, out.spec_ok ? "ok " : "SPEC", out.ops_checked,
                out.keys_touched,
                static_cast<unsigned long long>(out.fingerprint));
    std::printf("    spec: %s\n", out.spec_summary.c_str());
  }
  std::fprintf(stderr,
               "timing: %zu runs in %.3f s wall (jobs=%zu) | %.0f events/s\n",
               runs, wall_s, pool.jobs(),
               wall_s > 0.0 ? static_cast<double>(events_total) / wall_s
                            : 0.0);
  std::printf("\nstore spec %s over %zu run(s)\n", all_ok ? "ok" : "FAILED",
              runs);

  bool outputs_ok = true;
  if (!metrics_out.empty()) {
    outputs_ok &= write_file(metrics_out, "metrics JSON", [&](auto& out) {
      obs::write_json(registry, out);
    });
  }
  if (!prom_out.empty()) {
    outputs_ok &= write_file(prom_out, "Prometheus metrics", [&](auto& out) {
      obs::write_prometheus(registry, out);
    });
  }
  if (!trace_out.empty()) {
    outputs_ok &= write_file(trace_out, "op trace JSONL", [&](auto& out) {
      core::spec::write_history_jsonl(run0_history.ops(), out);
    });
  }
  if (want_spans) {
    spans.check(/*require_closed=*/false);
    std::printf("spans: %zu recorded, %zu still open\n", spans.size(),
                spans.open_spans());
    outputs_ok &= write_file(spans_out, "span JSONL", [&](auto& out) {
      obs::write_spans_jsonl(spans.spans(), out);
    });
  }
  return (all_ok && outputs_ok) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);
  const std::string app = args.get("app", "apsp");
  if (app == "avail") return run_availability(args);
  if (app == "store") return run_store(args);
  // Only apsp and tc build a graph; for the other apps `graph` stays unread,
  // so reject_unread() names it.
  const std::string graph =
      (app == "apsp" || app == "tc") ? args.get("graph", "chain") : "";
  const std::size_t size = args.get_n("size", 16);
  const std::string quorum_kind = args.get("quorum", "prob");
  const std::size_t servers = args.get_n("servers", size);
  const std::size_t k = args.get_n("k", 4);
  const bool monotone = args.get_n("monotone", 1) != 0;
  const bool sync = args.get_n("sync", 1) != 0;
  const std::size_t runs = args.get_n("runs", 3);
  const std::uint64_t seed = args.get_n("seed", 1);
  const std::size_t cap = args.get_n("cap", 20000);
  const double churn = args.get_f("churn", 0.0);
  const std::string fault_spec = args.get("fault-plan", "");
  const std::string metrics_out = args.get("metrics-out", "");
  const std::string prom_out = args.get("prom-out", "");
  const std::string trace_out = args.get("trace-out", "");
  const std::string spans_out = args.get("spans-out", "");
  const std::string spans_chrome_out = args.get("spans-chrome-out", "");
  const std::uint64_t span_sample = args.get_n("span-sample", 1);
  const std::string profile_out = args.get("profile-out", "");
  const std::size_t jobs = args.get_n("jobs", 0);
  args.reject_unread();

  util::Rng rng(seed);
  std::unique_ptr<iter::AcoOperator> op = make_app(app, graph, size, rng);
  std::unique_ptr<quorum::QuorumSystem> quorums =
      make_quorums(quorum_kind, servers, k);
  if (op == nullptr || quorums == nullptr) return 2;
  if (!(churn >= 0.0 && churn < 1.0)) {
    bad_value("churn", churn, "a downtime fraction in [0, 1)");
  }

  net::FaultPlan parsed_plan;
  if (!fault_spec.empty()) {
    try {
      parsed_plan = net::FaultPlan::parse(fault_spec);
      // run_alg1's network: the servers, then one client per process (one
      // process per component).
      parsed_plan.check_targets(quorums->num_servers() +
                                op->num_components());
    } catch (const std::logic_error& e) {
      usage_error(std::string("fault-plan: ") + e.what());
    }
  }
  const bool faulty = !fault_spec.empty() || churn > 0.0;

  std::printf("app=%s m=%zu | quorums=%s | %s, %s%s | %zu runs\n\n",
              op->name().c_str(), op->num_components(),
              quorums->name().c_str(), monotone ? "monotone" : "plain",
              sync ? "sync" : "async", faulty ? ", faults" : "", runs);

  // The exported history is run 0's only (the spec checkers want one
  // execution — concatenating runs would interleave unrelated histories).
  // Each run is an independent seeded replication: it gets its own
  // simulator, fault plan and metrics shard, and the shards are merged into
  // one registry IN RUN ORDER below, so stdout and every exported file are
  // byte-identical for any --jobs value.
  const bool want_trace = !trace_out.empty();
  // Spans and the profiler follow the same run-0-only discipline: one
  // execution's causal tree (or cost profile) is the useful artifact, and
  // keeping the shared sinks off every other run makes them race-free and
  // byte-identical under jobs > 1.
  const bool want_spans = !spans_out.empty() || !spans_chrome_out.empty();
  const bool want_profile = !profile_out.empty();
  obs::Registry registry(obs::Concurrency::kSingleThread);
  obs::SpanSink spans(obs::SpanSink::Options{seed, span_sample});
  sim::Profiler profiler;

  struct RunOutput {
    iter::Alg1Result r;
    std::unique_ptr<obs::Registry> shard;
  };
  sim::ParallelRunner pool(jobs);
  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<RunOutput> outputs = pool.map<RunOutput>(
      runs, [&](std::size_t run) {
        RunOutput out;
        out.shard =
            std::make_unique<obs::Registry>(obs::Concurrency::kSingleThread);
        iter::Alg1Options options;
        options.quorums = quorums.get();
        options.monotone = monotone;
        options.synchronous = sync;
        options.seed = seed + run * 7919;
        options.round_cap = cap;
        options.metrics = out.shard.get();
        options.record_history = want_trace && run == 0;
        if (want_spans && run == 0) options.spans = &spans;
        if (want_profile && run == 0) options.profiler = &profiler;
        util::Rng churn_rng(seed + run);
        net::FaultPlan plan;
        if (!fault_spec.empty()) {
          // Explicit schedule: identical for every run (determinism tests
          // rely on byte-identical behaviour across invocations).
          plan = parsed_plan;
        } else if (churn > 0.0) {
          plan = net::FaultPlan::random_churn(quorums->num_servers(), 2000.0,
                                              160.0 * (1.0 - churn),
                                              160.0 * churn, churn_rng);
        }
        if (faulty) {
          options.fault_plan = &plan;
          core::RetryPolicy retry;
          retry.rpc_timeout = 10.0;
          retry.backoff_factor = 2.0;
          retry.max_backoff = 40.0;
          retry.jitter = 0.1;  // dedicated stream; see FAULTS.md
          options.retry = retry;
          options.max_sim_time = 50000.0;
        }
        out.r = iter::run_alg1(*op, options);
        return out;
      });
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  std::shared_ptr<core::spec::HistoryRecorder> run0_history;
  util::OnlineStats rounds, pcs, msgs, read_lat;
  std::size_t converged = 0;
  for (std::size_t run = 0; run < runs; ++run) {
    const iter::Alg1Result& r = outputs[run].r;
    registry.merge_from(*outputs[run].shard);
    if (run == 0) run0_history = r.history;
    converged += r.converged;
    rounds.add(static_cast<double>(r.rounds));
    pcs.add(static_cast<double>(r.pseudocycles));
    msgs.add(static_cast<double>(r.messages.total));
    read_lat.merge(r.read_latency);
    std::printf("  run %zu: %s rounds=%zu pseudocycles=%zu msgs=%llu "
                "retries=%llu\n",
                run, r.converged ? "ok " : "CAP", r.rounds, r.pseudocycles,
                static_cast<unsigned long long>(r.messages.total),
                static_cast<unsigned long long>(r.retries));
  }
  // Nondeterministic wall-clock figures go to stderr so stdout stays
  // byte-comparable across --jobs values.
  const double events =
      static_cast<double>(registry.counter(obs::names::kSimEvents).value());
  std::fprintf(stderr,
               "timing: %zu runs in %.3f s wall (jobs=%zu) | %.0f events/s\n",
               runs, wall_s, pool.jobs(),
               wall_s > 0.0 ? events / wall_s : 0.0);

  std::printf("\nconverged %zu/%zu | rounds %.2f +- %.2f | pseudocycles "
              "%.2f | msgs %.0f | read latency %.2f\n",
              converged, runs, rounds.mean(), rounds.ci95_halfwidth(),
              pcs.mean(), msgs.mean(), read_lat.mean());

  bool outputs_ok = true;
  if (!metrics_out.empty()) {
    outputs_ok &= write_file(metrics_out, "metrics JSON", [&](auto& out) {
      obs::write_json(registry, out);
    });
  }
  if (!prom_out.empty()) {
    outputs_ok &= write_file(prom_out, "Prometheus metrics", [&](auto& out) {
      obs::write_prometheus(registry, out);
    });
  }
  if (want_trace) {
    // The history claims to be a valid single-writer register history; hold
    // it to that before handing it to anyone.  Runs stop at convergence with
    // operations still pending, so [R1] does not apply; the pending write
    // records cover reads that observed a still-in-flight write.
    const core::spec::HistoryRecorder none;  // runs=0
    const std::vector<core::spec::OpRecord>& ops =
        (run0_history != nullptr ? *run0_history : none).ops();
    core::spec::BatchOptions rules;
    rules.r1 = false;
    rules.r4 = monotone;
    const core::spec::BatchResult check = core::spec::check_batch(ops, rules);
    std::printf("op trace: %zu records, spec check %s%s\n", ops.size(),
                check.ok() ? "" : "FAILED: ", check.summary().c_str());
    if (!check.ok()) outputs_ok = false;
    outputs_ok &= write_file(trace_out, "op trace JSONL", [&](auto& out) {
      core::spec::write_history_jsonl(ops, out);
    });
  }
  if (want_spans) {
    // Structural audit before export: parents precede children, closed
    // spans are coherent.  A run cut off by max_sim_time can leave ops (and
    // their spans) legitimately in flight, so open spans are allowed here —
    // the open count is reported so a human notices.
    spans.check(/*require_closed=*/false);
    std::printf("spans: %zu recorded, %zu still open\n", spans.size(),
                spans.open_spans());
  }
  if (!spans_out.empty()) {
    outputs_ok &= write_file(spans_out, "span JSONL", [&](auto& out) {
      obs::write_spans_jsonl(spans.spans(), out);
    });
  }
  if (!spans_chrome_out.empty()) {
    outputs_ok &= write_file(spans_chrome_out, "span Chrome trace",
                             [&](auto& out) {
                               obs::write_spans_chrome(spans.spans(), out);
                             });
  }
  if (want_profile) {
    outputs_ok &= write_file(profile_out, "DES profile JSON", [&](auto& out) {
      profiler.write_json(out);
    });
  }

  return (converged == runs && outputs_ok) ? 0 : 1;
}
