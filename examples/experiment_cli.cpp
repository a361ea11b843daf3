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
///             concurrency; at most sim::kMaxJobs = 64; default 0).  Runs
///             are independent seeded replications, each with its own
///             simulator and metrics shard, merged in run order — stdout
///             and every report file but profile.json are byte-identical
///             for any jobs value (the determinism regressions in tests/
///             enforce this).  Wall-clock timing goes to stderr.
///
/// app=store is the sharded multi-key register store (docs/SHARDING.md),
/// built by the store harness (harness::StoreRun): c clients run a mixed
/// get/put workload over a keyspace of `keys` keys (Zipf-skewed reads with
/// theta in [0,1)), each key living on a `replicas`-server consistent-hash
/// group; key-addressed fault targets (`crash:k12@10`) resolve through the
/// ring.  replicas=0 has no ring: quorums and `k<KEY>` targets name servers
/// by id (key % servers).  Every run's history is
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
///   recovery = memory | amnesia | wal   (memory; any other name exits 2;
///              the store harness's one recovery rule, harness::Recovery)
///     memory:  recovering servers keep their in-memory store (the legacy
///              behavior — a crash only severs the network).
///     amnesia: recovering servers come back empty, so register 0 reads as
///              its initial value until the next write — the worst case
///              durable storage guards against.
///     wal:     every server runs a MemDisk-backed DurableStore
///              (WAL + snapshots); recovery replays the durable prefix.
///   snapshot-every = N   WAL appends between checkpoints for recovery=wal
///                        (64; 0 = never checkpoint)
///
/// Run report (optional; `--key value` and `--key=value` spellings are also
/// accepted):
///   report = DIR    after the runs, create DIR and write what the app
///                   records into it under fixed names:
///     metrics.json, metrics.prom   the metrics registry as a JSON snapshot
///                   and as Prometheus text (every app)
///     history.jsonl  run 0's operation history as JSONL
///                   (core::spec::write_history_jsonl; app=store and the
///                   apsp family): initial values and still-pending
///                   operations included.  The apsp family first checks it
///                   by the rules the CLI prints ("op trace: ... spec check")
///     profile.json  the DES self-profiler of run 0 (the apsp family):
///                   per-event-tag fire counts and wall/simulated-time
///                   histograms.  Wall times are nondeterministic by nature
///                   and go only to this file
///     spans.jsonl, spans.chrome.json   run 0's causal spans (obs/span.hpp)
///                   as JSONL and as Chrome trace-event JSON, one slice per
///                   operation and one lane per client (app=store and the
///                   apsp family, when span-sample > 0)
///   span-sample = N trace every Nth (hashed) operation: 0 = none (the
///                   default), 1 = all; deterministic in (seed, proc, op)
///
/// Input the selected app does not understand is rejected with exit status
/// 2 before anything runs, naming the key: an unknown key (`unknown option
/// '<key>'`), a malformed argument, a value that is not a whole number /
/// finite number where one is expected (util::parse_whole), a number or
/// name outside a key's range (a quorum size k outside [1, servers], a
/// horizon <= 0 or, under churn, one long enough for more than 10^6
/// outages, more than sim::kMaxJobs jobs, a problem size or count too small
/// for the app), or a fault plan the run cannot install.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
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
#include "core/quorum_register_client.hpp"
#include "core/spec/batch.hpp"
#include "core/spec/history.hpp"
#include "harness/store_harness.hpp"
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

/// Parses the whole of \p text as a T (util::parse_whole), or exits 2
/// naming \p key.
template <typename T>
T parse_value(const std::string& key, const std::string& text,
              const char* expected) {
  const std::optional<T> value = util::parse_whole<T>(text);
  if (!value) {
    usage_error("bad value '" + text + "' for " + key + ": expected " +
                expected);
  }
  return *value;
}

/// Exits 2: \p value is a number but outside what \p key accepts.
[[noreturn]] void bad_value(const std::string& key, double value,
                            const char* expected) {
  usage_error("bad value '" + util::format_double(value) + "' for " + key +
              ": expected " + expected);
}

/// Exits 2: whole number \p value of \p key lies outside [lo, hi].
[[noreturn]] void out_of_range(const std::string& key, std::size_t value,
                               std::size_t lo, std::size_t hi) {
  usage_error("bad value '" + std::to_string(value) + "' for " + key +
              ": expected a whole number " +
              (hi == SIZE_MAX ? ">= " + std::to_string(lo)
                              : "in [" + std::to_string(lo) + ", " +
                                    std::to_string(hi) + "]"));
}

/// Exits 2 naming horizon when churn over \p servers until \p horizon
/// would plan more than 10^6 outages: harness::churn_plan keeps adding
/// outages until the horizon, so a huge one exhausts memory before any run.
void check_churn_horizon(std::size_t servers, double horizon) {
  constexpr double kMaxChurnOutages = 1e6;
  if (static_cast<double>(servers) * horizon / harness::kChurnCycle >
      kMaxChurnOutages) {
    bad_value("horizon", horizon,
              "a time short enough that churn plans at most 10^6 outages");
  }
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

  /// A whole number in [lo, hi]; exits 2 naming \p key otherwise, the
  /// fallback included, so a default the other keys rule out (k = 4 with
  /// three servers) is caught too.
  std::size_t get_n(const std::string& key, std::size_t fallback,
                    std::size_t lo = 0, std::size_t hi = SIZE_MAX) {
    const std::string* text = find(key);
    const std::size_t value =
        text == nullptr
            ? fallback
            : parse_value<std::size_t>(key, *text, "a whole number");
    if (value < lo || value > hi) out_of_range(key, value, lo, hi);
    return value;
  }

  double get_f(const std::string& key, double fallback) {
    const std::string* value = find(key);
    return value == nullptr
               ? fallback
               : parse_value<double>(key, *value, "a finite number");
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
    // Every app reads k, but only this system is sized by it.
    if (k == 0 || k > servers) out_of_range("k", k, 1, servers);
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

/// What an app records for report=DIR.  Each artifact that is set is
/// written into DIR under its fixed name; run 0's history, spans and
/// profile stand for the whole invocation (the spec checkers want one
/// execution, and keeping the shared sinks off every other run makes them
/// race-free and byte-identical under jobs > 1).
struct Report {
  /// metrics.json and metrics.prom.
  const obs::Registry* metrics = nullptr;
  /// history.jsonl.
  const std::vector<core::spec::OpRecord>* history = nullptr;
  /// spans.jsonl and spans.chrome.json.
  const obs::SpanSink* spans = nullptr;
  /// profile.json.
  const sim::Profiler* profile = nullptr;
};

/// Creates \p dir and writes \p report into it; true when \p dir is empty
/// (no report asked for).  False, with a message, if a file cannot be
/// written — a directory that cannot be made shows up that way too.
bool write_report(const std::string& dir, const Report& report) {
  if (dir.empty()) return true;
  std::error_code ignored;
  std::filesystem::create_directories(dir, ignored);
  bool ok = true;
  const auto write = [&](const char* name, const char* what, auto body) {
    const std::string path = dir + "/" + name;
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for %s output\n", path.c_str(),
                   what);
      ok = false;
      return;
    }
    body(out);
    std::printf("wrote %s to %s\n", what, path.c_str());
  };
  if (report.metrics != nullptr) {
    write("metrics.json", "metrics JSON",
          [&](std::ostream& out) { obs::write_json(*report.metrics, out); });
    write("metrics.prom", "Prometheus metrics", [&](std::ostream& out) {
      obs::write_prometheus(*report.metrics, out);
    });
  }
  if (report.history != nullptr) {
    write("history.jsonl", "op trace JSONL", [&](std::ostream& out) {
      core::spec::write_history_jsonl(*report.history, out);
    });
  }
  if (report.spans != nullptr) {
    // Structural audit before export: parents precede children, closed
    // spans are coherent.  A run cut off by its time limit can leave ops
    // (and their spans) legitimately in flight, so open spans are allowed
    // here — the open count is reported so a human notices.
    report.spans->check(/*require_closed=*/false);
    std::printf("spans: %zu recorded, %zu still open\n", report.spans->size(),
                report.spans->open_spans());
    write("spans.jsonl", "span JSONL", [&](std::ostream& out) {
      obs::write_spans_jsonl(report.spans->spans(), out);
    });
    write("spans.chrome.json", "span Chrome trace", [&](std::ostream& out) {
      obs::write_spans_chrome(report.spans->spans(), out);
    });
  }
  if (report.profile != nullptr) {
    write("profile.json", "DES profile JSON",
          [&](std::ostream& out) { report.profile->write_json(out); });
  }
  return ok;
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

/// One availability run of one quorum system under one churn schedule.
AvailTally run_availability_once(const quorum::QuorumSystem& quorums,
                                 double downtime_frac, double horizon,
                                 std::uint64_t seed, harness::Recovery recovery,
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

  // Register 0 reads as (ts 0, empty) until its first write.
  harness::ClusterOptions servers;
  servers.servers = n;
  servers.recovery = recovery;
  servers.snapshot_every = snapshot_every;
  servers.initial = core::Value{};
  servers.metrics = metrics;
  harness::StoreCluster cluster(simulator, transport, master, servers);
  harness::churn_plan(n, downtime_frac, horizon, seed)
      .install(simulator, transport);

  core::ClientOptions copts;
  copts.retry = avail_retry_policy();
  copts.metrics = metrics;
  core::QuorumRegisterClient client(simulator, transport,
                                    static_cast<net::NodeId>(n), quorums,
                                    master.fork(2), copts);

  AvailTally tally;
  AvailLoop loop(simulator, client, horizon, tally);
  loop.start();
  // Slack past the horizon lets the last operation reach its deadline.
  simulator.run_until(horizon + 100.0);
  cluster.publish_storage();
  return tally;
}

/// app=avail: the selected system and a strict-majority baseline face the
/// same churn process; reports both success rates and exits 0 iff the
/// paper's availability claim held.
int run_availability(Args& args) {
  const std::size_t servers = args.get_n("servers", 25, 1);
  const std::size_t k = args.get_n("k", 4);
  const std::string quorum_kind = args.get("quorum", "prob");
  const std::size_t runs = args.get_n("runs", 3);
  const std::uint64_t seed = args.get_n("seed", 1);
  const double churn = args.get_f("churn", 0.6);
  if (!(churn > 0.0 && churn < 1.0)) {
    bad_value("churn", churn, "a downtime fraction in (0, 1)");
  }
  const double horizon = args.get_f("horizon", 6000.0);
  if (!(horizon > 0.0)) bad_value("horizon", horizon, "a time > 0");
  check_churn_horizon(servers, horizon);
  const std::string recovery_name = args.get("recovery", "memory");
  harness::Recovery recovery = harness::Recovery::kMemory;
  if (recovery_name == "amnesia") {
    recovery = harness::Recovery::kAmnesia;
  } else if (recovery_name == "wal") {
    recovery = harness::Recovery::kWal;
  } else if (recovery_name != "memory") {
    usage_error("bad value '" + recovery_name +
                "' for recovery: expected memory | amnesia | wal");
  }
  const std::size_t snapshot_every = args.get_n("snapshot-every", 64);
  const std::string report_dir = args.get("report", "");
  const std::size_t jobs = args.get_n("jobs", 0, 0, sim::kMaxJobs);
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
  // run order, so the report is identical for any jobs value.
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
        if (!report_dir.empty()) {
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

  const bool report_ok = write_report(report_dir, {.metrics = &registry});
  return (claim_holds && report_ok) ? 0 : 1;
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
  /// Run 0's history when a report is asked for; empty otherwise.
  core::spec::HistoryRecorder history;
};

/// One replication: churn when \p churn > 0, else \p plan (key targets
/// already resolved).  Either way the harness heals the cluster at the
/// horizon, so pending ops complete and [R1] stays checkable.
StoreRunOutput run_store_once(harness::RunOptions options, double churn,
                              const net::FaultPlan& plan,
                              std::uint64_t run_seed, bool keep_history) {
  StoreRunOutput out;
  out.shard = std::make_unique<obs::Registry>(obs::Concurrency::kSingleThread);
  options.cluster.metrics = out.shard.get();
  harness::StoreRun store(run_seed, options);
  if (churn > 0.0) {
    store.install(harness::churn_plan(options.cluster.servers, churn,
                                      options.horizon, run_seed));
  } else {
    store.install(plan);
  }
  store.run_workload();

  out.fingerprint = store.simulator().fingerprint();
  out.events = store.simulator().events_processed();
  out.ops_checked = store.history().ops().size();
  out.keys_touched = store.keys_touched();
  core::spec::BatchOptions bo;
  bo.r4 = options.monotone;
  const core::spec::KeyedBatchResult batch =
      core::spec::check_batch_by_key(store.history().ops(), bo);
  out.keys_checked = batch.keys_checked;
  out.spec_ok = batch.ok();
  out.spec_summary = batch.summary();
  if (keep_history) out.history = std::move(store.history());
  return out;
}

/// app=store: mixed-key Zipfian workload on the sharded store,
/// key-partitioned spec check per run, byte-identical across --jobs.
int run_store(Args& args) {
  harness::RunOptions options;
  const std::size_t keys = args.get_n("keys", 10000, 1);
  const double theta = args.get_f("theta", 0.8);
  if (!(theta >= 0.0 && theta < 1.0)) {
    bad_value("theta", theta, "a Zipf skew in [0, 1)");
  }
  std::size_t& servers = options.cluster.servers;
  servers = args.get_n("servers", servers, 1);
  options.replicas = args.get_n("replicas", options.replicas, 0, servers);
  // k samples one replica group: the ring's, or every server without one.
  const std::size_t group = options.replicas > 0 ? options.replicas : servers;
  options.quorum = args.get_n("k", options.quorum, 1, group);
  options.vnodes = args.get_n("vnodes", options.vnodes, 1);
  options.clients = args.get_n("clients", options.clients, 1);
  options.ops = args.get_n("ops", options.ops);
  options.monotone = args.get_n("monotone", 1) != 0;
  options.horizon = args.get_f("horizon", options.horizon);
  if (!(options.horizon > 0.0)) {
    bad_value("horizon", options.horizon, "a time > 0");
  }
  double churn = args.get_f("churn", 0.0);
  const std::size_t runs = args.get_n("runs", 3);
  const std::uint64_t seed = args.get_n("seed", 1);
  const std::string fault_spec = args.get("fault-plan", "");
  const std::string report_dir = args.get("report", "");
  const std::uint64_t span_sample = args.get_n("span-sample", 0);
  const std::size_t jobs = args.get_n("jobs", 0, 0, sim::kMaxJobs);
  args.reject_unread();

  if (!(churn >= 0.0 && churn < 1.0)) {
    bad_value("churn", churn, "a downtime fraction in [0, 1)");
  }
  // The keyspace is rounded up to a whole number of per-client slots so the
  // slot * clients + owner layout covers it exactly.
  options.keys_per_client = (keys + options.clients - 1) / options.clients;
  net::FaultPlan plan;
  if (!fault_spec.empty()) {
    churn = 0.0;  // the explicit plan overrides churn
    try {
      plan = harness::StoreRun::resolve_keys(net::FaultPlan::parse(fault_spec),
                                             options);
      plan.check_targets(servers + options.clients);
    } catch (const std::logic_error& e) {
      usage_error(std::string("fault-plan: ") + e.what());
    }
  }
  if (churn > 0.0) check_churn_horizon(servers, options.horizon);

  std::printf("sharded store: keys=%zu theta=%g | servers=%zu replicas=%zu "
              "k=%zu vnodes=%zu | clients=%zu ops=%zu%s | %zu runs\n\n",
              keys, theta, servers, options.replicas, options.quorum,
              options.vnodes, options.clients, options.ops,
              (!fault_spec.empty() || churn > 0.0) ? " | faults" : "", runs);

  // Every run reports into a private metrics shard merged below in run
  // order — the same discipline as the iterative apps, so the report is
  // byte-identical for any --jobs value.
  const bool want_report = !report_dir.empty();
  const bool want_spans = want_report && span_sample > 0;
  obs::Registry registry(obs::Concurrency::kSingleThread);
  obs::SpanSink spans(obs::SpanSink::Options{seed, span_sample});

  sim::ParallelRunner pool(jobs);
  // One zeta normalization for all runs (and all jobs threads): it is O(keys)
  // with a pow() per key, which at 10^5 keys costs more than a run's setup.
  std::optional<util::Zipfian> zipf;
  if (theta > 0.0) {
    zipf.emplace(options.keys_per_client * options.clients, theta);
    options.zipf = &*zipf;
  }
  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<StoreRunOutput> outputs =
      pool.map<StoreRunOutput>(runs, [&](std::size_t index) {
        harness::RunOptions replication = options;
        if (want_spans && index == 0) replication.spans = &spans;
        return run_store_once(replication, churn, plan, seed + index * 7919,
                              want_report && index == 0);
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

  const core::spec::HistoryRecorder none;  // runs=0
  const bool report_ok = write_report(
      report_dir,
      {.metrics = &registry,
       .history = &(outputs.empty() ? none : outputs.front().history).ops(),
       .spans = want_spans ? &spans : nullptr});
  return (all_ok && report_ok) ? 0 : 1;
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
  // A graph needs two vertices; the other apps one component.
  const std::size_t size = args.get_n("size", 16, graph.empty() ? 1 : 2);
  const std::string quorum_kind = args.get("quorum", "prob");
  const std::size_t servers = args.get_n("servers", size, 1);
  const std::size_t k = args.get_n("k", 4);
  const bool monotone = args.get_n("monotone", 1) != 0;
  const bool sync = args.get_n("sync", 1) != 0;
  const std::size_t runs = args.get_n("runs", 3);
  const std::uint64_t seed = args.get_n("seed", 1);
  const std::size_t cap = args.get_n("cap", 20000);
  const double churn = args.get_f("churn", 0.0);
  const std::string fault_spec = args.get("fault-plan", "");
  const std::string report_dir = args.get("report", "");
  const std::uint64_t span_sample = args.get_n("span-sample", 0);
  const std::size_t jobs = args.get_n("jobs", 0, 0, sim::kMaxJobs);
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

  // Each run is an independent seeded replication: it gets its own
  // simulator, fault plan and metrics shard, and the shards are merged into
  // one registry IN RUN ORDER below, so stdout and the report are
  // byte-identical for any --jobs value.
  const bool want_report = !report_dir.empty();
  const bool want_spans = want_report && span_sample > 0;
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
        options.record_history = want_report && run == 0;
        if (want_spans && run == 0) options.spans = &spans;
        if (want_report && run == 0) options.profiler = &profiler;
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

  if (!want_report) return converged == runs ? 0 : 1;
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
  const bool report_ok =
      write_report(report_dir, {.metrics = &registry,
                                .history = &ops,
                                .spans = want_spans ? &spans : nullptr,
                                .profile = &profiler});
  return (converged == runs && check.ok() && report_ok) ? 0 : 1;
}
