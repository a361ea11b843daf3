/// \file pqra_bench.cpp
/// The benchmark suite's measuring program (bench/suite/README.md).
///
///   pqra_bench --workload store_zipf --seed 1 --seconds 15 [--trace 0|1]
///              [--runs N] [--spans-out FILE]
///
/// Runs one workload in this process.  A *rep* is a fixed batch of `runs`
/// seeded replications derived from --seed; reps repeat while they fit in
/// --seconds (at least kMinReps), each on the next CPU (CpuRotation), so
/// every rep does identical work and each replication is timed several
/// times.  Before the reps, an untimed memory pass runs each replication
/// alone in a child process, whose peak resident set the parent reads when
/// it reaps it.  With --trace 1 one untraced rep gives the deterministic
/// counts and the untraced baseline, and the rest of the budget runs traced
/// (decorators from span_trace.hpp).
///
/// Output is one JSON object on stdout holding every rep's raw measurements;
/// run_suite.py turns them into metrics and applies the correctness gates.
/// Everything the workloads run comes from the same public APIs that
/// experiment_cli uses, single-threaded.

#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/apsp.hpp"
#include "apps/graph.hpp"
#include "core/keyspace/hash_ring.hpp"
#include "core/keyspace/sharded_store.hpp"
#include "core/server_process.hpp"
#include "core/spec/batch.hpp"
#include "core/spec/history.hpp"
#include "iter/alg1_des.hpp"
#include "net/fault_plan.hpp"
#include "net/sim_transport.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "quorum/probabilistic.hpp"
#include "sim/profiler.hpp"
#include "span_trace.hpp"
#include "storage/durable_store.hpp"
#include "storage/mem_disk.hpp"
#include "util/codec.hpp"
#include "util/zipf.hpp"

namespace pqra::bench {
namespace {

namespace names = obs::names;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kMinReps = 2;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// FNV-1a over 64-bit words: the schedule digest of a rep folds every
/// replication's (fingerprint, events) in order.
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
std::uint64_t fnv_fold(std::uint64_t h, std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xffU;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Deterministic tallies of one rep, by per-layer metric name.  Every value
/// is a pure function of (workload, seed, runs), so reps agree exactly.
using Counts = std::map<std::string, double>;

/// Host time of one replication's phases.
struct RunTimes {
  double setup_s = 0.0;
  double simulate_s = 0.0;
  double check_s = 0.0;
};

/// Raw measurements of one rep.
struct Rep {
  double shared_setup_s = 0.0;  ///< inputs built once per rep
  std::vector<RunTimes> times;  ///< one entry per replication
  std::uint64_t digest = kFnvBasis;
  std::uint64_t events = 0;
  std::uint64_t max_run_events = 0;
  std::uint64_t ops = 0;        ///< completed register ops
  std::uint64_t attempted = 0;  ///< ops attempted
  std::uint64_t failed = 0;     ///< failed ops
  std::vector<std::string> failures;
  Counts counts;
  /// Identity of the first replications, compared against experiment_cli.
  std::vector<std::map<std::string, std::uint64_t>> head;
  LayerTotals layers;  ///< traced reps only
  double deliver_s = 0.0;  ///< profiler's message-delivery wall time (traced)
  std::uint64_t spans = 0;
  std::uint64_t span_overflow = 0;
};

/// Moves this process to the next of its allowed CPUs before each rep.  On
/// a shared host each CPU's speed drifts by up to half over seconds as
/// other tenants' work comes and goes on its core, while at most moments
/// some CPU runs near full speed.  Spreading the reps over every CPU lets a
/// replication's fastest repeat (run_suite.py) come from an undisturbed
/// one; a whole rep stays on one CPU, so its caches stay warm.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() {
    if (cpus_.size() > 1) sched_setaffinity(0, sizeof allowed_, &allowed_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next_rep() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// Adds the host time of one phase to \p out; traced runs also open the
/// phase's span.
class PhaseTimer {
 public:
  PhaseTimer(SpanBuffer* spans, Layer layer, double& out)
      : span_(spans, layer), out_(out), start_(Clock::now()) {}
  ~PhaseTimer() { out_ += seconds_since(start_); }
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  ScopedSpan span_;
  double& out_;
  Clock::time_point start_;
};

/// What a traced rep needs besides the span buffer.
struct TraceContext {
  SpanBuffer spans;
  std::size_t capacity = 0;  ///< spans per replication
  /// Spans of the first traced replication, kept for --spans-out.
  std::vector<Span> first_run;
  bool keep_first = false;
};

double counter(obs::Registry& registry, const char* name) {
  return static_cast<double>(registry.counter(name).value());
}

/// Closes one replication: folds its identity into the digest, tallies its
/// run time and, when traced, its spans.
void finish_replication(Rep& rep, TraceContext* trace, const RunTimes& times,
                        std::uint64_t fingerprint, std::uint64_t events) {
  rep.digest = fnv_fold(fnv_fold(rep.digest, fingerprint), events);
  rep.events += events;
  rep.max_run_events = std::max(rep.max_run_events, events);
  rep.times.push_back(times);
  if (trace == nullptr) return;
  trace->spans.add_to_totals(rep.layers);
  rep.spans += trace->spans.used();
  rep.span_overflow += trace->spans.overflow();
  if (trace->keep_first) {
    trace->first_run.assign(trace->spans.begin(), trace->spans.end());
    trace->keep_first = false;
  }
}

/// Tallies the registry counters every DES workload reports: operations
/// and the transport, client and server instruments.
void tally_registry(Rep& rep, obs::Registry& reg) {
  const double ops =
      counter(reg, names::kClientReads) + counter(reg, names::kClientWrites);
  const double failures = counter(reg, names::kClientOpFailures);
  rep.ops += static_cast<std::uint64_t>(ops);
  rep.attempted += static_cast<std::uint64_t>(ops + failures);
  rep.failed += static_cast<std::uint64_t>(failures);
  Counts& c = rep.counts;
  c["net.messages"] += counter(reg, names::kTransportMessages);
  c["net.payload_bytes"] += counter(reg, names::kTransportPayloadBytes);
  c["net.dropped"] += counter(reg, names::kTransportDropped);
  c["core.client.ops"] += ops;
  c["core.client.puts"] += counter(reg, names::kClientWrites);
  c["core.client.retries"] += counter(reg, names::kClientRetries);
  c["core.client.cache_hits"] += counter(reg, names::kClientCacheHits);
  c["core.server.requests"] += counter(reg, names::kServerRequests);
  c["core.server.ts_advances"] += counter(reg, names::kServerTsAdvances);
  c["core.server.write_requests"] +=
      counter(reg, names::kTransportMessagesByType[static_cast<std::size_t>(
                       net::MsgType::kWriteReq)]);
}

void add_profiler_counts(Rep& rep, const sim::Profiler& profiler) {
  rep.counts["sim.timer_fires"] += static_cast<double>(
      profiler.tag_stats(sim::EventTag::kRetryTimer).fires);
  rep.deliver_s += static_cast<double>(
                      profiler.tag_stats(sim::EventTag::kMsgDeliver).wall_ns) *
                  1e-9;
}

// ---------------------------------------------------------------------------
// apsp_async: §7's experiment — Alg. 1 on APSP over a 32-chain, p = n = 32,
// probabilistic quorums k = 4, monotone registers, Exp(1) delays.  Seeds and
// options follow experiment_cli app=apsp (seed + r * 7919, a metrics
// registry per run), so its per-run rounds/messages can be cross-checked.

Rep rep_apsp(std::uint64_t seed, std::size_t first, std::size_t runs,
             TraceContext* trace) {
  Rep rep;
  SpanBuffer* spans = trace != nullptr ? &trace->spans : nullptr;
  sim::Profiler profiler;

  for (std::size_t r = first; r < first + runs; ++r) {
    if (trace != nullptr) trace->spans.prepare(trace->capacity);
    RunTimes times;
    // Every replication builds its own inputs, as one experiment_cli
    // invocation per seed would.
    std::optional<apps::ApspOperator> op;
    std::optional<quorum::ProbabilisticQuorums> quorums;
    std::optional<TracingOperator> traced_op;
    std::optional<TracingQuorums> traced_quorums;
    std::optional<obs::Registry> registry;
    iter::Alg1Options options;
    {
      PhaseTimer t(spans, Layer::kSetup, times.setup_s);
      op.emplace(apps::make_chain(32));
      quorums.emplace(32, 4);
      if (trace != nullptr) {
        traced_op.emplace(*op, trace->spans);
        traced_quorums.emplace(*quorums, trace->spans);
        options.profiler = &profiler;
      }
      registry.emplace(obs::Concurrency::kSingleThread);
      options.quorums =
          traced_quorums
              ? static_cast<const quorum::QuorumSystem*>(&*traced_quorums)
              : &*quorums;
      options.monotone = true;
      options.synchronous = false;
      options.seed = seed + r * 7919;
      options.round_cap = 20000;
      options.metrics = &*registry;
    }
    const iter::AcoOperator& run_op =
        traced_op ? static_cast<const iter::AcoOperator&>(*traced_op) : *op;
    iter::Alg1Result result;
    {
      PhaseTimer t(spans, Layer::kSimulate, times.simulate_s);
      result = iter::run_alg1(run_op, options);
    }
    finish_replication(rep, trace, times, result.fingerprint,
                       result.events_processed);

    obs::Registry& reg = *registry;
    tally_registry(rep, reg);
    if (!result.converged) {
      rep.failures.push_back("run " + std::to_string(r) +
                             " hit the round cap without converging");
    }
    Counts& c = rep.counts;
    c["sim.events"] += static_cast<double>(result.events_processed);
    c["sim.queue_high_water"] =
        std::max(c["sim.queue_high_water"],
                 reg.gauge(names::kSimHeapHighWater).value());
    c["sim.queue_resizes"] += counter(reg, names::kSimQueueBucketResizes);
    c["sim.arena_heap_allocs"] += counter(reg, names::kSimEventHeapAllocs);
    c["iter.rounds"] += static_cast<double>(result.rounds);
    c["iter.pseudocycles"] += static_cast<double>(result.pseudocycles);
    if (rep.head.size() < 2) {
      rep.head.push_back({{"rounds", result.rounds},
                          {"pseudocycles", result.pseudocycles},
                          {"msgs", result.messages.total},
                          {"retries", result.retries}});
    }
    if (trace != nullptr) {
      c["quorum.picks"] += static_cast<double>(traced_quorums->picks());
      c["apps.apply_calls"] += static_cast<double>(traced_op->applies());
    }
  }
  if (trace != nullptr) add_profiler_counts(rep, profiler);
  return rep;
}

// ---------------------------------------------------------------------------
// The sharded store workloads: experiment_cli app=store's replication,
// optionally with durable replicas under churn (app=avail recovery=wal's
// storage stack).

// Parameters both store workloads share (experiment_cli app=store's
// servers=32 replicas=3 k=2 vnodes=16 clients=64 theta=0.8; its StoreLoop
// puts with probability 0.4).
constexpr double kTheta = 0.8;
constexpr std::size_t kServers = 32;
constexpr std::size_t kReplicas = 3;
constexpr std::size_t kQuorumK = 2;
constexpr std::size_t kVnodes = 16;
constexpr std::size_t kClients = 64;
constexpr double kPutFrac = 0.4;
constexpr std::size_t kSnapshotEvery = 64;

struct StoreShape {
  std::size_t keys = 0;
  std::size_t ops = 0;
  double horizon = 600.0;
  double downtime = 0.0;  ///< churn: fraction of time each server is down
  bool durable = false;
};

/// store_zipf: app=store at 10^5 keys, no faults.
constexpr StoreShape kZipfShape{.keys = 100000, .ops = 400};

/// store_durable_churn: app=store at 10^4 keys under churn, every replica on
/// a WAL + snapshots.  Durable replicas add no events, so each replication
/// has the fingerprint of the same app=store run without them.
constexpr StoreShape kChurnShape{.keys = 10000,
                                 .ops = 300,
                                 .horizon = 2000.0,
                                 .downtime = 0.2,
                                 .durable = true};

/// One store client's closed loop, as experiment_cli's StoreLoop: think
/// U(0,2), then a put on an owned key or a Zipf-skewed get, one op at a
/// time until `ops` settle.  Traced runs span each get/put call.
class StoreClientLoop {
 public:
  StoreClientLoop(sim::Simulator& simulator,
                  core::keyspace::ShardedStoreClient& client, util::Rng rng,
                  std::size_t ops, std::size_t own_index,
                  std::size_t keys_per_client, const util::Zipfian& zipf,
                  SpanBuffer* spans)
      : simulator_(simulator),
        client_(client),
        rng_(std::move(rng)),
        remaining_(ops),
        own_index_(own_index),
        keys_per_client_(keys_per_client),
        zipf_(zipf),
        spans_(spans) {}

  void begin() { think(); }

 private:
  void think() {
    if (remaining_ == 0) return;
    --remaining_;
    simulator_.schedule_in(rng_.uniform01() * 2.0, sim::EventTag::kWorkload,
                           [this] { next_op(); });
  }

  void next_op() {
    ScopedSpan span(spans_, Layer::kClientIssue);
    if (rng_.bernoulli(kPutFrac)) {
      const std::size_t slot =
          keys_per_client_ > 1
              ? static_cast<std::size_t>(rng_.below(keys_per_client_))
              : 0;
      const auto key = static_cast<net::KeyId>(slot * kClients + own_index_);
      client_.put(key, util::encode(++next_value_),
                  [this](core::Timestamp) { think(); });
    } else {
      const auto key = static_cast<net::KeyId>(zipf_.draw(rng_));
      client_.get(key, [this](core::ReadResult) { think(); });
    }
  }

  sim::Simulator& simulator_;
  core::keyspace::ShardedStoreClient& client_;
  util::Rng rng_;
  std::size_t remaining_;
  std::size_t own_index_;
  std::size_t keys_per_client_;
  const util::Zipfian& zipf_;
  SpanBuffer* spans_;
  std::int64_t next_value_ = 0;
};

/// Crash -> up: drop the node's volatile storage and replay its durable
/// prefix (experiment_cli app=avail recovery=wal).
class WalRecovery final : public net::NodeLifecycleListener {
 public:
  WalRecovery(std::deque<storage::MemDisk>& disks,
              std::deque<storage::DurableStore>& stores, SpanBuffer* spans)
      : disks_(disks), stores_(stores), spans_(spans) {}

  void on_recover(net::NodeId node) override {
    if (node >= disks_.size()) return;
    ScopedSpan span(spans_, Layer::kStorageRecover);
    disks_[node].drop_volatile();
    stores_[node].recover();
  }

 private:
  std::deque<storage::MemDisk>& disks_;
  std::deque<storage::DurableStore>& stores_;
  SpanBuffer* spans_;
};

/// experiment_cli's churn schedule: exponential up/down periods splitting a
/// 400-time-unit cycle so each server is down a fraction d of the time.
net::FaultPlan churn_plan(const StoreShape& shape, std::uint64_t run_seed) {
  constexpr double kCycle = 400.0;
  util::Rng churn_rng(run_seed * 1000003 + 17);
  return net::FaultPlan::random_churn(kServers, shape.horizon,
                                      kCycle * (1.0 - shape.downtime),
                                      kCycle * shape.downtime, churn_rng);
}

/// Everything one store replication builds before its first event.
struct StoreSystem {
  StoreSystem(std::uint64_t run_seed, SpanBuffer* spans)
      : master(run_seed),
        ring(kVnodes),
        quorums(kReplicas, kQuorumK),
        delays(sim::make_exponential_delay(1.0)),
        transport(simulator, *delays, master.fork(10),
                  static_cast<net::NodeId>(kServers + kClients)) {
    if (spans != nullptr) {
      traced_transport.emplace(transport, *spans,
                               static_cast<net::NodeId>(kServers + kClients),
                               static_cast<net::NodeId>(kServers));
      traced_quorums.emplace(quorums, *spans);
      simulator.set_profiler(&profiler);
    }
  }

  net::Transport& net() {
    return traced_transport ? static_cast<net::Transport&>(*traced_transport)
                            : transport;
  }
  const quorum::QuorumSystem& quorum_system() const {
    return traced_quorums
               ? static_cast<const quorum::QuorumSystem&>(*traced_quorums)
               : quorums;
  }

  util::Rng master;
  obs::Registry registry{obs::Concurrency::kSingleThread};
  core::keyspace::HashRing ring;
  quorum::ProbabilisticQuorums quorums;
  sim::Simulator simulator;
  sim::Profiler profiler;
  std::unique_ptr<sim::DelayModel> delays;
  net::SimTransport transport;
  std::optional<TracingTransport> traced_transport;
  std::optional<TracingQuorums> traced_quorums;
  std::deque<core::ServerProcess> servers;
  std::deque<storage::MemDisk> disks;
  std::deque<TracingBackend> traced_disks;
  std::deque<storage::DurableStore> stores;
  std::deque<TracingStoreListener> traced_stores;
  std::optional<WalRecovery> recovery;
  core::spec::HistoryRecorder history;
  std::deque<core::keyspace::ShardedStoreClient> clients;
  std::deque<StoreClientLoop> loops;
};

void build_store(StoreSystem& sys, const StoreShape& shape,
                 std::uint64_t run_seed, const util::Zipfian& zipf,
                 SpanBuffer* spans) {
  const auto n = static_cast<net::NodeId>(kServers);
  const std::size_t keys_per_client = (shape.keys + kClients - 1) / kClients;
  const std::size_t total_keys = keys_per_client * kClients;
  for (net::NodeId s = 0; s < n; ++s) sys.ring.add_node(s);
  sys.transport.bind_metrics(sys.registry);
  sys.transport.faults().bind_metrics(sys.registry);
  for (net::NodeId s = 0; s < n; ++s) {
    sys.servers.emplace_back(sys.net(), s, &sys.registry);
  }

  sys.history.reserve(total_keys + 4 * kClients * shape.ops);
  const core::Value zero = util::encode<std::int64_t>(0);
  const std::size_t expected_writes =
      std::min(total_keys, kClients * shape.ops);
  const std::size_t per_server = expected_writes * kReplicas / kServers + 16;
  for (core::ServerProcess& s : sys.servers) {
    s.replica().set_default_initial(zero);
    s.replica().reserve(per_server);
  }
  for (std::size_t key = 0; key < total_keys; ++key) {
    sys.history.record_initial(static_cast<net::KeyId>(key));
  }

  if (shape.durable) {
    for (net::NodeId s = 0; s < n; ++s) {
      sys.disks.emplace_back(s, &sys.transport.faults(),
                             sys.master.fork(300 + s));
      storage::StorageBackend* backend = &sys.disks.back();
      if (spans != nullptr) {
        sys.traced_disks.emplace_back(sys.disks.back(), *spans);
        backend = &sys.traced_disks.back();
      }
      sys.stores.emplace_back(*backend,
                              storage::DurableStore::Options{kSnapshotEvery});
      core::Replica& replica = sys.servers[s].replica();
      sys.stores.back().attach(replica);
      sys.stores.back().checkpoint();
      if (spans != nullptr) {
        sys.traced_stores.emplace_back(sys.stores.back(), *spans);
        replica.bind_storage(&sys.traced_stores.back());
      }
    }
    sys.recovery.emplace(sys.disks, sys.stores, spans);
    sys.transport.faults().set_lifecycle_listener(&*sys.recovery);
  }

  core::keyspace::ShardedStoreOptions sopts;
  sopts.client.monotone = true;
  sopts.client.metrics = &sys.registry;
  sopts.client.retry.rpc_timeout = 6.0;
  sopts.client.retry.backoff_factor = 1.5;
  sopts.client.retry.max_backoff = 24.0;
  sopts.client.retry.jitter = 0.1;
  for (std::size_t i = 0; i < kClients; ++i) {
    sys.clients.emplace_back(sys.simulator, sys.net(),
                             static_cast<net::NodeId>(kServers + i),
                             sys.ring, sys.quorum_system(),
                             sys.master.fork(500 + i), sopts, &sys.history);
    sys.loops.emplace_back(sys.simulator, sys.clients.back(),
                           sys.master.fork(900 + i), shape.ops, i,
                           keys_per_client, zipf, spans);
  }

  // Churn (or nothing), then the horizon heal that lets every pending op
  // finish so [R1] stays checkable — scheduled even without faults, as
  // experiment_cli does, so fingerprints match it.
  net::FaultPlan plan;
  if (shape.downtime > 0.0) plan = churn_plan(shape, run_seed);
  plan.install(sys.simulator, sys.transport);
  net::SimTransport& transport = sys.transport;
  sys.simulator.schedule_at(shape.horizon, sim::EventTag::kFault,
                            [&transport, n] {
                              net::FaultInjector& inj = transport.faults();
                              for (net::NodeId s = 0; s < n; ++s) {
                                inj.recover(s);
                                inj.clear_slow(s);
                              }
                              inj.heal();
                              inj.set_message_faults(net::MessageFaults{});
                            });
}

void tally_store(Rep& rep, StoreSystem& sys) {
  tally_registry(rep, sys.registry);
  Counts& c = rep.counts;
  c["sim.events"] += static_cast<double>(sys.simulator.events_processed());
  c["sim.queue_high_water"] =
      std::max(c["sim.queue_high_water"],
               static_cast<double>(sys.simulator.queue_high_water()));
  c["sim.queue_resizes"] +=
      static_cast<double>(sys.simulator.queue_bucket_resizes());
  c["sim.arena_heap_allocs"] +=
      static_cast<double>(sys.simulator.alloc_stats().heap_allocations());
  c["core.keyspace.keys_created"] +=
      counter(sys.registry, names::kServerKeysCreated);
  c["spec.records"] += static_cast<double>(sys.history.ops().size());
  for (const storage::MemDisk& disk : sys.disks) {
    c["storage.appends"] += static_cast<double>(disk.counters().appends);
    c["storage.append_bytes"] +=
        static_cast<double>(disk.counters().append_bytes);
    c["storage.syncs"] += static_cast<double>(disk.counters().syncs);
    c["storage.snapshots"] +=
        static_cast<double>(disk.counters().snapshot_installs);
  }
  for (const storage::DurableStore& store : sys.stores) {
    c["storage.recoveries"] += static_cast<double>(store.counters().recoveries);
    c["storage.replayed_records"] +=
        static_cast<double>(store.counters().replayed_records);
  }
}

Rep rep_store(const StoreShape& shape, std::uint64_t seed, std::size_t first,
              std::size_t runs, TraceContext* trace) {
  Rep rep;
  SpanBuffer* spans = trace != nullptr ? &trace->spans : nullptr;
  std::optional<util::Zipfian> zipf;
  {
    // One zeta normalization per rep, as experiment_cli does per invocation.
    PhaseTimer t(nullptr, Layer::kSetup, rep.shared_setup_s);
    const std::size_t keys_rounded =
        (shape.keys + kClients - 1) / kClients * kClients;
    zipf.emplace(keys_rounded, kTheta);
  }

  for (std::size_t r = first; r < first + runs; ++r) {
    if (trace != nullptr) trace->spans.prepare(trace->capacity);
    const std::uint64_t run_seed = seed + r * 7919;
    RunTimes times;
    std::optional<StoreSystem> sys;
    {
      PhaseTimer t(spans, Layer::kSetup, times.setup_s);
      sys.emplace(run_seed, spans);
      build_store(*sys, shape, run_seed, *zipf, spans);
    }
    {
      PhaseTimer t(spans, Layer::kSimulate, times.simulate_s);
      for (StoreClientLoop& loop : sys->loops) loop.begin();
      sys->simulator.run_until(shape.horizon + 1000.0 +
                               60.0 * static_cast<double>(shape.ops));
    }
    core::spec::KeyedBatchResult batch;
    {
      PhaseTimer t(spans, Layer::kCheck, times.check_s);
      core::spec::BatchOptions bo;
      bo.r4 = true;
      batch = core::spec::check_batch_by_key(sys->history.ops(), bo);
    }
    finish_replication(rep, trace, times, sys->simulator.fingerprint(),
                       sys->simulator.events_processed());
    if (!batch.ok()) {
      rep.failures.push_back("run " + std::to_string(r) + ": spec " +
                             batch.summary());
    }
    rep.counts["spec.keys_checked"] += static_cast<double>(batch.keys_checked);
    tally_store(rep, *sys);
    if (rep.head.size() < 2) {
      std::size_t keys_touched = 0;
      for (const auto& c : sys->clients) keys_touched += c.keys_touched();
      rep.head.push_back({{"fingerprint", sys->simulator.fingerprint()},
                          {"ops", sys->history.ops().size()},
                          {"keys_touched", keys_touched}});
    }
    if (trace != nullptr) {
      add_profiler_counts(rep, sys->profiler);
      rep.counts["net.send_calls"] +=
          static_cast<double>(sys->traced_transport->send_calls());
      rep.counts["quorum.picks"] +=
          static_cast<double>(sys->traced_quorums->picks());
      for (const TracingBackend& disk : sys->traced_disks) {
        rep.counts["storage.snapshot_bytes"] +=
            static_cast<double>(disk.snapshot_bytes());
      }
    }
    // The listener lives in the system; detach before members unwind.
    sys->transport.faults().set_lifecycle_listener(nullptr);
  }
  return rep;
}

// ---------------------------------------------------------------------------

/// A workload.  Its default rep takes about 2.5 s on the reference host, so
/// a run of BENCHMARK.json's length times every replication a dozen times
/// or more.
struct WorkloadDef {
  const char* name;
  std::size_t default_runs;
  /// Runs replications [first, first + runs).
  Rep (*rep)(std::uint64_t seed, std::size_t first, std::size_t runs,
             TraceContext* trace);
};

const WorkloadDef kWorkloads[] = {
    {"apsp_async", 100, rep_apsp},
    {"store_zipf", 40,
     [](std::uint64_t seed, std::size_t first, std::size_t runs,
        TraceContext* trace) {
       return rep_store(kZipfShape, seed, first, runs, trace);
     }},
    {"store_durable_churn", 40,
     [](std::uint64_t seed, std::size_t first, std::size_t runs,
        TraceContext* trace) {
       return rep_store(kChurnShape, seed, first, runs, trace);
     }},
};

// ---------------------------------------------------------------------------
// JSON output.

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string json_number(double x) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

std::string json_number(std::uint64_t x) { return std::to_string(x); }

template <typename Value>
std::string json_object(const std::map<std::string, Value>& fields) {
  std::string out = "{";
  for (const auto& [name, value] : fields) {
    if (out.size() > 1) out += ',';
    out += json_string(name) + ':' + json_number(value);
  }
  return out + "}";
}

std::string json_rep(const Rep& rep) {
  std::string out = "{\"shared_setup_s\":" + json_number(rep.shared_setup_s) +
                    ",\"events\":" + std::to_string(rep.events) +
                    ",\"max_run_events\":" +
                    std::to_string(rep.max_run_events) +
                    ",\"ops\":" + std::to_string(rep.ops) +
                    ",\"attempted\":" + std::to_string(rep.attempted) +
                    ",\"failed\":" + std::to_string(rep.failed) +
                    ",\"digest\":\"";
  char digest[24];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(rep.digest));
  out += digest;
  out += "\",\"times\":[";
  for (std::size_t i = 0; i < rep.times.size(); ++i) {
    const RunTimes& t = rep.times[i];
    if (i > 0) out += ',';
    out += '[' + json_number(t.setup_s) + ',' + json_number(t.simulate_s) +
           ',' + json_number(t.check_s) + ']';
  }
  out += "],\"failures\":[";
  for (std::size_t i = 0; i < rep.failures.size(); ++i) {
    if (i > 0) out += ',';
    out += json_string(rep.failures[i]);
  }
  out += "],\"counts\":" + json_object(rep.counts) + ",\"head\":[";
  for (std::size_t i = 0; i < rep.head.size(); ++i) {
    if (i > 0) out += ',';
    out += json_object(rep.head[i]);
  }
  out += "],\"deliver_s\":" + json_number(rep.deliver_s) +
         ",\"spans\":" + std::to_string(rep.spans) +
         ",\"span_overflow\":" + std::to_string(rep.span_overflow) +
         ",\"layers\":{";
  for (std::size_t l = 0; l < kNumLayers; ++l) {
    if (l > 0) out += ',';
    out += json_string(layer_name(static_cast<Layer>(l))) +
           ":{\"self_s\":" + json_number(rep.layers.self_s[l]) +
           ",\"total_s\":" + json_number(rep.layers.total_s[l]) +
           ",\"calls\":" + std::to_string(rep.layers.calls[l]) + "}";
  }
  return out + "}}";
}

std::string json_reps(const std::vector<Rep>& reps) {
  std::string out = "[";
  for (std::size_t i = 0; i < reps.size(); ++i) {
    if (i > 0) out += ',';
    out += json_rep(reps[i]);
  }
  return out + "]";
}

/// Peak resident set, in MB, of a child process that runs replication
/// \p index alone and exits; a negative value when the child fails.
double replication_peak_mb(const WorkloadDef& w, std::uint64_t seed,
                           std::size_t index) {
  std::fflush(nullptr);  // the child must not flush the parent's buffers
  const pid_t pid = fork();
  if (pid == 0) {
    try {
      w.rep(seed, index, 1, nullptr);
    } catch (...) {
      _exit(1);
    }
    _exit(0);
  }
  if (pid < 0) return -1.0;
  int status = 0;
  struct rusage usage {};
  if (wait4(pid, &status, 0, &usage) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return -1.0;
  }
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// The memory pass: the median over the first \p count replications of each
/// one's peak resident set, or a negative value when a child failed.
double peak_rss_mb(const WorkloadDef& w, std::uint64_t seed,
                   std::size_t count) {
  std::vector<double> peaks;
  for (std::size_t i = 0; i < count; ++i) {
    peaks.push_back(replication_peak_mb(w, seed, i));
    if (peaks.back() < 0.0) return -1.0;
  }
  std::sort(peaks.begin(), peaks.end());
  const std::size_t mid = peaks.size() / 2;
  return peaks.size() % 2 == 1 ? peaks[mid]
                               : 0.5 * (peaks[mid - 1] + peaks[mid]);
}

int usage_error(const char* msg) {
  std::fprintf(stderr,
               "%s\nusage: pqra_bench --workload NAME --seed N --seconds S "
               "[--trace 0|1] [--runs N] [--spans-out FILE]\n",
               msg);
  return 2;
}

/// Runs at least \p min_reps reps, then more while the next one, taking as
/// long as the last, still ends within \p budget_s of the start.
std::vector<Rep> measure_reps(const WorkloadDef& w, std::uint64_t seed,
                              std::size_t runs, double budget_s,
                              std::size_t min_reps, TraceContext* trace) {
  std::vector<Rep> reps;
  CpuRotation cpus;
  const Clock::time_point start = Clock::now();
  double last_s = 0.0;
  while (reps.size() < min_reps || seconds_since(start) + last_s <= budget_s) {
    const Clock::time_point rep_start = Clock::now();
    cpus.next_rep();
    reps.push_back(w.rep(seed, 0, runs, trace));
    last_s = seconds_since(rep_start);
  }
  return reps;
}

int bench_main(int argc, char** argv) {
  std::string workload;
  std::string spans_out;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::size_t runs = 0;
  bool traced = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage_error(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--spans-out") {
      spans_out = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(value.c_str(), &end);
    } else if (arg == "--runs") {
      runs = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--trace") {
      traced = std::strtoull(value.c_str(), &end, 10) != 0;
    } else {
      return usage_error(("unknown option " + arg).c_str());
    }
    if (end != nullptr && (*end != '\0' || end == value.c_str())) {
      return usage_error(("bad number for " + arg + ": " + value).c_str());
    }
  }
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& w : kWorkloads) {
    if (workload == w.name) def = &w;
  }
  if (def == nullptr) return usage_error("unknown or missing --workload");
  if (runs == 0) runs = def->default_runs;
  if (seconds < 0.0) return usage_error("--seconds must be >= 0");

  // peak_rss_mb is the median replication's own peak.  The peak of a process
  // that runs many replications is set by the largest one and by the heap
  // fragmentation the earlier ones left, and both move with the seed.  The
  // median is over every replication of a rep: store_durable_churn's peaks
  // fall near 12 MB or near 14.7 MB, a fifth to two fifths of them high,
  // and the median of ten flipped between the two from seed to seed.
  const double rss_mb = peak_rss_mb(*def, seed, runs);
  if (rss_mb < 0.0) {
    std::fprintf(stderr, "a memory-pass child failed\n");
    return 1;
  }

  // Traced runs need one untraced rep, for the deterministic counts and the
  // untraced baseline of the tracing overhead, and spend the rest traced.
  const Clock::time_point start = Clock::now();
  std::vector<Rep> untraced =
      traced ? measure_reps(*def, seed, runs, 0.0, 1, nullptr)
             : measure_reps(*def, seed, runs, seconds, kMinReps, nullptr);
  std::vector<Rep> traced_reps;
  TraceContext trace;
  if (traced) {
    // Room for every decorated call of the busiest replication: the store
    // workloads record about two spans per fired event, the others fewer.
    // A full buffer fails the run (span_overflow) rather than growing.
    std::uint64_t max_events = 0;
    for (const Rep& rep : untraced) {
      max_events = std::max(max_events, rep.max_run_events);
    }
    trace.capacity = static_cast<std::size_t>(4 * max_events + 4096);
    trace.keep_first = !spans_out.empty();
    traced_reps = measure_reps(*def, seed, runs, seconds - seconds_since(start),
                               2, &trace);
    if (!spans_out.empty()) {
      std::ofstream out(spans_out);
      write_spans_jsonl(trace.first_run, out);
      if (!out) {
        std::fprintf(stderr, "cannot write spans to %s\n", spans_out.c_str());
        return 1;
      }
    }
  }

  std::printf("{\"workload\":%s,\"seed\":%llu,\"runs\":%zu,"
              "\"peak_rss_mb\":%s,\"untraced\":%s,\"traced\":%s}\n",
              json_string(def->name).c_str(),
              static_cast<unsigned long long>(seed), runs,
              json_number(rss_mb).c_str(), json_reps(untraced).c_str(),
              json_reps(traced_reps).c_str());
  return 0;
}

}  // namespace
}  // namespace pqra::bench

int main(int argc, char** argv) { return pqra::bench::bench_main(argc, argv); }
