#pragma once

/// \file alg1_des.hpp
/// Alg. 1 of §5 executed over quorum registers in the discrete-event
/// simulator.
///
/// Responsibility for the m components is partitioned over p processes
/// (owner(j) = j mod p).  Every process loops: read all m registers (in
/// parallel), apply F to the assembled vector, write the components it owns,
/// repeat.  Execution stops when every process's local copy of its owned
/// components equals the precomputed fixed point (the paper's §7 stopping
/// rule), or when the round cap is hit (the paper reports such runs as
/// lower bounds).

#include <memory>
#include <optional>

#include "core/quorum_register_client.hpp"
#include "core/spec/history.hpp"
#include "iter/aco.hpp"
#include "net/fault_plan.hpp"
#include "net/transport.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "quorum/quorum_system.hpp"
#include "util/stats.hpp"

namespace pqra::iter {

struct Alg1Options {
  /// Quorum system shared by all clients (non-owning; required).
  const quorum::QuorumSystem* quorums = nullptr;

  /// p; defaults to m (the paper's APSP setup: one process per row).
  std::optional<std::size_t> num_processes;

  /// Monotone (§6.2) vs plain probabilistic register.
  bool monotone = true;

  /// Read repair: reads push the freshest value to stale responders
  /// (fire-and-forget; extension — see ClientOptions::read_repair).
  bool read_repair = false;

  /// Atomic-mode reads (write-back before returning; extension).
  bool write_back = false;

  /// Server-side anti-entropy gossip period (extension; unset = no gossip).
  /// Note: gossip keeps the event queue alive, so stall-prone runs should
  /// also set max_sim_time.
  std::optional<sim::Time> gossip_interval;

  /// Snapshot reads (extension): each iteration reads all m registers
  /// through ONE quorum access instead of m (read cost per round drops from
  /// 2pmk to 2pk messages, at the price of correlated staleness).
  bool snapshot_reads = false;

  /// Synchronous (constant delay 1) vs asynchronous (exponential delays of
  /// mean 1), as in §7.
  bool synchronous = true;

  std::uint64_t seed = 1;

  /// Stop after this many completed rounds and report converged = false.
  std::size_t round_cap = 100000;

  /// Record the full operation history (Alg1Result::history) for spec
  /// checking and export via core::spec::write_history_jsonl; costs memory,
  /// so it is off for the big Figure 2 sweeps.
  bool record_history = false;

  /// Crash these servers before the run starts (availability experiments).
  std::vector<net::NodeId> crashed_servers;

  /// Timed crash/recovery schedule installed before the run (churn
  /// experiments); non-owning, may be nullptr.
  const net::FaultPlan* fault_plan = nullptr;

  /// Recovery policy (backoff, jitter, deadline, graceful degradation —
  /// docs/FAULTS.md); needed for liveness under crashes.
  /// core::RetryPolicy::fixed(t) retries every t time units.
  std::optional<core::RetryPolicy> retry;

  /// Hard wall on simulated time; ends the run unconverged.  Needed when an
  /// execution can stall forever (e.g. a strict system with too many crashed
  /// servers keeps retrying without progress).
  std::optional<sim::Time> max_sim_time;

  /// Optional metrics registry (non-owning).  All layers — clients, servers,
  /// transport, simulator — report into it; instruments only count, they
  /// never schedule events, so the simulated execution is unchanged.
  obs::Registry* metrics = nullptr;

  /// Optional causal span sink (non-owning): clients emit op/RPC/retry
  /// spans, servers parent their handling spans through the message
  /// headers.  Deterministic given the sink's sampling options; see
  /// obs/span.hpp and docs/OBSERVABILITY.md.
  obs::SpanSink* spans = nullptr;

  /// Optional flight recorder (non-owning): the transport records every
  /// send/deliver/drop into the ring; dump it when something goes wrong.
  obs::FlightRecorder* flight_recorder = nullptr;

  /// Optional DES self-profiler (non-owning): attaches to the simulator for
  /// the run.  Wall-time attribution makes outputs nondeterministic — never
  /// route profiler data into determinism-compared artifacts
  /// (sim/profiler.hpp); only its deterministic fire counts are published
  /// into `metrics`.
  sim::Profiler* profiler = nullptr;
};

struct Alg1Result {
  bool converged = false;
  /// Rounds until convergence, including the partial round in progress when
  /// the last process became correct (the §7 measure); equals the cap when
  /// converged == false.
  std::size_t rounds = 0;
  std::size_t iterations = 0;
  std::size_t pseudocycles = 0;
  sim::Time sim_time = 0.0;
  /// Schedule identity of the run (Simulator::fingerprint /
  /// events_processed): equal pairs mean the exact same event schedule
  /// executed — what the exploration fuzzer's replay check asserts.
  std::uint64_t fingerprint = 0;
  std::uint64_t events_processed = 0;
  net::MessageStats messages;
  std::uint64_t monotone_cache_hits = 0;
  std::uint64_t retries = 0;
  /// Operation latency in simulated time, merged over all processes.
  util::OnlineStats read_latency;
  util::OnlineStats write_latency;
  /// Populated when Alg1Options::record_history is set.
  std::shared_ptr<core::spec::HistoryRecorder> history;
};

/// Runs one complete execution.  Deterministic in (op, options.seed).
Alg1Result run_alg1(const AcoOperator& op, const Alg1Options& options);

}  // namespace pqra::iter
