#include "iter/alg1_des.hpp"

#include <utility>

#include "core/server_process.hpp"
#include "iter/pseudocycle.hpp"
#include "iter/rounds.hpp"
#include "net/sim_transport.hpp"
#include "obs/names.hpp"
#include "sim/simulator.hpp"
#include "util/check.hpp"
#include "util/codec.hpp"

namespace pqra::iter {

namespace {

/// One application process: owns a register client and drives the Alg. 1
/// loop through continuation callbacks.
class Alg1Process {
 public:
  Alg1Process(std::size_t index, std::size_t num_processes,
              const AcoOperator& op, sim::Simulator& simulator,
              net::Transport& transport, net::NodeId node,
              const quorum::QuorumSystem& quorums, const util::Rng& rng,
              core::ClientOptions client_options, bool snapshot_reads,
              core::spec::HistoryRecorder* history)
      : index_(index),
        op_(op),
        client_(simulator, transport, node, quorums, rng, client_options,
                history),
        snapshot_reads_(snapshot_reads),
        local_(op.num_components()),
        read_ts_(op.num_components(), 0) {
    for (std::size_t j = index_; j < op_.num_components();
         j += num_processes) {
      owned_.push_back(j);
    }
  }

  /// Wires the process to the shared trackers; called once before start.
  void attach(RoundTracker* rounds, PseudocycleTracker* pseudocycles,
              // pqra-lint: allow(hotpath-function) — wired once at setup
              std::function<void(std::size_t)> on_iteration_end) {
    rounds_ = rounds;
    pseudocycles_ = pseudocycles;
    on_iteration_end_ = std::move(on_iteration_end);
  }

  void start_iteration() {
    const std::size_t m = op_.num_components();
    if (snapshot_reads_) {
      std::vector<net::RegisterId> regs(m);
      for (std::size_t j = 0; j < m; ++j) {
        regs[j] = static_cast<net::RegisterId>(j);
      }
      client_.read_snapshot(std::move(regs),
                            [this](std::vector<core::ReadResult> results) {
                              for (std::size_t j = 0; j < results.size(); ++j) {
                                local_[j] = std::move(results[j].value);
                                read_ts_[j] = results[j].ts;
                              }
                              compute_and_write();
                            });
      return;
    }
    reads_outstanding_ = m;
    for (std::size_t j = 0; j < m; ++j) {
      client_.read(static_cast<net::RegisterId>(j),
                   [this, j](core::ReadResult r) {
                     local_[j] = std::move(r.value);
                     read_ts_[j] = r.ts;
                     if (--reads_outstanding_ == 0) compute_and_write();
                   });
    }
  }

  bool correct() const { return correct_; }
  const core::ClientCounters& counters() const { return client_.counters(); }
  const util::OnlineStats& read_latency() const {
    return client_.read_latency();
  }
  const util::OnlineStats& write_latency() const {
    return client_.write_latency();
  }

 private:
  void compute_and_write() {
    // Apply F to the assembled view for every owned component, then write
    // them back.  The new values become this process's "local copy" that the
    // §7 stopping rule compares against the precomputed answer.
    std::vector<Value> updated;
    updated.reserve(owned_.size());
    for (std::size_t j : owned_) updated.push_back(op_.apply(j, local_));
    for (std::size_t idx = 0; idx < owned_.size(); ++idx) {
      local_[owned_[idx]] = std::move(updated[idx]);
    }

    if (owned_.empty()) {
      end_iteration();
      return;
    }
    writes_outstanding_ = owned_.size();
    for (std::size_t j : owned_) {
      // A Value copy shares the buffer with local_ (and with every WriteReq
      // the client fans out) — no byte duplication on the write path.
      client_.write(static_cast<net::RegisterId>(j), local_[j],
                    [this, j](core::Timestamp ts) {
                      pseudocycles_->on_write(j, ts);
                      if (--writes_outstanding_ == 0) end_iteration();
                    });
    }
  }

  void end_iteration() {
    correct_ = true;
    for (std::size_t j : owned_) {
      if (!op_.locally_converged(j, local_[j], local_)) {
        correct_ = false;
        break;
      }
    }
    rounds_->iteration_completed(index_);
    pseudocycles_->on_iteration(index_, read_ts_);
    on_iteration_end_(index_);
  }

  std::size_t index_;
  const AcoOperator& op_;
  core::QuorumRegisterClient client_;
  bool snapshot_reads_ = false;
  std::vector<std::size_t> owned_;
  std::vector<Value> local_;
  std::vector<core::Timestamp> read_ts_;
  std::size_t reads_outstanding_ = 0;
  std::size_t writes_outstanding_ = 0;
  bool correct_ = false;

  RoundTracker* rounds_ = nullptr;
  PseudocycleTracker* pseudocycles_ = nullptr;
  // pqra-lint: allow(hotpath-function) — set once at attach(), only invoked
  std::function<void(std::size_t)> on_iteration_end_;
};

}  // namespace

Alg1Result run_alg1(const AcoOperator& op, const Alg1Options& options) {
  PQRA_REQUIRE(options.quorums != nullptr, "a quorum system is required");
  const quorum::QuorumSystem& quorums = *options.quorums;
  const std::size_t m = op.num_components();
  const std::size_t p = options.num_processes.value_or(m);
  PQRA_REQUIRE(p >= 1, "need at least one process");
  const std::size_t n = quorums.num_servers();

  util::Rng master(options.seed);
  sim::Simulator simulator;
  std::unique_ptr<sim::DelayModel> delays =
      options.synchronous ? sim::make_constant_delay(1.0)
                          : sim::make_exponential_delay(1.0);
  net::SimTransport transport(simulator, *delays, master.fork(1),
                              static_cast<net::NodeId>(n + p));
  if (options.metrics != nullptr) transport.bind_metrics(*options.metrics);
  if (options.flight_recorder != nullptr) {
    transport.bind_flight_recorder(options.flight_recorder);
  }
  if (options.profiler != nullptr) simulator.set_profiler(options.profiler);

  // Servers at NodeIds [0, n), preloaded with the initial vector.
  core::GossipOptions gossip;
  if (options.gossip_interval.has_value()) {
    gossip.interval = *options.gossip_interval;
    gossip.group_size = n;
  }
  std::vector<std::unique_ptr<core::ServerProcess>> servers;
  servers.reserve(n);
  for (std::size_t s = 0; s < n; ++s) {
    if (gossip.interval > 0.0) {
      // pqra-lint: allow(hotpath-alloc) — scenario setup, before sim.run()
      servers.push_back(std::make_unique<core::ServerProcess>(
          transport, static_cast<net::NodeId>(s), simulator, gossip,
          master.fork(5000 + s), options.metrics));
    } else {
      // pqra-lint: allow(hotpath-alloc) — scenario setup, before sim.run()
      servers.push_back(std::make_unique<core::ServerProcess>(
          transport, static_cast<net::NodeId>(s), options.metrics));
    }
    if (options.spans != nullptr) {
      servers.back()->bind_spans(options.spans, simulator);
    }
    for (std::size_t j = 0; j < m; ++j) {
      servers.back()->replica().preload(static_cast<net::RegisterId>(j),
                                        op.initial(j));
    }
  }
  if (options.fault_plan != nullptr) {
    options.fault_plan->install(simulator, transport);
  }

  std::shared_ptr<core::spec::HistoryRecorder> history;
  if (options.record_history) {
    // pqra-lint: allow(hotpath-alloc) — scenario setup, before sim.run()
    history = std::make_shared<core::spec::HistoryRecorder>();
    for (std::size_t j = 0; j < m; ++j) {
      history->record_initial(static_cast<net::RegisterId>(j));
    }
  }

  core::ClientOptions client_options;
  client_options.monotone = options.monotone;
  if (options.retry.has_value()) client_options.retry = *options.retry;
  client_options.read_repair = options.read_repair;
  client_options.write_back = options.write_back;
  client_options.metrics = options.metrics;
  client_options.spans = options.spans;

  RoundTracker rounds(p);
  PseudocycleTracker pseudocycles(p, m);

  std::vector<std::unique_ptr<Alg1Process>> processes;
  processes.reserve(p);
  for (std::size_t i = 0; i < p; ++i) {
    // pqra-lint: allow(hotpath-alloc) — scenario setup, before sim.run()
    processes.push_back(std::make_unique<Alg1Process>(
        i, p, op, simulator, transport, static_cast<net::NodeId>(n + i),
        quorums, master.fork(100 + i), client_options,
        options.snapshot_reads, history.get()));
  }

  Alg1Result result;
  std::size_t correct_count = 0;
  std::vector<bool> was_correct(p, false);

  auto on_iteration_end = [&](std::size_t i) {
    bool now = processes[i]->correct();
    if (now != was_correct[i]) {
      was_correct[i] = now;
      if (now) {
        ++correct_count;
      } else {
        --correct_count;
      }
    }
    if (correct_count == p) {
      result.converged = true;
      result.rounds = rounds.rounds_including_partial();
      simulator.request_stop();
      return;
    }
    if (rounds.completed_rounds() >= options.round_cap) {
      result.converged = false;
      result.rounds = rounds.completed_rounds();
      simulator.request_stop();
      return;
    }
    processes[i]->start_iteration();
  };

  for (auto& proc : processes) {
    proc->attach(&rounds, &pseudocycles, on_iteration_end);
  }
  for (auto& proc : processes) proc->start_iteration();

  if (options.max_sim_time.has_value()) {
    simulator.run_until(*options.max_sim_time);
  } else {
    simulator.run();
  }
  if (!result.converged && result.rounds == 0) {
    // Stalled (crashed servers without retries / time wall hit): report what
    // completed.
    result.rounds = rounds.rounds_including_partial();
  }

  result.iterations = rounds.iterations_total();
  result.pseudocycles = pseudocycles.completed();
  result.sim_time = simulator.now();
  result.fingerprint = simulator.fingerprint();
  result.events_processed = simulator.events_processed();
  result.messages = transport.stats();
  for (auto& proc : processes) {
    result.monotone_cache_hits += proc->counters().monotone_cache_hits;
    result.retries += proc->counters().retries;
    result.read_latency.merge(proc->read_latency());
    result.write_latency.merge(proc->write_latency());
  }
  result.history = history;

  // End-of-run publication: simulator and executor figures land in the
  // registry only after the event loop stops, so instrumentation cannot
  // perturb event ordering (the determinism test relies on this).
  if (options.metrics != nullptr) {
    namespace n = obs::names;
    obs::Registry& reg = *options.metrics;
    reg.counter(n::kSimEvents, "Events processed by the DES main loop")
        .inc(simulator.events_processed());
    reg.gauge(n::kSimHeapHighWater, "Event-queue high-water mark",
              obs::GaugeMerge::kMax)
        .record_max(static_cast<double>(simulator.queue_high_water()));
    reg.counter(n::kSimQueueBucketResizes,
                "Event-queue reorganizations (always 0; deprecated)")
        .inc(simulator.queue_bucket_resizes());
    reg.counter(n::kSimEventHeapAllocs,
                "Heap allocations by the event-closure path (arena chunk "
                "growth + oversize fallbacks)")
        .inc(simulator.alloc_stats().heap_allocations());
    reg.gauge(n::kSimEventBlocksHighWater,
              "Event-arena live-block high-water mark",
              obs::GaugeMerge::kMax)
        .record_max(static_cast<double>(simulator.alloc_stats().blocks_high_water));
    reg.gauge(n::kSimTime, "Simulated time at end of run")
        .set(simulator.now());
    reg.gauge(n::kAlg1Rounds, "Rounds until convergence (or the cap)")
        .set(static_cast<double>(result.rounds));
    reg.gauge(n::kAlg1Pseudocycles, "Completed pseudocycles (§7)")
        .set(static_cast<double>(result.pseudocycles));
    reg.gauge(n::kAlg1Converged, "1 if the run converged, else 0")
        .set(result.converged ? 1.0 : 0.0);
    if (options.spans != nullptr) options.spans->publish(reg);
    if (options.flight_recorder != nullptr) {
      options.flight_recorder->publish(reg);
    }
    if (options.profiler != nullptr) {
      // Only the deterministic fire counts enter the registry; wall-time
      // attribution stays in the profiler (profile.json), because these
      // bytes are compared across --jobs by the determinism tests.
      reg.counter(n::kProfileFires, "Events fired with a profiler attached")
          .inc(options.profiler->total_fires());
      for (std::size_t t = 0; t < sim::kNumEventTags; ++t) {
        reg.counter(n::kProfileFiresByTag[t],
                    "Events fired with this tag (see sim::EventTag)")
            .inc(options.profiler->tag_stats(static_cast<sim::EventTag>(t))
                     .fires);
      }
    }
  }
  return result;
}

}  // namespace pqra::iter
