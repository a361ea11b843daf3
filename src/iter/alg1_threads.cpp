#include "iter/alg1_threads.hpp"

#include <atomic>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include <memory>

#include "core/blocking_register.hpp"
#include "core/threaded_server.hpp"
#include "iter/rounds.hpp"
#include "net/fault_plan.hpp"
#include "net/thread_transport.hpp"
#include "util/check.hpp"

namespace pqra::iter {

Alg1ThreadsResult run_alg1_threads(const AcoOperator& op,
                                   const Alg1ThreadsOptions& options) {
  PQRA_REQUIRE(options.quorums != nullptr, "a quorum system is required");
  const quorum::QuorumSystem& quorums = *options.quorums;
  const std::size_t m = op.num_components();
  const std::size_t p = options.num_processes.value_or(m);
  PQRA_REQUIRE(p >= 1, "need at least one process");
  const std::size_t n = quorums.num_servers();

  util::Rng master(options.seed);
  net::ThreadTransport transport(static_cast<net::NodeId>(n + p),
                                 /*fault_seed=*/options.seed);
  if (options.metrics != nullptr) transport.bind_metrics(*options.metrics);

  // Server threads at NodeIds [0, n), replicas preloaded before they start.
  std::vector<std::unique_ptr<core::ThreadedServer>> servers;
  servers.reserve(n);
  for (std::size_t s = 0; s < n; ++s) {
    core::Replica replica;
    for (std::size_t j = 0; j < m; ++j) {
      replica.preload(static_cast<net::RegisterId>(j), op.initial(j));
    }
    servers.push_back(std::make_unique<core::ThreadedServer>(
        transport, static_cast<net::NodeId>(s), std::move(replica),
        options.metrics));
  }

  Alg1ThreadsResult result;

  // Shared, mutex-protected progress state.
  std::mutex progress_mutex;
  RoundTracker rounds(p);
  std::vector<bool> correct(p, false);
  std::size_t correct_count = 0;
  std::atomic<bool> stop{false};
  std::uint64_t cache_hits_total = 0;

  auto worker = [&](std::size_t i) {
    core::BlockingRegisterClient client(
        transport, static_cast<net::NodeId>(n + i), quorums,
        master.fork(100 + i), options.monotone, options.metrics,
        options.retry);
    std::vector<std::size_t> owned;
    for (std::size_t j = i; j < m; j += p) owned.push_back(j);

    std::vector<Value> local(m);
    bool transport_closed = false;
    while (!transport_closed && !stop.load(std::memory_order_acquire)) {
      // A sweep abandoned by an operation timeout (kTimedOut, possible only
      // under fault injection with a deadline policy) just starts the next
      // round — Alg. 1 tolerates the resulting stale local view.
      bool sweep_failed = false;
      for (std::size_t j = 0; j < m; ++j) {
        auto r = client.read(static_cast<net::RegisterId>(j));
        if (!r.has_value()) {
          if (client.last_status() == core::OpStatus::kShutdown) {
            transport_closed = true;
          } else {
            sweep_failed = true;
          }
          break;
        }
        local[j] = std::move(r->value);
      }
      if (transport_closed || sweep_failed) continue;
      std::vector<Value> updated;
      updated.reserve(owned.size());
      for (std::size_t j : owned) updated.push_back(op.apply(j, local));
      for (std::size_t idx = 0; idx < owned.size(); ++idx) {
        local[owned[idx]] = std::move(updated[idx]);
      }
      for (std::size_t j : owned) {
        if (!client.write(static_cast<net::RegisterId>(j), local[j])
                 .has_value()) {
          if (client.last_status() == core::OpStatus::kShutdown) {
            transport_closed = true;
          } else {
            sweep_failed = true;
          }
          break;
        }
      }
      if (transport_closed || sweep_failed) continue;

      bool now_correct = true;
      for (std::size_t j : owned) {
        if (!op.locally_converged(j, local[j], local)) {
          now_correct = false;
          break;
        }
      }

      std::lock_guard lock(progress_mutex);
      rounds.iteration_completed(i);
      if (correct[i] != now_correct) {
        correct[i] = now_correct;
        if (now_correct) {
          ++correct_count;
        } else {
          --correct_count;
        }
      }
      if (correct_count == p) {
        result.converged = true;
        result.rounds = rounds.rounds_including_partial();
        stop.store(true, std::memory_order_release);
      } else if (rounds.completed_rounds() >= options.round_cap) {
        result.converged = false;
        result.rounds = rounds.completed_rounds();
        stop.store(true, std::memory_order_release);
      }
    }

    // Teardown-only aggregation: the client accumulated its latency stats
    // lock-free while running; one merge per thread happens here, after the
    // iteration loop, so the hot path never takes a global lock.
    std::lock_guard lock(progress_mutex);
    cache_hits_total += client.counters().monotone_cache_hits;
    result.retries += client.counters().retries;
    result.op_failures += client.counters().op_failures;
    result.read_latency.merge(client.read_latency());
    result.write_latency.merge(client.write_latency());
  };

  {
    // The fault driver (if any) runs for the workers' whole lifetime and is
    // stopped before the transport closes so it never races teardown.
    std::unique_ptr<net::LiveFaultDriver> driver;
    if (options.fault_plan != nullptr && !options.fault_plan->empty()) {
      driver = std::make_unique<net::LiveFaultDriver>(
          *options.fault_plan, transport, options.seconds_per_time_unit);
    }
    std::vector<std::thread> threads;
    threads.reserve(p);
    for (std::size_t i = 0; i < p; ++i) {
      threads.emplace_back([&worker, i] { worker(i); });
    }
    for (auto& t : threads) t.join();
    if (driver) driver->stop();
  }

  // All clients are done; unblock and join the servers.  A still-crashed
  // server is no obstacle: crash only drops its messages at send time, and
  // close() unblocks every mailbox.
  result.faults =
      transport.with_faults([](net::FaultInjector& f) { return f.counters(); });
  transport.close();
  servers.clear();

  std::lock_guard lock(progress_mutex);
  result.iterations = rounds.iterations_total();
  result.messages = transport.stats();
  result.monotone_cache_hits = cache_hits_total;
  if (!result.converged && result.rounds == 0) {
    result.rounds = rounds.rounds_including_partial();
  }
  return result;
}

}  // namespace pqra::iter
