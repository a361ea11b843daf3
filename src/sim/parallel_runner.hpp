#pragma once

/// \file parallel_runner.hpp
/// Worker pool for independent seeded replications.
///
/// Experiments in this repo are Monte Carlo estimates over R replications,
/// each a pure function of its seed: fork a decorrelated Rng stream, build a
/// private Simulator plus obs::Registry shard, run, return a result struct.
/// Runs never share mutable state, so they parallelise embarrassingly — the
/// only subtlety is keeping the OUTPUT deterministic.  ParallelRunner fixes
/// that by contract:
///
///   - work is handed out by index; which worker executes which index is
///     scheduling noise and must not matter;
///   - results land in a slot vector at their index, so map() returns them
///     in run order no matter the completion order;
///   - callers merge side outputs (metric shards, traces) AFTER map()
///     returns, iterating the result vector in index order.
///
/// Under that discipline `--jobs N` is byte-identical to `--jobs 1` — the
/// determinism regression in tests/ holds the CLI to exactly that.
///
/// jobs == 1 runs inline on the calling thread (no pool, no synchronisation)
/// so the sequential path stays exactly as debuggable as before.
///
/// The pool is NOT a general task graph: one blocking batch at a time, no
/// nesting, no work stealing.  Replication counts are tens-to-thousands and
/// each run is milliseconds-to-seconds, so a dead-simple shared-counter loop
/// is both sufficient and easy to reason about under TSan.

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace pqra::sim {

/// The most worker threads a runner starts.  ParallelRunner starts all of
/// them on its first batch, whatever the batch size, so the command-line
/// drivers reject a larger `jobs` before any run.
inline constexpr std::size_t kMaxJobs = 64;

/// Picks a worker count for `--jobs 0` / unset: hardware concurrency,
/// clamped to [1, kMaxJobs] (hardware_concurrency() may return 0).
std::size_t default_jobs();

class ParallelRunner {
 public:
  /// \p jobs: number of worker threads; 0 means default_jobs().  Workers are
  /// spawned lazily on the first batch that needs them, so constructing a
  /// runner you end up using with single-run batches costs nothing.
  explicit ParallelRunner(std::size_t jobs = 0);
  ~ParallelRunner();

  ParallelRunner(const ParallelRunner&) = delete;
  ParallelRunner& operator=(const ParallelRunner&) = delete;

  std::size_t jobs() const { return jobs_; }

  /// Runs fn(0) .. fn(count - 1), each exactly once, distributed over the
  /// pool; blocks until all complete.  Indices are claimed from a shared
  /// counter, so they start in roughly ascending order but COMPLETE in any
  /// order — fn must not depend on cross-index ordering.  If any invocation
  /// throws, the batch still drains (every index runs) and the exception for
  /// the LOWEST failing index is rethrown — deterministic, jobs-invariant
  /// error reporting.
  void for_each_index(std::size_t count,
                      const std::function<void(std::size_t)>& fn);

  /// Deterministic fan-out/fan-in: returns {fn(0), ..., fn(count - 1)} in
  /// index order regardless of jobs or completion order.  R must be
  /// move-constructible.
  template <typename R>
  std::vector<R> map(std::size_t count,
                     const std::function<R(std::size_t)>& fn) {
    std::vector<std::optional<R>> slots(count);
    for_each_index(count,
                   [&](std::size_t i) { slots[i].emplace(fn(i)); });
    std::vector<R> out;
    out.reserve(count);
    for (std::optional<R>& slot : slots) out.push_back(std::move(*slot));
    return out;
  }

 private:
  void worker_loop();
  void ensure_workers();

  const std::size_t jobs_;

  std::mutex mutex_;
  std::condition_variable work_cv_;  // workers wait for a batch / shutdown
  std::condition_variable done_cv_;  // for_each_index waits for drain
  // Current batch, valid while batch_open_: indices [next_, count_) are
  // unclaimed, in_flight_ counts claimed-but-unfinished ones.
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t count_ = 0;
  std::size_t next_ = 0;
  std::size_t in_flight_ = 0;
  bool batch_open_ = false;
  bool shutdown_ = false;
  // Lowest-index failure of the current batch.
  std::size_t error_index_ = 0;
  std::exception_ptr error_;

  std::vector<std::thread> workers_;  // spawned on first multi-run batch
};

}  // namespace pqra::sim
