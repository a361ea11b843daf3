#pragma once

/// \file parallel_runner.hpp
/// Runs independent seeded replications on several threads.
///
/// Experiments in this repo are Monte Carlo estimates over R replications,
/// each a pure function of its seed: fork a decorrelated Rng stream, build a
/// private Simulator plus obs::Registry shard, run, return a result struct.
/// Runs never share mutable state, so they parallelise embarrassingly — the
/// only subtlety is keeping the OUTPUT deterministic.  ParallelRunner fixes
/// that by contract:
///
///   - work is handed out by index; which thread runs which index is
///     scheduling noise and must not matter;
///   - results land in a slot vector at their index, so map() returns them
///     in run order no matter the completion order;
///   - callers merge side outputs (metric shards, traces) AFTER map()
///     returns, iterating the result vector in index order.
///
/// Under that discipline `--jobs N` is byte-identical to `--jobs 1` — the
/// determinism regression in tests/ holds the CLI to exactly that.
///
/// Each batch runs on the calling thread plus min(jobs, count) - 1 helper
/// threads that it starts and joins before returning; all of them claim
/// indices from one shared counter.  So jobs == 1 (or a one-index batch)
/// starts no thread and runs every index on the calling thread, but like
/// any other jobs value it catches a throw, runs the remaining indices and
/// only then rethrows.  On a 4-core host a batch whose indices do nothing
/// takes about 55 us at jobs 4 and 1.7-2.8 ms at jobs 64, against about
/// 1.1 ms per pqra_explore seed and 8 seeds per thread per batch
/// (docs/PERFORMANCE.md has the measurements).  Nothing outlives a batch,
/// so there is no pool state to reason about under TSan.

#include <cstddef>
#include <functional>
#include <optional>
#include <vector>

namespace pqra::sim {

/// The most threads a batch runs on.  A batch of jobs or more indices
/// starts jobs - 1 helper threads, so the command-line drivers reject a
/// larger `jobs` before any run.
inline constexpr std::size_t kMaxJobs = 64;

/// Picks a worker count for `--jobs 0` / unset: hardware concurrency,
/// clamped to [1, kMaxJobs] (hardware_concurrency() may return 0).
std::size_t default_jobs();

class ParallelRunner {
 public:
  /// \p jobs: threads per batch, the calling thread included; 0 means
  /// default_jobs().
  explicit ParallelRunner(std::size_t jobs = 0);

  std::size_t jobs() const { return jobs_; }

  /// Runs fn(0) .. fn(count - 1), each exactly once, on up to jobs()
  /// threads; blocks until all complete.  Indices are claimed from a shared
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
  const std::size_t jobs_;
};

}  // namespace pqra::sim
