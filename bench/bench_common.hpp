#pragma once

/// \file bench_common.hpp
/// Shared plumbing for the experiment harnesses: environment knobs and
/// fixed-width table printing.
///
/// Knobs (all optional):
///   PQRA_RUNS=<n>   override the number of repetitions per configuration
///   PQRA_FAST=1     shrink sweeps for a quick smoke run
///   PQRA_SEED=<n>   master seed (default 1)
///   PQRA_JOBS=<n>   worker threads for replication loops (0 / unset =
///                   hardware concurrency; at most 64).  Output is
///                   byte-identical for any value — see
///                   docs/PERFORMANCE.md.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "sim/parallel_runner.hpp"
#include "util/math.hpp"

namespace pqra::bench {

/// The knob \p name as a whole number, \p fallback when it is unset; a
/// value that is not one (a sign, a fraction, trailing text) exits 2
/// naming the variable.
inline std::size_t env_size_t(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  const std::optional<std::size_t> parsed = util::parse_whole<std::size_t>(v);
  if (!parsed) {
    std::fprintf(stderr, "bad value '%s' for %s: expected a whole number\n",
                 v, name);
    std::exit(2);
  }
  return *parsed;
}

inline bool env_fast() { return env_size_t("PQRA_FAST", 0) != 0; }

inline std::uint64_t env_seed() {
  return static_cast<std::uint64_t>(env_size_t("PQRA_SEED", 1));
}

/// Number of repetitions; the paper uses 7 runs per configuration (§7).
inline std::size_t env_runs(std::size_t fallback = 7) {
  return env_size_t("PQRA_RUNS", env_fast() ? 2 : fallback);
}

/// Worker threads for the replication loops (sim::ParallelRunner); 0 means
/// hardware concurrency.  A value above sim::kMaxJobs exits 2.
inline std::size_t env_jobs() {
  const std::size_t jobs = env_size_t("PQRA_JOBS", 0);
  if (jobs > sim::kMaxJobs) {
    std::fprintf(stderr,
                 "bad value '%zu' for PQRA_JOBS: expected a whole number in "
                 "[0, %zu]\n",
                 jobs, sim::kMaxJobs);
    std::exit(2);
  }
  return jobs;
}

/// Wall-clock scope behind the standard stderr timing line
///
///   timing: <runs> runs in <wall> s wall (jobs=<jobs>) | <rate> events/s
///
/// — the same format examples/experiment_cli.cpp emits and
/// bench/run_benches.sh scrapes into the events_per_s JSON field.  Construct
/// at the top of main(), feed it work units as they complete (simulated
/// events where a DES runs; samples for the analytic sweeps), and call
/// emit() once before returning.  Not thread-safe: fold per-run counts in
/// after a ParallelRunner::map, not inside it.
class Timing {
 public:
  Timing() : start_(std::chrono::steady_clock::now()) {}

  void add(std::uint64_t events, std::size_t runs = 1) {
    events_ += events;
    runs_ += runs;
  }

  void emit(std::size_t jobs) const {
    double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    std::fprintf(stderr,
                 "timing: %zu runs in %.3f s wall (jobs=%zu) | %.0f events/s\n",
                 runs_, wall, jobs,
                 wall > 0.0 ? static_cast<double>(events_) / wall : 0.0);
  }

 private:
  std::chrono::steady_clock::time_point start_;
  std::uint64_t events_ = 0;
  std::size_t runs_ = 0;
};

/// Fixed-width table writer.
class Table {
 public:
  explicit Table(std::vector<std::string> headers, int width = 12)
      : headers_(std::move(headers)), width_(width) {}

  void print_header() const {
    for (const auto& h : headers_) std::printf("%*s", width_, h.c_str());
    std::printf("\n");
    for (std::size_t i = 0; i < headers_.size(); ++i) {
      for (int c = 0; c < width_; ++c) std::printf("%s", c ? "-" : " ");
    }
    std::printf("\n");
  }

  void cell(const std::string& s) const { std::printf("%*s", width_, s.c_str()); }
  void cell(double v, int precision = 2) const {
    std::printf("%*.*f", width_, precision, v);
  }
  void cell(std::size_t v) const {
    std::printf("%*llu", width_, static_cast<unsigned long long>(v));
  }
  void end_row() const { std::printf("\n"); }

 private:
  std::vector<std::string> headers_;
  int width_;
};

}  // namespace pqra::bench
