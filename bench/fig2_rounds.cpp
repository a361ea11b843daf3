/// \file fig2_rounds.cpp
/// Regenerates Figure 2 of the paper: quorum size vs rounds to convergence
/// for the APSP application on the 34-vertex unit-weight chain.
///
/// Paper setup (§7): 34 replicas, p = 34 processes (one per matrix row),
/// quorum sizes 1..18 (18 = floor(n/2)+1 makes all quorums overlap), four
/// combinations {monotone, non-monotone} x {synchronous, asynchronous
/// exponential delays}, 7 runs each; plus the Corollary 7 analytic bound
/// M / (1 - ((n-k)/n)^k) with M = ceil(log2 33) = 6.
///
/// Non-monotone runs that hit the round cap are reported as ">= cap" —
/// exactly how the paper reports its open squares ("lower bounds on the
/// actual values — the simulations did not complete").

#include <cstdio>
#include <string>

#include "apps/apsp.hpp"
#include "apps/graph.hpp"
#include "bench_common.hpp"
#include "iter/alg1_des.hpp"
#include "quorum/probabilistic.hpp"
#include "sim/parallel_runner.hpp"
#include "util/math.hpp"
#include "util/stats.hpp"

namespace {

using namespace pqra;

struct CellResult {
  double mean_rounds = 0.0;
  bool capped = false;  // some run hit the round cap: value is a lower bound
  std::uint64_t events = 0;  // simulator events across the cell's runs
};

CellResult run_cell(sim::ParallelRunner& pool, const apps::ApspOperator& op,
                    std::size_t n, std::size_t k, bool monotone,
                    bool synchronous, std::size_t runs, std::size_t round_cap,
                    std::uint64_t seed_base) {
  quorum::ProbabilisticQuorums qs(n, k);
  // Replications are independent seeded executions; fan them out and fold
  // the per-run figures back IN RUN ORDER, so the table is identical for
  // any PQRA_JOBS value.
  struct RunOut {
    double rounds = 0.0;
    bool converged = false;
    std::uint64_t events = 0;
  };
  std::vector<RunOut> outs = pool.map<RunOut>(runs, [&](std::size_t run) {
    iter::Alg1Options options;
    options.quorums = &qs;
    options.monotone = monotone;
    options.synchronous = synchronous;
    options.round_cap = round_cap;
    options.seed = seed_base + run * 9973 + k * 131 +
                   (monotone ? 17 : 0) + (synchronous ? 5 : 0);
    iter::Alg1Result r = iter::run_alg1(op, options);
    return RunOut{static_cast<double>(r.rounds), r.converged,
                  r.events_processed};
  });
  util::OnlineStats rounds;
  CellResult cell;
  for (const RunOut& o : outs) {
    rounds.add(o.rounds);
    cell.events += o.events;
    if (!o.converged) cell.capped = true;
  }
  cell.mean_rounds = rounds.mean();
  return cell;
}

std::string fmt_cell(const CellResult& c) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%.2f", c.capped ? ">=" : "",
                c.mean_rounds);
  return buf;
}

}  // namespace

int main() {
  const std::size_t chain = bench::env_fast() ? 12 : 34;
  const std::size_t n = chain;               // replicas (= graph size in §7)
  const std::size_t k_max = n / 2 + 1;       // 18 for n = 34
  const std::size_t runs = bench::env_runs(7);
  const std::size_t mono_cap = 20000;
  const std::size_t plain_cap = bench::env_fast() ? 100 : 400;
  const std::uint64_t seed = bench::env_seed();
  const std::size_t jobs = bench::env_jobs();

  apps::Graph g = apps::make_chain(chain);
  apps::ApspOperator op(g);
  const std::size_t M = op.max_pseudocycles().value();

  std::printf("Figure 2 — Quorum Size vs Rounds (APSP on a %zu-vertex chain)\n",
              chain);
  std::printf("n = %zu replicas, p = %zu processes, %zu runs per point, "
              "M = %zu pseudocycles\n",
              n, chain, runs, M);
  std::printf("non-monotone runs are capped at %zu rounds and reported as "
              "lower bounds (as in the paper)\n\n",
              plain_cap);

  sim::ParallelRunner pool(jobs);
  bench::Timing timing;

  bench::Table table({"k", "cor7_bound", "mono_sync", "mono_async",
                      "plain_sync", "plain_async"});
  table.print_header();
  for (std::size_t k = 1; k <= k_max; ++k) {
    double bound = static_cast<double>(M) *
                   util::corollary7_rounds_per_pseudocycle(n, k);
    CellResult mono_sync =
        run_cell(pool, op, n, k, true, true, runs, mono_cap, seed);
    CellResult mono_async =
        run_cell(pool, op, n, k, true, false, runs, mono_cap, seed + 1);
    CellResult plain_sync =
        run_cell(pool, op, n, k, false, true, runs, plain_cap, seed + 2);
    CellResult plain_async =
        run_cell(pool, op, n, k, false, false, runs, plain_cap, seed + 3);
    timing.add(mono_sync.events + mono_async.events + plain_sync.events +
                   plain_async.events,
               4 * runs);

    table.cell(k);
    table.cell(bound);
    table.cell(fmt_cell(mono_sync));
    table.cell(fmt_cell(mono_async));
    table.cell(fmt_cell(plain_sync));
    table.cell(fmt_cell(plain_async));
    table.end_row();
    std::fflush(stdout);
  }

  std::printf("\npaper reference points (n = 34): k = 1 -> bound 204, "
              "mono_sync 12.43, mono_async 9.08; k >= 4 monotone tracks the "
              "strict optimum of ~%zu rounds; non-monotone is worse than the "
              "monotone bound for k > 3.\n",
              M);
  timing.emit(pool.jobs());
  return 0;
}
