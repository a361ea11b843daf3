/// \file theorem4_q.cpp
/// Validates Theorem 4 / condition [R5] and Corollary 7 numerically.
///
/// For a sweep of (n, k): prints the exact overlap probability
/// q = 1 - C(n-k,k)/C(n,k), its Corollary-7 relaxation 1 - ((n-k)/n)^k, the
/// simulated mean of Y (reads until a fixed write's quorum is hit) against
/// the geometric prediction 1/q, and the simulated tail P(Y > r) against
/// (1-q)^r — the inequality [R5] asserts.

#include <cmath>
#include <cstdio>
#include <numeric>
#include <vector>

#include "bench_common.hpp"
#include "core/spec/probabilistic_checks.hpp"
#include "quorum/probabilistic.hpp"
#include "sim/parallel_runner.hpp"
#include "util/math.hpp"

int main() {
  using namespace pqra;
  const std::size_t samples = bench::env_fast() ? 4000 : 40000;
  const util::Rng master(bench::env_seed());
  const std::size_t jobs = bench::env_jobs();

  std::printf("Theorem 4 / [R5]: q = 1 - C(n-k,k)/C(n,k); E[Y] <= 1/q\n");
  std::printf("(%zu simulated writes per configuration)\n\n", samples);

  bench::Table table({"n", "k", "q_exact", "q_cor7", "1/q", "E[Y]_sim",
                      "P(Y>3)", "bound(1-q)^3"});
  table.print_header();

  // Each (n, k) configuration samples from its own forked stream, so rows
  // are order-independent and the sweep parallelises without changing any
  // printed number (PQRA_JOBS only moves wall-clock).
  struct Config {
    std::size_t n, k;
  };
  std::vector<Config> configs;
  const std::size_t ns[] = {16, 34, 64, 100};
  for (std::size_t n : ns) {
    for (std::size_t k = 1; k <= n / 2; k = (k < 4 ? k + 1 : k * 2)) {
      configs.push_back({n, k});
    }
  }

  struct Row {
    double mean = 0.0;
    double tail3 = 0.0;
  };
  sim::ParallelRunner pool(jobs);
  bench::Timing timing;
  std::vector<Row> rows = pool.map<Row>(configs.size(), [&](std::size_t i) {
    const auto [n, k] = configs[i];
    quorum::ProbabilisticQuorums qs(n, k);
    util::Rng rng = master.fork(1000 + i);
    auto ys = core::spec::r5_y_samples(qs, samples, rng);
    Row row;
    row.mean = std::accumulate(ys.begin(), ys.end(), 0.0) /
               static_cast<double>(ys.size());
    for (auto y : ys) {
      if (y > 3) row.tail3 += 1.0;
    }
    row.tail3 /= static_cast<double>(ys.size());
    return row;
  });
  // One "event" per simulated write; folded after the map (Timing is not
  // thread-safe).
  timing.add(static_cast<std::uint64_t>(configs.size()) * samples,
             configs.size());

  for (std::size_t i = 0; i < configs.size(); ++i) {
    const auto [n, k] = configs[i];
    double q = util::quorum_overlap_probability(n, k);
    double q_c7 = 1.0 - util::nonoverlap_upper_bound(n, k);
    table.cell(n);
    table.cell(k);
    table.cell(q, 4);
    table.cell(q_c7, 4);
    table.cell(1.0 / q, 2);
    table.cell(rows[i].mean, 2);
    table.cell(rows[i].tail3, 4);
    table.cell(std::pow(1.0 - q, 3.0), 4);
    table.end_row();
  }

  std::printf("\nCorollary 7 (rounds/pseudocycle bound 1/(1-((n-k)/n)^k)):\n\n");
  bench::Table c7({"n", "k=1", "k=sqrt(n)", "k=2sqrt(n)", "k=n/2"});
  c7.print_header();
  for (std::size_t n : ns) {
    auto rt = [n](std::size_t k) {
      return util::corollary7_rounds_per_pseudocycle(n, k);
    };
    auto s = static_cast<std::size_t>(std::sqrt(static_cast<double>(n)));
    c7.cell(n);
    c7.cell(rt(1), 2);
    c7.cell(rt(s), 2);
    c7.cell(rt(std::min(2 * s, n)), 4);
    c7.cell(rt(n / 2), 4);
    c7.end_row();
  }
  std::printf("\n§6.4 check: with k = sqrt(n) the expected rounds per "
              "pseudocycle stay between 1 and 2 for every n.\n");
  timing.emit(pool.jobs());
  return 0;
}
