/// \file load_availability.cpp
/// Regenerates the §4 load/availability comparison (the Naor–Wool trade-off
/// and how probabilistic quorums break it).
///
/// For each quorum system over ~31-36 servers: quorum size, analytic load
/// lower bound max(1/c, c/n), empirically measured busiest-server load,
/// availability (min crashes to disable, analytic == brute-force-verified in
/// tests), and Monte-Carlo survival probability at several crash rates.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "quorum/analysis.hpp"
#include "quorum/fpp.hpp"
#include "quorum/grid.hpp"
#include "quorum/majority.hpp"
#include "quorum/probabilistic.hpp"
#include "quorum/rowa.hpp"
#include "quorum/singleton.hpp"
#include "sim/parallel_runner.hpp"

int main() {
  using namespace pqra;
  using namespace pqra::quorum;
  const std::size_t samples = bench::env_fast() ? 5000 : 50000;
  const std::size_t trials = bench::env_fast() ? 2000 : 20000;
  const util::Rng master(bench::env_seed());
  const std::size_t jobs = bench::env_jobs();

  // Comparable sizes: FPP(5) has n = 31; everything else uses n ~ 31-36.
  std::vector<std::unique_ptr<QuorumSystem>> systems;
  systems.push_back(std::make_unique<ProbabilisticQuorums>(31, 6));  // ~sqrt n
  systems.push_back(std::make_unique<ProbabilisticQuorums>(31, 12));
  systems.push_back(std::make_unique<MajorityQuorums>(31));
  systems.push_back(std::make_unique<FppQuorums>(5));        // n = 31
  systems.push_back(std::make_unique<GridQuorums>(6, 6));    // n = 36
  systems.push_back(std::make_unique<ReadOneWriteAll>(31));
  systems.push_back(std::make_unique<SingletonQuorums>(31));

  std::printf("§4 — load and availability of quorum systems (~31-36 servers)\n");
  std::printf("load = empirical busiest-server access frequency over %zu "
              "reads;\navailability = min crashes disabling every read "
              "quorum; surv(f) = Monte-Carlo survival with i.i.d. crash "
              "probability f (%zu trials)\n\n",
              samples, trials);

  bench::Table table({"system", "n", "|rq|", "|wq|", "load_lb", "load_r",
                      "load_w", "avail_r", "avail_w", "surv_r(.3)",
                      "surv_w(.3)"},
                     13);
  table.print_header();
  // Each system's Monte-Carlo estimates draw from a forked stream keyed on
  // its row index, so the rows are order-independent and can run on the
  // PQRA_JOBS worker pool without changing any printed number.
  struct Row {
    LoadEstimate load_r;
    LoadEstimate load_w;
    double surv_r = 0.0;
    double surv_w = 0.0;
  };
  sim::ParallelRunner pool(jobs);
  bench::Timing timing;
  std::vector<Row> rows = pool.map<Row>(systems.size(), [&](std::size_t i) {
    const QuorumSystem& qs = *systems[i];
    util::Rng rng = master.fork(100 + i);
    Row row;
    row.load_r = empirical_load(qs, AccessKind::kRead, rng, samples);
    row.load_w = empirical_load(qs, AccessKind::kWrite, rng, samples);
    row.surv_r = survival_probability(qs, AccessKind::kRead, 0.3, rng, trials);
    row.surv_w = survival_probability(qs, AccessKind::kWrite, 0.3, rng, trials);
    return row;
  });
  // One "event" per Monte-Carlo draw (2 load estimates + 2 survival runs
  // per system); folded after the map (Timing is not thread-safe).
  timing.add(static_cast<std::uint64_t>(systems.size()) *
                 (2 * samples + 2 * trials),
             systems.size());
  for (std::size_t i = 0; i < systems.size(); ++i) {
    const auto& qs = systems[i];
    std::size_t n = qs->num_servers();
    std::size_t cr = qs->quorum_size(AccessKind::kRead);
    std::size_t cw = qs->quorum_size(AccessKind::kWrite);
    table.cell(qs->name().substr(0, 12));
    table.cell(n);
    table.cell(cr);
    table.cell(cw);
    // Naor–Wool applies to the smallest quorum of the (bipartite) system;
    // the busiest server over a mixed workload pays at least this.
    table.cell(load_lower_bound(n, std::min(cr, cw)), 3);
    table.cell(rows[i].load_r.busiest, 3);
    table.cell(rows[i].load_w.busiest, 3);
    table.cell(qs->min_kill(AccessKind::kRead));
    table.cell(qs->min_kill(AccessKind::kWrite));
    table.cell(rows[i].surv_r, 3);
    table.cell(rows[i].surv_w, 3);
    table.end_row();
  }

  std::printf(
      "\nthe trade-off (Naor–Wool): strict systems with sqrt(n) load (fpp, "
      "grid) have only Theta(sqrt n) availability; majority has Theta(n) "
      "availability but load ~1/2.\nprobabilistic(k~sqrt n) achieves BOTH: "
      "load k/n ~ 1/sqrt(n) and availability n-k+1 = Theta(n) — the headline "
      "of Malkhi et al. reviewed in §4.\n");
  timing.emit(pool.jobs());
  return 0;
}
