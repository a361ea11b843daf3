/// \file masking_error.cpp
/// Extension: restores the Byzantine fault model of Malkhi–Reiter–Wright
/// that §4 simplifies away, and regenerates the masking-quorum error
/// analysis: the probability that a read quorum overlaps a write quorum in
/// fewer than 2b+1 servers (so b liars could out-vote the b+1 correct
/// vouchers needed), analytically (hypergeometric tail) and empirically,
/// plus an end-to-end fabrication-attack run against the masking read rule
/// (ClientOptions::fault_bound).

#include <cstdio>
#include <functional>
#include <memory>

#include "bench_common.hpp"
#include "core/byzantine.hpp"
#include "core/quorum_register_client.hpp"
#include "core/server_process.hpp"
#include "net/sim_transport.hpp"
#include "quorum/probabilistic.hpp"
#include "util/codec.hpp"
#include "util/math.hpp"

namespace {

using namespace pqra;

double empirical_mask_error(std::size_t n, std::size_t k, std::size_t b,
                            std::size_t trials, util::Rng& rng) {
  quorum::ProbabilisticQuorums qs(n, k);
  std::vector<bool> in_w(n);
  std::vector<quorum::ServerId> w, r;
  std::size_t bad = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    qs.pick(quorum::AccessKind::kWrite, rng, w);
    std::fill(in_w.begin(), in_w.end(), false);
    for (auto s : w) in_w[s] = true;
    qs.pick(quorum::AccessKind::kRead, rng, r);
    std::size_t overlap = 0;
    for (auto s : r) overlap += in_w[s];
    if (overlap <= 2 * b) ++bad;
  }
  return static_cast<double>(bad) / static_cast<double>(trials);
}

struct AttackOutcome {
  double fabricated_rate = 0.0;
  double unvouched_rate = 0.0;
};

/// b colluding fabricators against a masking client with the same bound.
AttackOutcome run_attack(std::size_t n, std::size_t k, std::size_t b,
                         std::size_t reads, std::uint64_t seed) {
  sim::Simulator sim;
  auto delay = sim::make_constant_delay(1.0);
  net::SimTransport transport(sim, *delay, util::Rng(seed),
                              static_cast<net::NodeId>(n + 1));
  std::vector<std::unique_ptr<core::ByzantineServerProcess>> liars;
  std::vector<std::unique_ptr<core::ServerProcess>> honest;
  for (std::size_t s = 0; s < n; ++s) {
    if (s < b) {
      liars.push_back(std::make_unique<core::ByzantineServerProcess>(
          transport, static_cast<net::NodeId>(s),
          core::ByzantineMode::kFabricateHighTs));
    } else {
      honest.push_back(std::make_unique<core::ServerProcess>(
          transport, static_cast<net::NodeId>(s)));
      honest.back()->replica().preload(0, util::encode<std::int64_t>(0));
    }
  }
  quorum::ProbabilisticQuorums qs(n, k);
  core::ClientOptions options;
  options.fault_bound = b;
  core::QuorumRegisterClient client(sim, transport,
                                    static_cast<net::NodeId>(n), qs,
                                    util::Rng(seed).fork(9), options);
  std::size_t fabricated = 0;
  std::size_t unvouched = 0;
  std::function<void(std::size_t)> loop = [&](std::size_t remaining) {
    if (remaining == 0) return;
    client.write(0, util::encode<std::int64_t>(1), [&, remaining](
                                                       core::Timestamp) {
      client.read(0, [&, remaining](core::ReadResult r) {
        if (!r.vouched) {
          ++unvouched;
        } else if (r.ts >= (1ULL << 40)) {
          ++fabricated;
        }
        loop(remaining - 1);
      });
    });
  };
  loop(reads);
  sim.run();
  AttackOutcome out;
  out.fabricated_rate =
      static_cast<double>(fabricated) / static_cast<double>(reads);
  out.unvouched_rate =
      static_cast<double>(unvouched) / static_cast<double>(reads);
  return out;
}

}  // namespace

int main() {
  const std::size_t trials = bench::env_fast() ? 5000 : 50000;
  const std::size_t reads = bench::env_fast() ? 100 : 400;
  util::Rng rng(bench::env_seed());

  bench::Timing timing;
  const std::size_t n = 100;
  std::printf("masking quorums over n = %zu servers: error = P[|R∩W| <= 2b] "
              "(%zu trials per point)\n\n",
              n, trials);
  bench::Table table({"b", "k", "analytic", "empirical"}, 13);
  table.print_header();
  for (std::size_t b : {1u, 2u, 5u}) {
    for (std::size_t k : {10u, 20u, 30u, 40u, 50u}) {
      table.cell(b);
      table.cell(k);
      table.cell(util::masking_error_probability(n, k, b), 5);
      table.cell(empirical_mask_error(n, k, b, trials, rng), 5);
      timing.add(trials);  // one "event" per Monte-Carlo overlap draw
      table.end_row();
    }
    std::printf("\n");
  }

  std::printf("end-to-end fabrication attack (b colluding servers with a "
              "2^40 timestamp vs a b-masking client; %zu reads):\n\n",
              reads);
  bench::Table attack({"n", "k", "b", "fabricated", "unvouched"}, 13);
  attack.print_header();
  std::size_t idx = 0;
  for (auto [an, ak, ab] : {std::tuple<std::size_t, std::size_t, std::size_t>
                                {20, 10, 2},
                            {20, 14, 3},
                            {50, 25, 5}}) {
    AttackOutcome out =
        run_attack(an, ak, ab, reads, bench::env_seed() + idx++);
    timing.add(reads);  // one "event" per attacked read
    attack.cell(an);
    attack.cell(ak);
    attack.cell(ab);
    attack.cell(out.fabricated_rate, 4);
    attack.cell(out.unvouched_rate, 4);
    attack.end_row();
  }
  std::printf("\nfabricated = 0 within the fault bound: b colluders never "
              "reach b+1 vouchers.  'unvouched' reads are the liveness "
              "price, shrinking as k grows (the analytic table's error "
              "column).\n");
  timing.emit(1);
  return 0;
}
