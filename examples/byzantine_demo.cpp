/// \file byzantine_demo.cpp
/// Lying replica servers vs the masking-quorum read rule
/// (ClientOptions::fault_bound) — the fault model of Malkhi–Reiter that the
/// paper's §4 simplifies away, live.
///
/// Three acts:
///   1. a naive max-timestamp client is fooled by a single fabricating
///      server on almost every read;
///   2. the b-masking client ignores up to b colluding fabricators;
///   3. one colluder beyond the bound, and deception returns.
///
///   ./byzantine_demo [servers=12] [quorum_size=8] [fault_bound=2]

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>

#include "core/byzantine.hpp"
#include "core/quorum_register_client.hpp"
#include "core/server_process.hpp"
#include "net/sim_transport.hpp"
#include "quorum/probabilistic.hpp"
#include "util/codec.hpp"
#include "util/math.hpp"

using namespace pqra;

namespace {

struct Outcome {
  int reads = 0;
  int fabricated = 0;
  int unvouched = 0;
};

/// Runs `reads` write+read pairs against a cluster with `liars` fabricating
/// servers.  `fault_bound` 0 is the naive max-timestamp client.
Outcome run(std::size_t n, std::size_t k, std::size_t liars,
            std::size_t fault_bound, int reads, std::uint64_t seed) {
  sim::Simulator sim;
  auto delay = sim::make_constant_delay(1.0);
  net::SimTransport transport(sim, *delay, util::Rng(seed),
                              static_cast<net::NodeId>(n + 2));
  std::vector<std::unique_ptr<core::ByzantineServerProcess>> bad;
  std::vector<std::unique_ptr<core::ServerProcess>> good;
  for (std::size_t s = 0; s < n; ++s) {
    if (s < liars) {
      bad.push_back(std::make_unique<core::ByzantineServerProcess>(
          transport, static_cast<net::NodeId>(s),
          core::ByzantineMode::kFabricateHighTs));
    } else {
      good.push_back(std::make_unique<core::ServerProcess>(
          transport, static_cast<net::NodeId>(s)));
      good.back()->replica().preload(0, util::encode<std::int64_t>(0));
    }
  }
  quorum::ProbabilisticQuorums qs(n, k);
  Outcome out;
  constexpr core::Timestamp kFabTs = 1ULL << 40;

  core::ClientOptions options;
  options.fault_bound = fault_bound;
  core::QuorumRegisterClient writer(sim, transport,
                                    static_cast<net::NodeId>(n), qs, 0,
                                    util::Rng(seed).fork(1), options);
  core::QuorumRegisterClient reader(sim, transport,
                                    static_cast<net::NodeId>(n + 1), qs, 0,
                                    util::Rng(seed).fork(2), options);
  std::function<void(int)> loop = [&](int remaining) {
    if (remaining == 0) return;
    writer.write(0, util::encode<std::int64_t>(remaining),
                 [&, remaining](core::Timestamp) {
                   reader.read(0, [&, remaining](core::ReadResult r) {
                     ++out.reads;
                     if (!r.vouched) {
                       ++out.unvouched;
                     } else if (r.ts >= kFabTs) {
                       ++out.fabricated;
                     }
                     loop(remaining - 1);
                   });
                 });
  };
  loop(reads);
  sim.run();
  return out;
}

void report(const char* label, const Outcome& o) {
  std::printf("  %-38s %3d reads: %3d deceived, %3d unvouched\n", label,
              o.reads, o.fabricated, o.unvouched);
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t n = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 12;
  const std::size_t k = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 8;
  const std::size_t b = argc > 3 ? std::strtoul(argv[3], nullptr, 10) : 2;

  std::printf("cluster: %zu servers, quorums of %zu; fabricators collude on "
              "a 2^40 timestamp\n",
              n, k);
  std::printf("masking error bound P[|R∩W| <= 2b] = %.4f at b = %zu\n\n",
              util::masking_error_probability(n, k, b), b);

  report("act 1: naive client, 1 fabricator",
         run(n, k, 1, /*fault_bound=*/0, 60, 1));
  Outcome act2 = run(n, k, b, b, 60, 2);
  report("act 2: masking client, b fabricators", act2);
  report("act 3: masking client, b+1 fabricators", run(n, k, b + 1, b, 60, 3));

  std::printf("\nwithin the fault bound the masking rule silences the "
              "liars; one server past it and fabricated values reappear — "
              "exactly the b+1-voucher arithmetic.\n");
  return act2.fabricated == 0 ? 0 : 1;
}
