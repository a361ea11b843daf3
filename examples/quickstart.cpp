/// \file quickstart.cpp
/// Five-minute tour of the library: build a simulated replica cluster,
/// write and read a monotone probabilistic quorum register, watch a stale
/// read happen with a tiny quorum, and check the recorded history against
/// the random-register specification.
///
///   ./quickstart

#include <cstdio>

#include "core/quorum_register_client.hpp"
#include "core/server_process.hpp"
#include "core/spec/checker.hpp"
#include "net/sim_transport.hpp"
#include "quorum/probabilistic.hpp"
#include "util/codec.hpp"
#include "util/math.hpp"

using namespace pqra;

int main() {
  // --- 1. A simulated world: 16 replica servers, exponential link delays.
  const std::size_t n = 16;
  sim::Simulator sim;
  auto delays = sim::make_exponential_delay(1.0);
  net::SimTransport transport(sim, *delays, util::Rng(2026), n + 2);
  std::vector<std::unique_ptr<core::ServerProcess>> servers;
  for (std::size_t s = 0; s < n; ++s) {
    servers.push_back(std::make_unique<core::ServerProcess>(
        transport, static_cast<net::NodeId>(s)));
  }

  // --- 2. Two clients: a writer and a monotone reader, quorum size 4.
  quorum::ProbabilisticQuorums quorums(n, 4);
  core::spec::HistoryRecorder history;
  core::ClientOptions monotone;
  monotone.monotone = true;
  core::QuorumRegisterClient writer(sim, transport, n, quorums, util::Rng(1),
                                    {}, &history);
  core::QuorumRegisterClient reader(sim, transport, n + 1, quorums,
                                    util::Rng(2), monotone, &history);

  std::printf("cluster: %zu servers, %s, quorum size 4\n", n,
              quorums.name().c_str());
  std::printf("per-read miss probability C(n-k,k)/C(n,k) = %.3f\n\n",
              util::quorum_nonoverlap_probability(n, 4));

  // --- 3. The writer publishes a counter; the reader polls after each write.
  // Every replica starts with the initial value (timestamp 0), exactly like
  // the initial vector of an iterative algorithm.
  const net::RegisterId reg = 0;
  for (auto& server : servers) {
    server->replica().preload(reg, util::encode<std::int64_t>(0));
  }
  history.record_initial(reg);
  int stale = 0;
  std::function<void(int)> round = [&](int i) {
    if (i > 10) return;
    writer.write(reg, util::encode<std::int64_t>(i), [&, i](core::Timestamp ts) {
      reader.read(reg, [&, i, ts](core::ReadResult r) {
        bool is_stale = r.ts < ts;
        stale += is_stale;
        std::printf("write #%d (ts %llu) -> read returned ts %llu (%s)%s\n", i,
                    static_cast<unsigned long long>(ts),
                    static_cast<unsigned long long>(r.ts),
                    is_stale ? "stale" : "fresh",
                    r.from_monotone_cache ? " [from monotone cache]" : "");
        round(i + 1);
      });
    });
  };
  round(1);
  sim.run();

  std::printf("\n%d of 10 reads were stale — that is the price of quorums "
              "that only intersect with high probability.\n",
              stale);

  // --- 4. But the register behaved exactly as specified.
  auto verdict = core::spec::check_random_register(history.ops(), true);
  std::printf("spec check ([R1][R2][R4] + single-writer) on %zu recorded "
              "operations: %s\n",
              history.size(), verdict.ok ? "PASS" : "FAIL");
  for (const auto& v : verdict.violations) std::printf("  %s\n", v.c_str());
  return verdict.ok ? 0 : 1;
}
