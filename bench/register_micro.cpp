/// \file register_micro.cpp
/// google-benchmark microbenchmarks of the substrate hot paths: event queue
/// throughput, quorum sampling, the probability formulas, end-to-end
/// register operations in the DES, and one full small Alg. 1 execution.

#include <benchmark/benchmark.h>

#include <memory>

#include "apps/apsp.hpp"
#include "apps/graph.hpp"
#include "core/quorum_register_client.hpp"
#include "core/server_process.hpp"
#include "iter/alg1_des.hpp"
#include "net/sim_transport.hpp"
#include "quorum/majority.hpp"
#include "quorum/probabilistic.hpp"
#include "util/codec.hpp"
#include "util/math.hpp"

namespace {

using namespace pqra;

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    util::Rng rng(1);
    for (std::size_t i = 0; i < batch; ++i) {
      sim.schedule_in(rng.uniform01(), [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.events_processed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1024)->Arg(16384);

void BM_QuorumSampling(benchmark::State& state) {
  quorum::ProbabilisticQuorums qs(
      static_cast<std::size_t>(state.range(0)),
      static_cast<std::size_t>(state.range(1)));
  util::Rng rng(7);
  std::vector<quorum::ServerId> q;
  for (auto _ : state) {
    qs.pick(quorum::AccessKind::kRead, rng, q);
    benchmark::DoNotOptimize(q.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_QuorumSampling)->Args({34, 6})->Args({34, 18})->Args({1024, 32});

void BM_OverlapProbability(benchmark::State& state) {
  std::uint64_t k = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::quorum_overlap_probability(1024, k));
    k = k % 512 + 1;
  }
}
BENCHMARK(BM_OverlapProbability);

void BM_RegisterReadOp(benchmark::State& state) {
  const std::size_t n = 34;
  const auto k = static_cast<std::size_t>(state.range(0));
  sim::Simulator sim;
  auto delay = sim::make_constant_delay(1.0);
  net::SimTransport transport(sim, *delay, util::Rng(1), n + 1);
  std::vector<std::unique_ptr<core::ServerProcess>> servers;
  for (std::size_t s = 0; s < n; ++s) {
    servers.push_back(std::make_unique<core::ServerProcess>(
        transport, static_cast<net::NodeId>(s)));
    servers.back()->replica().preload(
        0, util::encode(std::vector<std::int64_t>(34, 7)));
  }
  quorum::ProbabilisticQuorums qs(n, k);
  core::QuorumRegisterClient client(sim, transport, n, qs, util::Rng(2));
  for (auto _ : state) {
    bool done = false;
    client.read(0, [&done](core::ReadResult) { done = true; });
    sim.run();
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RegisterReadOp)->Arg(1)->Arg(6)->Arg(18);

void BM_RegisterWriteOp(benchmark::State& state) {
  const std::size_t n = 34;
  sim::Simulator sim;
  auto delay = sim::make_constant_delay(1.0);
  net::SimTransport transport(sim, *delay, util::Rng(1), n + 1);
  std::vector<std::unique_ptr<core::ServerProcess>> servers;
  for (std::size_t s = 0; s < n; ++s) {
    servers.push_back(std::make_unique<core::ServerProcess>(
        transport, static_cast<net::NodeId>(s)));
  }
  quorum::ProbabilisticQuorums qs(n, 6);
  core::QuorumRegisterClient client(sim, transport, n, qs, util::Rng(2));
  std::vector<std::int64_t> row(34, 3);
  for (auto _ : state) {
    bool done = false;
    client.write(0, util::encode(row), [&done](core::Timestamp) {
      done = true;
    });
    sim.run();
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RegisterWriteOp);

void BM_ApspApply(benchmark::State& state) {
  apps::Graph g = apps::make_chain(static_cast<std::size_t>(state.range(0)));
  apps::ApspOperator op(g);
  std::vector<iter::Value> x;
  for (std::size_t i = 0; i < op.num_components(); ++i) {
    x.push_back(op.initial(i));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(op.apply(i, x));
    i = (i + 1) % op.num_components();
  }
}
BENCHMARK(BM_ApspApply)->Arg(16)->Arg(34);

void BM_Alg1EndToEnd(benchmark::State& state) {
  apps::Graph g = apps::make_chain(8);
  apps::ApspOperator op(g);
  quorum::MajorityQuorums qs(8);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    iter::Alg1Options options;
    options.quorums = &qs;
    options.seed = seed++;
    iter::Alg1Result r = iter::run_alg1(op, options);
    benchmark::DoNotOptimize(r.rounds);
  }
}
BENCHMARK(BM_Alg1EndToEnd)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
