#include "iter/alg1_threads.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "apps/apsp.hpp"
#include "apps/graph.hpp"
#include "apps/transitive_closure.hpp"
#include "iter/alg1_des.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "quorum/majority.hpp"
#include "quorum/probabilistic.hpp"

namespace pqra::iter {
namespace {

/// Names of the register protocol's client and server instruments.
std::set<std::string> protocol_instruments(const obs::Registry& registry) {
  std::set<std::string> names;
  auto keep = [&names](const std::string& name) {
    if (name.starts_with("pqra_client_") || name.starts_with("pqra_server_")) {
      names.insert(name);
    }
  };
  const obs::RegistrySnapshot snapshot = registry.snapshot();
  for (const auto& c : snapshot.counters) keep(c.name);
  for (const auto& g : snapshot.gauges) keep(g.name);
  for (const auto& h : snapshot.histograms) keep(h.name);
  return names;
}

TEST(Alg1ThreadsTest, ConvergesWithMajorityQuorums) {
  apps::Graph g = apps::make_chain(6);
  apps::ApspOperator op(g);
  quorum::MajorityQuorums qs(5);
  Alg1ThreadsOptions options;
  options.quorums = &qs;
  Alg1ThreadsResult r = run_alg1_threads(op, options);
  EXPECT_TRUE(r.converged);
  EXPECT_GE(r.rounds, 1u);
  EXPECT_GT(r.messages.total, 0u);
}

TEST(Alg1ThreadsTest, ConvergesWithMonotoneProbabilisticQuorums) {
  apps::Graph g = apps::make_chain(6);
  apps::ApspOperator op(g);
  quorum::ProbabilisticQuorums qs(8, 3);
  Alg1ThreadsOptions options;
  options.quorums = &qs;
  options.monotone = true;
  options.round_cap = 100000;
  Alg1ThreadsResult r = run_alg1_threads(op, options);
  EXPECT_TRUE(r.converged);
}

TEST(Alg1ThreadsTest, FewerProcessesThanComponents) {
  apps::Graph g = apps::make_chain(8);
  apps::ApspOperator op(g);
  quorum::MajorityQuorums qs(5);
  Alg1ThreadsOptions options;
  options.quorums = &qs;
  options.num_processes = 2;
  Alg1ThreadsResult r = run_alg1_threads(op, options);
  EXPECT_TRUE(r.converged);
}

TEST(Alg1ThreadsTest, RoundCapStopsTheRun) {
  apps::Graph g = apps::make_chain(12);
  apps::ApspOperator op(g);
  quorum::ProbabilisticQuorums qs(16, 1);  // tiny quorums: very slow
  Alg1ThreadsOptions options;
  options.quorums = &qs;
  options.monotone = false;
  options.round_cap = 3;
  Alg1ThreadsResult r = run_alg1_threads(op, options);
  if (!r.converged) {
    EXPECT_GE(r.rounds, 3u);
  }
}

TEST(Alg1ThreadsTest, SharedMetricsRegistryCountsAllLayers) {
  apps::Graph g = apps::make_chain(6);
  apps::ApspOperator op(g);
  quorum::MajorityQuorums qs(5);
  obs::Registry registry(obs::Concurrency::kThreadSafe);
  Alg1ThreadsOptions options;
  options.quorums = &qs;
  options.metrics = &registry;
  Alg1ThreadsResult r = run_alg1_threads(op, options);
  ASSERT_TRUE(r.converged);

  // Every layer reported: clients, servers, transport.  The registry totals
  // must be consistent with the runtime's own counts even though p client
  // threads and n server threads updated them concurrently.
  namespace names = obs::names;
  std::uint64_t reads = registry.counter(names::kClientReads).value();
  std::uint64_t writes = registry.counter(names::kClientWrites).value();
  EXPECT_GT(reads, 0u);
  EXPECT_GT(writes, 0u);
  EXPECT_EQ(registry.counter(names::kTransportMessages).value(),
            r.messages.total);
  EXPECT_EQ(registry.counter(names::kClientCacheHits).value(),
            r.monotone_cache_hits);
  EXPECT_GT(registry.counter(names::kServerRequests).value(), 0u);
  EXPECT_EQ(registry.histogram(names::kClientReadLatency).count(), reads);

  // Satellite stats: per-thread wall-clock latency merged at teardown.
  EXPECT_EQ(r.read_latency.count(), reads);
  EXPECT_EQ(r.write_latency.count(), writes);
  EXPECT_GT(r.read_latency.mean(), 0.0);
}

TEST(Alg1ThreadsTest, ReportsTheSameProtocolInstrumentsAsTheDes) {
  // Both runtimes run the same client and server code, so a registry shows
  // the same pqra_client_* and pqra_server_* instruments whichever ran.
  apps::Graph g = apps::make_chain(6);
  apps::ApspOperator op(g);
  quorum::MajorityQuorums qs(5);

  obs::Registry threaded(obs::Concurrency::kThreadSafe);
  Alg1ThreadsOptions threads_options;
  threads_options.quorums = &qs;
  threads_options.metrics = &threaded;
  ASSERT_TRUE(run_alg1_threads(op, threads_options).converged);

  obs::Registry simulated;
  Alg1Options des_options;
  des_options.quorums = &qs;
  des_options.metrics = &simulated;
  ASSERT_TRUE(run_alg1(op, des_options).converged);

  const std::set<std::string> names = protocol_instruments(simulated);
  EXPECT_TRUE(names.contains(obs::names::kClientStaleDepth));
  EXPECT_TRUE(names.contains(obs::names::kServerKeysCreated));
  EXPECT_EQ(protocol_instruments(threaded), names);
}

TEST(Alg1ThreadsTest, RejectsSingleThreadRegistry) {
  apps::Graph g = apps::make_chain(4);
  apps::ApspOperator op(g);
  quorum::MajorityQuorums qs(3);
  obs::Registry registry(obs::Concurrency::kSingleThread);
  Alg1ThreadsOptions options;
  options.quorums = &qs;
  options.metrics = &registry;
  EXPECT_THROW(run_alg1_threads(op, options), std::logic_error);
}

TEST(Alg1ThreadsTest, OtherOperatorsRunToo) {
  apps::Graph g = apps::make_cycle(6);
  apps::TransitiveClosureOperator op(g);
  quorum::MajorityQuorums qs(5);
  Alg1ThreadsOptions options;
  options.quorums = &qs;
  Alg1ThreadsResult r = run_alg1_threads(op, options);
  EXPECT_TRUE(r.converged);
}

}  // namespace
}  // namespace pqra::iter
