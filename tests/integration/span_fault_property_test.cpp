/// Property: span propagation survives faulty schedules.  Under a FaultPlan
/// that drops, duplicates and reorders messages while servers churn, a
/// workload whose operations all eventually settle must produce a span
/// forest with no orphans (every child's parent exists and precedes it),
/// no double-closes (the sink throws on those the moment they happen) and
/// no span left open once the last operation completes —
/// `SpanSink::check(/*require_closed=*/true)` is the whole theorem.
///
/// The workload mirrors tools/explore's direct-register scenario: finite
/// seeded op sequences, horizon recovery so churn cannot strand an op, and
/// a retry policy without a deadline so every operation retries to
/// completion.  (The Alg. 1 scenario would not do: it truncates at
/// convergence with ops legitimately in flight.)

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <vector>

#include "core/quorum_register_client.hpp"
#include "harness/store_harness.hpp"
#include "net/fault_plan.hpp"
#include "net/sim_transport.hpp"
#include "obs/span.hpp"
#include "quorum/probabilistic.hpp"
#include "sim/delay_model.hpp"
#include "sim/simulator.hpp"
#include "util/codec.hpp"
#include "util/rng.hpp"

namespace pqra {
namespace {

constexpr std::size_t kServers = 8;
constexpr std::size_t kQuorum = 3;
constexpr std::size_t kClients = 2;
constexpr std::size_t kOpsPerClient = 12;
constexpr double kHorizon = 40.0;

/// One client's seeded op sequence, one op at a time.
struct Driver {
  sim::Simulator* sim = nullptr;
  core::QuorumRegisterClient* client = nullptr;
  util::Rng rng;
  std::size_t remaining = 0;
  core::RegisterId own_reg = 0;
  std::int64_t next_value = 0;
  std::size_t* completed = nullptr;

  void step() {
    if (remaining == 0) return;
    --remaining;
    sim->schedule_in(rng.uniform01() * 2.0, [this] { issue(); });
  }

  void issue() {
    if (rng.bernoulli(0.5)) {
      ++next_value;
      client->write(own_reg, util::encode(next_value),
                    [this](core::Timestamp) {
                      ++*completed;
                      step();
                    });
    } else {
      const auto reg = static_cast<core::RegisterId>(rng.below(kClients));
      client->read(reg, [this](core::ReadResult) {
        ++*completed;
        step();
      });
    }
  }
};

/// Runs the faulty workload against \p sink; returns ops completed.
std::size_t run_workload(std::uint64_t seed, obs::SpanSink& sink) {
  util::Rng master(seed);
  sim::Simulator sim;
  auto delay = sim::make_exponential_delay(1.0);
  net::SimTransport transport(
      sim, *delay, master.fork(10),
      static_cast<net::NodeId>(kServers + kClients));

  harness::ClusterOptions servers;
  servers.servers = kServers;
  harness::StoreCluster cluster(sim, transport, master, servers);
  for (std::size_t s = 0; s < kServers; ++s) {
    cluster.server(s).bind_spans(&sink, sim);
  }

  // Seeded churn plus message-level drop/duplicate/reorder — the fault mix
  // the property quantifies over.
  util::Rng churn_rng = master.fork(20);
  net::FaultPlan plan = net::FaultPlan::random_churn(
      kServers, kHorizon, /*mean_uptime=*/15.0, /*mean_downtime=*/5.0,
      churn_rng);
  net::MessageFaults faults;
  faults.drop_probability = 0.05;
  faults.duplicate_probability = 0.05;
  faults.reorder_probability = 0.15;
  faults.reorder_delay_max = 3.0;
  plan.with_message_faults(faults);

  quorum::ProbabilisticQuorums quorums(kServers, kQuorum);
  core::ClientOptions options;
  options.monotone = true;
  // No deadline: every op retries until the horizon heal lets it settle.
  options.retry = harness::store_retry();
  options.spans = &sink;

  std::deque<core::QuorumRegisterClient> clients;
  for (std::size_t i = 0; i < kClients; ++i) {
    clients.emplace_back(sim, transport,
                         static_cast<net::NodeId>(kServers + i), quorums,
                         master.fork(500 + i), options);
  }

  plan.install(sim, transport);
  // After the plan, so its events at the horizon fire first.
  cluster.heal_at(kHorizon);

  std::size_t completed = 0;
  std::deque<Driver> drivers;
  for (std::size_t i = 0; i < kClients; ++i) {
    Driver d;
    d.sim = &sim;
    d.client = &clients[i];
    d.rng = master.fork(900 + i);
    d.remaining = kOpsPerClient;
    d.own_reg = static_cast<core::RegisterId>(i);
    d.completed = &completed;
    drivers.push_back(d);
    drivers.back().step();
  }

  sim.run_until(kHorizon + 1000.0 + 60.0 * kOpsPerClient);
  return completed;
}

TEST(SpanFaultPropertyTest, ChurnNeverOrphansOrLeaksSpans) {
  for (std::uint64_t seed : {1u, 7u, 23u, 91u, 402u}) {
    obs::SpanSink sink(obs::SpanSink::Options{seed, /*sample_period=*/1});
    const std::size_t completed = run_workload(seed, sink);
    ASSERT_EQ(completed, kClients * kOpsPerClient) << "seed " << seed;

    // The property: nothing orphaned, nothing open, nothing double-closed
    // (a double-close would already have thrown inside the run).
    EXPECT_NO_THROW(sink.check(/*require_closed=*/true)) << "seed " << seed;

    // Every completed operation has exactly one root span, and the tree
    // hangs together kind-wise even when replies were dropped/duplicated.
    std::size_t roots = 0;
    const std::vector<obs::SpanRecord>& spans = sink.spans();
    for (const obs::SpanRecord& rec : spans) {
      if (rec.kind == obs::SpanKind::kClientOp) {
        EXPECT_EQ(rec.parent, 0u);
        ++roots;
        continue;
      }
      ASSERT_GE(rec.parent, 1u);
      ASSERT_LT(rec.parent, rec.id);
      const obs::SpanRecord& parent = spans[rec.parent - 1];
      EXPECT_EQ(rec.trace, parent.trace) << "seed " << seed;
      if (rec.kind == obs::SpanKind::kServerHandle) {
        EXPECT_EQ(parent.kind, obs::SpanKind::kRpcAttempt);
      } else {
        EXPECT_EQ(parent.kind, obs::SpanKind::kClientOp);
      }
    }
    EXPECT_EQ(roots, kClients * kOpsPerClient) << "seed " << seed;
  }
}

TEST(SpanFaultPropertyTest, FaultySpanSetIsReproducible) {
  obs::SpanSink a(obs::SpanSink::Options{7, 1});
  obs::SpanSink b(obs::SpanSink::Options{7, 1});
  run_workload(7, a);
  run_workload(7, b);
  EXPECT_EQ(a.spans(), b.spans());
  EXPECT_GT(a.size(), 0u);
}

TEST(SpanFaultPropertyTest, SamplingOffRecordsNothingUnderFaults) {
  obs::SpanSink sink(obs::SpanSink::Options{7, /*sample_period=*/0});
  const std::size_t completed = run_workload(7, sink);
  EXPECT_EQ(completed, kClients * kOpsPerClient);
  EXPECT_EQ(sink.size(), 0u);
}

}  // namespace
}  // namespace pqra
