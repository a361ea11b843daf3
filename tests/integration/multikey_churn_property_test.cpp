/// Mixed-key churn property suite (docs/SHARDING.md): 64 keys spread over
/// consistent-hash replica groups, four clients running the store
/// harness's Zipf-skewed get/put workload (harness::StoreRun, the code
/// experiment_cli app=store runs) while servers churn and the network
/// drops/duplicates/reorders — and the recorded history must pass the
/// key-partitioned spec checkers ([R1] after horizon recovery, [R2], [R4],
/// single-writer per key), with every causal span tree staying
/// key-consistent (a tree never mixes keys, and every RPC lands inside the
/// key's replica group).
///
/// Each case is parameterized by its seed, which appears in the test name,
/// so a violation reproduces with one --gtest_filter invocation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/keyspace/hash_ring.hpp"
#include "core/spec/batch.hpp"
#include "harness/store_harness.hpp"
#include "net/fault_plan.hpp"
#include "obs/span.hpp"
#include "util/rng.hpp"
#include "util/zipf.hpp"

namespace pqra {
namespace {

constexpr std::size_t kServers = 10;
constexpr std::size_t kReplicas = 3;
constexpr std::size_t kQuorum = 2;
constexpr std::size_t kVnodes = 8;
constexpr std::size_t kClients = 4;
constexpr std::size_t kKeysPerClient = 16;  // 64 keys total
constexpr std::size_t kTotalKeys = kClients * kKeysPerClient;
constexpr std::size_t kOpsPerClient = 25;
constexpr double kHorizon = 60.0;

struct RunResult {
  std::size_t completed = 0;
  core::spec::KeyedBatchResult batch;
};

RunResult run_workload(std::uint64_t seed, obs::SpanSink* sink) {
  const util::Zipfian zipf(kTotalKeys, 0.7);
  harness::RunOptions options;
  options.cluster.servers = kServers;
  options.replicas = kReplicas;
  options.vnodes = kVnodes;
  options.quorum = kQuorum;
  options.clients = kClients;
  options.ops = kOpsPerClient;
  options.keys_per_client = kKeysPerClient;
  options.zipf = &zipf;
  options.horizon = kHorizon;
  options.spans = sink;
  harness::StoreRun store(seed, options);

  // Seeded churn plus message drop/duplicate/reorder — the fault mix the
  // property quantifies over.  The harness heals it all at the horizon and
  // its clients retry without a deadline, so every op completes and [R1]
  // is checkable.
  util::Rng churn_rng = util::Rng(seed).fork(20);
  net::FaultPlan plan = net::FaultPlan::random_churn(
      kServers, kHorizon, /*mean_uptime=*/15.0, /*mean_downtime=*/5.0,
      churn_rng);
  net::MessageFaults faults;
  faults.drop_probability = 0.04;
  faults.duplicate_probability = 0.04;
  faults.reorder_probability = 0.12;
  faults.reorder_delay_max = 3.0;
  plan.with_message_faults(faults);
  store.install(plan);
  store.run_workload();

  RunResult result;
  for (const core::spec::OpRecord& op : store.history().ops()) {
    // Initial values are recorded under pseudo-process 0; clients are
    // nodes [servers, servers + clients).
    if (op.proc >= kServers && op.responded) ++result.completed;
  }
  core::spec::BatchOptions bo;
  bo.r4 = true;  // monotone clients
  result.batch = core::spec::check_batch_by_key(store.history().ops(), bo);
  return result;
}

class MultiKeyChurnProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(MultiKeyChurnProperty, KeyPartitionedSpecHoldsUnderChurn) {
  const std::uint64_t seed = GetParam();
  // The harness's ring: the same vnodes over the same servers.
  core::keyspace::HashRing ring(kVnodes);
  for (net::NodeId s = 0; s < static_cast<net::NodeId>(kServers); ++s) {
    ring.add_node(s);
  }

  obs::SpanSink sink(obs::SpanSink::Options{seed, /*sample_period=*/1});
  const RunResult r = run_workload(seed, &sink);

  ASSERT_EQ(r.completed, kClients * kOpsPerClient) << "seed " << seed;
  EXPECT_TRUE(r.batch.ok()) << "seed " << seed << "\n  "
                            << r.batch.summary();
  // Every key was checked (its recorded initial guarantees presence).
  EXPECT_EQ(r.batch.keys_checked, kTotalKeys) << "seed " << seed;

  // Span trees stay key-consistent: no orphans or leaks, a tree never
  // mixes keys, every RPC attempt lands inside the key's replica group, and
  // the harness binds every server to the sink, so each server_handle span
  // hangs under an RPC attempt to that same server.
  EXPECT_NO_THROW(sink.check(/*require_closed=*/true)) << "seed " << seed;
  std::vector<net::NodeId> group;
  const std::vector<obs::SpanRecord>& spans = sink.spans();
  std::size_t rpc_attempts = 0;
  std::size_t server_handles = 0;
  for (const obs::SpanRecord& rec : spans) {
    if (rec.parent != 0) {
      ASSERT_LT(rec.parent, rec.id);
      EXPECT_EQ(rec.reg, spans[rec.parent - 1].reg)
          << "seed " << seed << ": span tree mixes keys";
    }
    if (rec.kind == obs::SpanKind::kRpcAttempt) {
      ++rpc_attempts;
      ring.replica_group(rec.reg, kReplicas, group);
      EXPECT_NE(std::find(group.begin(), group.end(),
                          static_cast<net::NodeId>(rec.server)),
                group.end())
          << "seed " << seed << ": RPC for key " << rec.reg
          << " left its replica group (server " << rec.server << ")";
    }
    if (rec.kind == obs::SpanKind::kServerHandle) {
      ++server_handles;
      ASSERT_NE(rec.parent, 0u) << "seed " << seed;
      const obs::SpanRecord& rpc = spans[rec.parent - 1];
      EXPECT_EQ(rpc.kind, obs::SpanKind::kRpcAttempt)
          << "seed " << seed << ": server_handle " << rec.id
          << " is not under an RPC attempt";
      EXPECT_EQ(rpc.server, rec.server)
          << "seed " << seed << ": server " << rec.server
          << " handled an RPC sent to server " << rpc.server;
    }
  }
  EXPECT_GT(rpc_attempts, 0u) << "seed " << seed;
  EXPECT_GT(server_handles, 0u) << "seed " << seed;
}

TEST(MultiKeyChurnTest, HistoryAndSpansAreReproducible) {
  obs::SpanSink a(obs::SpanSink::Options{11, 1});
  obs::SpanSink b(obs::SpanSink::Options{11, 1});
  const RunResult ra = run_workload(11, &a);
  const RunResult rb = run_workload(11, &b);
  EXPECT_EQ(ra.completed, rb.completed);
  EXPECT_EQ(a.spans(), b.spans());
  EXPECT_GT(a.size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiKeyChurnProperty,
                         ::testing::Values(1u, 7u, 42u, 1337u, 99991u),
                         [](const auto& info) {
                           return "seed_" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace pqra
