#include "explore/runner.hpp"

#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "apps/apsp.hpp"
#include "apps/graph.hpp"
#include "core/spec/batch.hpp"
#include "core/spec/probes.hpp"
#include "harness/store_harness.hpp"
#include "iter/alg1_des.hpp"
#include "quorum/probabilistic.hpp"
#include "storage/wal.hpp"
#include "util/zipf.hpp"

namespace pqra::explore {

namespace {

namespace spec = core::spec;

/// "[probe:xxx] ..." -> "probe:xxx" (probes tag their violations with their
/// rule id so the shrinker can match on it).
std::string probe_rule(const std::string& violation) {
  if (!violation.empty() && violation.front() == '[') {
    const std::size_t close = violation.find(']');
    if (close != std::string::npos) return violation.substr(1, close - 1);
  }
  return "probe";
}

void fold(spec::CheckResult& into, const spec::CheckResult& from) {
  for (const std::string& v : from.violations) into.fail(v);
}

/// Crash-replay-compare oracle (docs/DURABILITY.md): replaces the cluster
/// as the fault injector's lifecycle listener, so it runs on every real
/// crashed->up transition.  It captures the node's durable images, lets the
/// cluster's recovery rule rebuild the replica, and cross-checks the
/// recovered store against an *independent* fold of those same durable
/// bytes — snapshot entries then the honest CRC-checked WAL prefix, ts-max
/// merge.  Any divergence (a planted CRC-skip bug, a replay that resurrects
/// torn garbage, a truncation that loses acked records) fails under the
/// rule id "probe:durable-recovery", which shrinks and replays like any
/// other violation.  Runs synchronously inside the existing recover fault
/// event: durable runs add zero simulator events.
class RecoveryOracle final : public net::NodeLifecycleListener {
 public:
  RecoveryOracle(harness::StoreCluster& cluster, spec::StoreProbe& probe,
                 spec::CheckResult& failures)
      : cluster_(cluster), probe_(probe), failures_(failures) {}

  void on_recover(net::NodeId node) override {
    if (node >= cluster_.size()) return;
    // Capture the durable images BEFORE recovery: it repairs the log
    // (wal_truncate_to), and the oracle must judge the bytes the crash
    // actually left behind.
    const storage::MemDisk& disk = cluster_.disk(node);
    const util::Bytes snapshot = disk.durable_snapshot();
    const util::Bytes log = disk.durable_wal();
    cluster_.recover(node);

    // Independent replay of the durable prefix: snapshot entries, then the
    // honest CRC-checked WAL fold.  Shares only the record codec with
    // DurableStore::recover(), none of its control flow.
    std::map<core::RegisterId, std::pair<core::Timestamp, core::Value>>
        expected;
    if (!snapshot.empty()) {
      for (core::Replica::StoreEntry& e :
           core::Replica::decode_store(snapshot)) {
        expected[e.reg] = {e.ts, std::move(e.value)};
      }
    }
    for (storage::wal::Record& r : storage::wal::replay_log(log).records) {
      auto it = expected.find(r.reg);
      if (it == expected.end() || r.ts >= it->second.first) {
        expected[r.reg] = {r.ts, std::move(r.value)};
      }
    }

    const core::Replica& replica = cluster_.server(node).replica();
    const std::vector<core::Replica::StoreEntry> recovered =
        core::Replica::decode_store(replica.encode_store());
    for (const core::Replica::StoreEntry& e : recovered) {
      auto it = expected.find(e.reg);
      if (it == expected.end()) {
        fail(node, e.reg, "recovered an entry the durable prefix lacks");
      } else if (e.ts != it->second.first ||
                 e.value.bytes() != it->second.second.bytes()) {
        std::ostringstream os;
        os << "recovered (ts=" << e.ts << ", " << e.value.size()
           << "B) but the durable prefix holds (ts=" << it->second.first
           << ", " << it->second.second.size() << "B)";
        fail(node, e.reg, os.str());
      }
    }
    if (recovered.size() != expected.size()) {
      std::ostringstream os;
      os << "recovered " << recovered.size()
         << " entries but the durable prefix holds " << expected.size();
      fail(node, 0, os.str());
    }
    // The rewind to the durable prefix is legitimate (acked-but-unsynced
    // writes die with the volatile state); reset the monotonicity watch so
    // the store-ts probe doesn't re-report what the oracle just judged.
    probe_.forget(node);
  }

 private:
  void fail(net::NodeId node, core::RegisterId reg, const std::string& why) {
    std::ostringstream os;
    os << "[probe:durable-recovery] server=" << node << ", reg=" << reg
       << ": " << why;
    failures_.fail(os.str());
  }

  harness::StoreCluster& cluster_;
  spec::StoreProbe& probe_;
  spec::CheckResult& failures_;
};

/// Direct register workload: clients [n, n+c) against servers [0, n), built
/// through the store harness.  Single-key profiles give each client one
/// register (client i is register i's single writer); multi-key profiles
/// spread keys_per_client keys per client over the keyspace, optionally
/// Zipf-skewed reads, contended writers, and consistent-hash replica groups
/// (docs/SHARDING.md).
RunOutcome run_direct(const ScheduleProfile& p,
                      obs::FlightRecorder* recorder) {
  RunOutcome out;
  // Zipfian read skew over the whole keyspace; shared by all loops (each
  // draw consumes one uniform from the calling loop's own stream).
  std::optional<util::Zipfian> zipf;
  if (p.key_skew > 0.0) zipf.emplace(p.num_keys(), p.key_skew);

  harness::RunOptions o;
  o.cluster.servers = p.num_servers;
  o.cluster.gossip_interval = p.gossip_interval;
  o.cluster.recovery =
      p.durable ? harness::Recovery::kWal : harness::Recovery::kMemory;
  o.cluster.snapshot_every = p.snapshot_every;
  o.replicas = p.replicas;
  o.vnodes = p.ring_vnodes;
  o.quorum = p.quorum_size;
  o.clients = p.num_clients;
  o.ops = p.ops_per_client;
  o.keys_per_client = p.keys_per_client;
  o.writers_per_key = p.writers_per_key;
  o.monotone = p.monotone;
  o.read_repair = p.read_repair;
  o.write_back = p.write_back;
  o.snapshot_reads = p.snapshot_reads;
  if (zipf.has_value()) o.zipf = &*zipf;
  o.delay = p.delay;
  o.horizon = p.horizon;
  harness::StoreRun store(p.seed, o);
  if (recorder != nullptr) store.transport().bind_flight_recorder(recorder);
  harness::StoreCluster& cluster = store.cluster();
  for (std::size_t s = 0; s < cluster.size(); ++s) {
    if (p.bug_cross_key) {
      cluster.server(s).replica().set_test_cross_key_probe_bug(true);
    }
    if (p.durable && p.bug_skip_crc) {
      cluster.durable(s).set_test_skip_crc_bug(true);
    }
  }

  // Set up before the fault plan installs: the recovery oracle hangs off
  // the injector's lifecycle hook and folds into the same probe state.
  spec::StoreProbe probe;
  spec::CheckResult probe_failures;
  std::optional<RecoveryOracle> oracle;
  if (p.durable) {
    oracle.emplace(cluster, probe, probe_failures);
    store.transport().faults().set_lifecycle_listener(&*oracle);
  }
  store.install(p.faults);

  // Store/COW probes at 7 interior points of the horizon plus one final
  // observation after the run.
  const auto observe_all = [&probe, &probe_failures, &cluster] {
    for (std::size_t s = 0; s < cluster.size(); ++s) {
      core::ServerProcess& server = cluster.server(s);
      fold(probe_failures, probe.observe(server.id(), server.replica()));
    }
  };
  for (int k = 1; k <= 7; ++k) {
    store.simulator().schedule_at(p.horizon * static_cast<double>(k) / 8.0,
                                  sim::EventTag::kProbe, observe_all);
  }
  store.run_workload();
  observe_all();

  const spec::HistoryRecorder& history = store.history();
  out.fingerprint = store.simulator().fingerprint();
  out.events_processed = store.simulator().events_processed();
  out.sim_time = store.simulator().now();
  out.ops_checked = history.ops().size();

  spec::BatchOptions bo;
  bo.r4 = p.check_monotone;
  // Contended keys have several writers with independent timestamp
  // counters, so the single-writer rule is out of spec for them.
  bo.single_writer = p.writers_per_key == 1;
  // Key-partitioned check: same verdict as check_batch (every rule is
  // per-key independent), but the first failure is attributed (rule, key).
  // out.rule stays the bare rule id — the shrinker's same-rule acceptance
  // and repro-file headers key on it — while the keyed attribution rides in
  // out.detail.
  const spec::KeyedBatchResult batch =
      spec::check_batch_by_key(history.ops(), bo);
  if (!batch.ok()) {
    out.violation = true;
    out.rule = spec::rule_id(batch.first->rule);
    out.detail = batch.summary();
  } else if (!probe_failures.ok) {
    out.violation = true;
    out.rule = probe_rule(probe_failures.violations.front());
    out.detail = probe_failures.violations.front();
  }
  return out;
}

/// Alg. 1 scenario: APSP on the paper's 5-chain, run to convergence over
/// the profile's cluster shape and fault schedule.
RunOutcome run_alg1_scenario(const ScheduleProfile& p,
                             obs::FlightRecorder* recorder) {
  RunOutcome out;
  const apps::Graph g = apps::make_chain(5);
  const apps::ApspOperator op(g);

  quorum::ProbabilisticQuorums quorums(p.num_servers, p.quorum_size);
  // Append full recovery at the horizon (run_alg1 owns the simulator, so
  // the recovery must travel inside the plan).  Message faults persist past
  // the horizon, which is why from_seed caps the loss knobs for alg1.
  net::FaultPlan plan = p.faults;
  const auto n = static_cast<net::NodeId>(p.num_servers);
  for (net::NodeId s = 0; s < n; ++s) {
    plan.add({.at = p.horizon, .kind = net::FaultKind::kRecover, .node = s});
    plan.add({.at = p.horizon, .kind = net::FaultKind::kClearSlow, .node = s});
  }
  plan.add({.at = p.horizon, .kind = net::FaultKind::kHeal});

  iter::Alg1Options o;
  o.quorums = &quorums;
  o.monotone = p.monotone;
  o.read_repair = p.read_repair;
  o.write_back = p.write_back;
  o.snapshot_reads = p.snapshot_reads;
  // run_alg1 owns its delay model; the profile's spec degrades to the
  // synchronous/asynchronous switch.
  o.synchronous = p.delay.kind == sim::DelaySpec::Kind::kConstant;
  if (p.gossip_interval > 0.0) o.gossip_interval = p.gossip_interval;
  o.seed = p.seed;
  o.round_cap = 5000;
  o.record_history = true;
  o.fault_plan = &plan;
  o.retry = harness::store_retry();
  o.max_sim_time = p.horizon + 20000.0;
  o.flight_recorder = recorder;

  const iter::Alg1Result result = iter::run_alg1(op, o);
  out.fingerprint = result.fingerprint;
  out.events_processed = result.events_processed;
  out.sim_time = result.sim_time;
  out.ops_checked = result.history->ops().size();

  spec::BatchOptions bo;
  // The run truncates at convergence (or the time wall) with ops still in
  // flight, so completeness [R1] is not checkable here.
  bo.r1 = false;
  bo.r4 = p.monotone && p.check_monotone;
  const spec::BatchResult batch = spec::check_batch(result.history->ops(), bo);
  if (!batch.ok()) {
    out.violation = true;
    out.rule = spec::rule_id(batch.first_failure()->rule);
    out.detail = batch.summary();
    return out;
  }

  // §6.2: the monotone iteration converges on every schedule.  (Plain
  // registers carry no such guarantee, so non-monotone profiles skip this.)
  if (p.monotone && !result.converged) {
    out.violation = true;
    out.rule = "alg1-convergence";
    std::ostringstream os;
    os << "monotone Alg. 1 run failed to converge (rounds=" << result.rounds
       << ", sim_time=" << result.sim_time << ", round_cap=" << o.round_cap
       << ")";
    out.detail = os.str();
    return out;
  }

  if (result.converged) {
    // Fixed-point/ACO-box probe: the answer the run converged to really is
    // a fixed point of F and lies in every contraction box D(0..3).
    std::vector<iter::Value> x;
    x.reserve(op.num_components());
    for (std::size_t i = 0; i < op.num_components(); ++i) {
      x.push_back(op.fixed_point(i));
    }
    for (std::size_t i = 0; i < op.num_components() && !out.violation; ++i) {
      if (!op.component_equal(i, op.apply(i, x), x[i])) {
        out.violation = true;
        out.rule = "probe:alg1-fixed-point";
        std::ostringstream os;
        os << "[probe:alg1-fixed-point] F(x*) != x* at component " << i;
        out.detail = os.str();
        break;
      }
      for (std::size_t K = 0; K <= 3; ++K) {
        if (op.has_box_oracle() && !op.box_contains(K, i, x[i])) {
          out.violation = true;
          out.rule = "probe:alg1-fixed-point";
          std::ostringstream os;
          os << "[probe:alg1-fixed-point] fixed point escapes box D(" << K
             << ") at component " << i;
          out.detail = os.str();
          break;
        }
      }
    }
  }
  return out;
}

}  // namespace

RunOutcome run_profile(const ScheduleProfile& profile,
                       obs::FlightRecorder* recorder) {
  return profile.alg1 ? run_alg1_scenario(profile, recorder)
                      : run_direct(profile, recorder);
}

}  // namespace pqra::explore
