#include "explore/runner.hpp"

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "apps/apsp.hpp"
#include "apps/graph.hpp"
#include "core/keyspace/hash_ring.hpp"
#include "core/quorum_register_client.hpp"
#include "core/server_process.hpp"
#include "core/spec/batch.hpp"
#include "core/spec/probes.hpp"
#include "iter/alg1_des.hpp"
#include "net/sim_transport.hpp"
#include "quorum/probabilistic.hpp"
#include "sim/profiler.hpp"
#include "storage/durable_store.hpp"
#include "storage/mem_disk.hpp"
#include "util/codec.hpp"
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

/// Crash-replay-compare oracle (docs/DURABILITY.md): fired by the fault
/// injector on every real crashed->up transition.  It models the crash
/// (drop the node's volatile storage), snapshots the durable images, lets
/// the DurableStore recover the replica, and cross-checks the recovered
/// store against an *independent* fold of those same durable bytes —
/// snapshot entries then the honest CRC-checked WAL prefix, ts-max merge.
/// Any divergence (a planted CRC-skip bug, a replay that resurrects torn
/// garbage, a truncation that loses acked records) fails under the rule id
/// "probe:durable-recovery", which shrinks and replays like any other
/// violation.  Runs synchronously inside the existing recover fault event:
/// durable runs add zero simulator events.
class RecoveryOracle final : public net::NodeLifecycleListener {
 public:
  RecoveryOracle(std::deque<storage::MemDisk>& disks,
                 std::deque<storage::DurableStore>& stores,
                 std::deque<core::ServerProcess>& servers,
                 spec::StoreProbe& probe, spec::CheckResult& failures)
      : disks_(disks),
        stores_(stores),
        servers_(servers),
        probe_(probe),
        failures_(failures) {}

  void on_recover(net::NodeId node) override {
    if (node >= disks_.size()) return;
    storage::MemDisk& disk = disks_[node];
    disk.drop_volatile();
    // Capture the durable images BEFORE recover(): the store's recovery
    // repairs the log (wal_truncate_to), and the oracle must judge the
    // bytes the crash actually left behind.
    const util::Bytes snapshot = disk.durable_snapshot();
    const util::Bytes log = disk.durable_wal();
    stores_[node].recover();

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

    const core::Replica& replica = servers_[node].replica();
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

  std::deque<storage::MemDisk>& disks_;
  std::deque<storage::DurableStore>& stores_;
  std::deque<core::ServerProcess>& servers_;
  spec::StoreProbe& probe_;
  spec::CheckResult& failures_;
};

core::RetryPolicy explore_retry() {
  core::RetryPolicy retry;
  retry.rpc_timeout = 6.0;
  retry.backoff_factor = 1.5;
  retry.max_backoff = 24.0;
  retry.jitter = 0.1;
  return retry;
}

/// Issues one client's randomized op sequence, one op at a time (condition
/// (3) of §3: no pipelining per register), with a short think delay before
/// each op so client interleavings vary across profiles.  All draws come
/// from the driver's forked Rng stream.
struct ClientDriver {
  sim::Simulator* sim = nullptr;
  core::QuorumRegisterClient* client = nullptr;
  util::Rng rng;
  std::size_t remaining = 0;
  std::size_t num_regs = 1;
  core::RegisterId own_reg = 0;
  bool snapshot_reads = false;
  std::int64_t next_value = 0;
  // Keyspace shape (docs/SHARDING.md).  Key k = slot * num_clients + owner,
  // so the single-key defaults collapse to the legacy workload with the
  // exact same draw sequence: writes target own_reg without a draw, reads
  // draw uniformly over num_regs (== num_clients when keys_per_client is 1).
  std::size_t keys_per_client = 1;
  std::size_t writers_per_key = 1;
  std::size_t num_clients = 1;
  std::size_t own_index = 0;
  const util::Zipfian* zipf = nullptr;

  void step() {
    if (remaining == 0) return;
    --remaining;
    sim->schedule_in(rng.uniform01() * 2.0, sim::EventTag::kWorkload,
                     [this] { issue(); });
  }

  core::RegisterId pick_write_key() {
    if (keys_per_client == 1 && writers_per_key == 1) return own_reg;
    const std::size_t slot =
        keys_per_client > 1 ? static_cast<std::size_t>(rng.below(
                                  keys_per_client))
                            : 0;
    // writers_per_key > 1: this client also writes keys owned by the next
    // w-1 clients (mod c), making those keys contended.
    const std::size_t owner =
        writers_per_key > 1
            ? (own_index + static_cast<std::size_t>(rng.below(
                               writers_per_key))) %
                  num_clients
            : own_index;
    return static_cast<core::RegisterId>(slot * num_clients + owner);
  }

  core::RegisterId pick_read_key() {
    if (zipf != nullptr) {
      return static_cast<core::RegisterId>(zipf->draw(rng));
    }
    return static_cast<core::RegisterId>(rng.below(num_regs));
  }

  void issue() {
    if (rng.bernoulli(0.4)) {
      ++next_value;
      client->write(pick_write_key(), util::encode(next_value),
                    [this](core::Timestamp) { step(); });
    } else if (snapshot_reads && rng.bernoulli(0.3)) {
      std::vector<core::RegisterId> regs;
      regs.reserve(num_regs);
      for (std::size_t r = 0; r < num_regs; ++r) {
        regs.push_back(static_cast<core::RegisterId>(r));
      }
      client->read_snapshot(std::move(regs),
                            [this](std::vector<core::ReadResult>) { step(); });
    } else {
      client->read(pick_read_key(), [this](core::ReadResult) { step(); });
    }
  }
};

/// Direct register workload: clients [n, n+c) against servers [0, n).
/// Single-key profiles give each client one register (client i is register
/// i's single writer); multi-key profiles spread keys_per_client keys per
/// client over the keyspace, optionally Zipf-skewed reads, contended
/// writers, and consistent-hash replica groups (docs/SHARDING.md).
RunOutcome run_direct(const ScheduleProfile& p,
                      obs::FlightRecorder* recorder) {
  RunOutcome out;
  util::Rng master(p.seed);
  const auto n = static_cast<net::NodeId>(p.num_servers);
  const std::size_t c = p.num_clients;
  const std::size_t total_keys = p.num_keys();
  const bool sharded = p.replicas > 0;

  core::keyspace::HashRing ring(p.ring_vnodes);
  if (sharded) {
    for (net::NodeId s = 0; s < n; ++s) ring.add_node(s);
  }
  // Sharded runs size the quorum system to the replica group: ServerId on
  // the wire is a position within the key's group, resolved per key.
  quorum::ProbabilisticQuorums quorums(sharded ? p.replicas : p.num_servers,
                                       p.quorum_size);
  sim::Simulator sim;
  const std::unique_ptr<sim::DelayModel> delay = p.delay.make();
  net::SimTransport transport(sim, *delay, master.fork(10),
                              static_cast<net::NodeId>(p.num_servers + c));
  if (recorder != nullptr) transport.bind_flight_recorder(recorder);

  std::deque<core::ServerProcess> servers;
  for (net::NodeId s = 0; s < n; ++s) {
    if (p.gossip_interval > 0.0) {
      core::GossipOptions gossip;
      gossip.interval = p.gossip_interval;
      gossip.group_base = 0;
      gossip.group_size = p.num_servers;
      servers.emplace_back(transport, s, sim, gossip,
                           master.fork(200 + static_cast<std::uint64_t>(s)));
    } else {
      servers.emplace_back(transport, s);
    }
    if (p.bug_cross_key) {
      servers.back().replica().set_test_cross_key_probe_bug(true);
    }
  }

  // Durable replicas (docs/DURABILITY.md): one deterministic MemDisk and
  // one DurableStore per server.  The disk's RNG stream (300+s) is forked
  // only on durable runs — fork() is const, so non-durable runs keep their
  // exact draw sequence — and is consumed only when a torn-write fault
  // picks a tear offset, so fault-free durable runs stay byte-identical to
  // their non-durable twins.
  std::deque<storage::MemDisk> disks;
  std::deque<storage::DurableStore> stores;
  if (p.durable) {
    for (net::NodeId s = 0; s < n; ++s) {
      disks.emplace_back(s, &transport.faults(),
                         master.fork(300 + static_cast<std::uint64_t>(s)));
      stores.emplace_back(disks.back(),
                          storage::DurableStore::Options{p.snapshot_every});
      stores.back().attach(servers[s].replica());
      if (p.bug_skip_crc) stores.back().set_test_skip_crc_bug(true);
    }
  }

  spec::HistoryRecorder history;
  core::ClientOptions options;
  options.monotone = p.monotone;
  options.read_repair = p.read_repair;
  options.write_back = p.write_back;
  options.retry = explore_retry();
  if (sharded) options.ring = &ring;

  std::deque<core::QuorumRegisterClient> clients;
  for (std::size_t i = 0; i < c; ++i) {
    clients.emplace_back(sim, transport,
                         static_cast<net::NodeId>(p.num_servers + i), quorums,
                         /*server_base=*/0, master.fork(500 + i), options,
                         &history);
  }

  // Every key carries a preloaded initial so reads before the first write
  // are well-defined for [R2] — on every server under full replication, on
  // the key's ring group only when sharded.  One shared zero value: copies
  // alias (net/value.hpp), so this is a refcount bump per replica instead
  // of an allocation per replica.
  const core::Value zero = util::encode<std::int64_t>(0);
  std::vector<net::NodeId> group;
  for (std::size_t r = 0; r < total_keys; ++r) {
    const auto reg = static_cast<core::RegisterId>(r);
    if (sharded) {
      ring.replica_group(reg, p.replicas, group);
      for (net::NodeId owner : group) {
        servers[owner].replica().preload(reg, zero);
      }
    } else {
      for (core::ServerProcess& s : servers) {
        s.replica().preload(reg, zero);
      }
    }
    history.record_initial(reg);
  }
  // Preload bypasses the store listener; an explicit checkpoint makes the
  // initial vector durable, so a server crashing before its first write
  // recovers its preloaded keys instead of an empty store.
  for (storage::DurableStore& store : stores) store.checkpoint();

  // Zipfian read skew over the whole keyspace; shared by all drivers (each
  // draw consumes one uniform from the calling driver's own stream).
  std::optional<util::Zipfian> zipf;
  if (p.key_skew > 0.0) zipf.emplace(total_keys, p.key_skew);

  std::deque<ClientDriver> drivers;
  for (std::size_t i = 0; i < c; ++i) {
    ClientDriver d;
    d.sim = &sim;
    d.client = &clients[i];
    d.rng = master.fork(900 + i);
    d.remaining = p.ops_per_client;
    d.num_regs = total_keys;
    d.own_reg = static_cast<core::RegisterId>(i);
    d.snapshot_reads = p.snapshot_reads;
    d.keys_per_client = p.keys_per_client;
    d.writers_per_key = p.writers_per_key;
    d.num_clients = c;
    d.own_index = i;
    if (zipf.has_value()) d.zipf = &*zipf;
    drivers.push_back(d);
  }

  // Declared before the fault plan installs: the recovery oracle hangs off
  // the injector's lifecycle hook and folds into the same probe state.
  spec::StoreProbe probe;
  spec::CheckResult probe_failures;
  std::optional<RecoveryOracle> oracle;
  if (p.durable) {
    oracle.emplace(disks, stores, servers, probe, probe_failures);
    transport.faults().set_lifecycle_listener(&*oracle);
  }

  // Key-addressed fault targets resolve to the key's primary owner — ring
  // primary when sharded, round-robin owner otherwise.
  net::FaultPlan plan = p.faults;
  if (plan.has_key_targets()) {
    plan = plan.resolve_keys([&](net::KeyId key) {
      return sharded ? ring.primary(key)
                     : static_cast<net::NodeId>(key % p.num_servers);
    });
  }
  plan.install(sim, transport);
  // Horizon recovery, scheduled AFTER the plan so plan events at exactly
  // the horizon fire first: from here on the cluster is fault-free and all
  // pending operations can complete — [R1] stays a checkable property.
  sim.schedule_at(p.horizon, sim::EventTag::kFault, [&transport, n] {
    net::FaultInjector& inj = transport.faults();
    for (net::NodeId s = 0; s < n; ++s) {
      inj.recover(s);
      inj.clear_slow(s);
    }
    inj.heal();
    inj.set_message_faults(net::MessageFaults{});
  });

  // Store/COW probes at 7 interior points of the horizon plus one final
  // observation after the run.
  for (int k = 1; k <= 7; ++k) {
    sim.schedule_at(p.horizon * static_cast<double>(k) / 8.0,
                    sim::EventTag::kProbe,
                    [&probe, &probe_failures, &servers] {
                      for (core::ServerProcess& s : servers) {
                        fold(probe_failures, probe.observe(s.id(), s.replica()));
                      }
                    });
  }

  for (ClientDriver& d : drivers) d.step();

  // Gossip (and stray retry timers) keep the queue alive, so run to a cap
  // generous enough that every op finishes long after horizon recovery.
  const sim::Time cap =
      p.horizon + 1000.0 + 60.0 * static_cast<double>(p.ops_per_client);
  sim.run_until(cap);

  for (core::ServerProcess& s : servers) {
    fold(probe_failures, probe.observe(s.id(), s.replica()));
  }

  out.fingerprint = sim.fingerprint();
  out.events_processed = sim.events_processed();
  out.sim_time = sim.now();
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
  o.retry = explore_retry();
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
