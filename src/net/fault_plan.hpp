#pragma once

/// \file fault_plan.hpp
/// Deterministic fault schedules for both runtimes.
///
/// A FaultPlan is a list of timed fault events — crash/recover, slow-node,
/// partition/heal — plus an optional message-fault configuration, applied to
/// a FaultInjector.  On the DES the plan is installed onto the simulator
/// (bit-reproducible from the seed); on the threaded runtime a
/// LiveFaultDriver (net/faults.hpp + alg1_threads) replays it in scaled
/// wall-clock time.  Combined with the register clients' retry policy this
/// drives the dynamic-availability experiments: probabilistic quorums keep
/// making progress through churn that stalls strict systems.

#include <condition_variable>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/faults.hpp"
#include "net/sim_transport.hpp"
#include "net/thread_transport.hpp"

namespace pqra::net {

enum class FaultKind : std::uint8_t {
  kCrash,
  kRecover,
  kSlow,       ///< multiply the node's message delays by `factor`
  kClearSlow,
  kPartition,  ///< split the listed nodes into isolated groups
  kHeal,       ///< remove the partition
  // Storage-level durability faults (docs/DURABILITY.md); consumed by
  // MemDisk-backed replicas, no-ops on runs without durable storage.
  kTornWrite,       ///< arm a one-shot torn WAL sync on the node
  kFsyncLoss,       ///< open an fsync-loss window on the node
  kClearFsyncLoss,  ///< close the node's fsync-loss window
};

class FaultPlan {
 public:
  struct Event {
    sim::Time at = 0.0;
    FaultKind kind = FaultKind::kCrash;
    NodeId node = 0;      ///< crash/recover/slow/clear-slow
    /// Key-addressed target (docs/SHARDING.md): `node` holds a KeyId, not a
    /// NodeId, and resolve_keys() must map it to the key's primary replica
    /// before the plan can be installed.  Grammar form `crash:k12@10`.
    bool node_is_key = false;
    double factor = 1.0;  ///< slow only
    std::vector<std::vector<NodeId>> groups{};  ///< partition only
    /// Key-addressed partition members, parallel to `groups` when any are
    /// present (same group count): resolve_keys() folds each group's key
    /// primaries into the node group.  Grammar form `partition:0-2,k7|3@9`.
    std::vector<std::vector<KeyId>> group_keys{};

    friend bool operator==(const Event&, const Event&) = default;
  };

  /// Appends \p event (the plan's one way to add an event).  Throws
  /// std::logic_error unless `at` is finite and >= 0, a slow factor is
  /// finite and >= 1, and a partition has at least two non-empty groups
  /// with no node in two places.  Key-addressed forms set
  /// Event::node_is_key (docs/SHARDING.md): the event then targets whatever
  /// node is the key's primary replica at resolve_keys() time — "crash the
  /// server holding the hot key" instead of a hard-coded process id.
  FaultPlan& add(Event event);

  /// True if any event carries a key-addressed target (node or partition
  /// member); such a plan must go through resolve_keys() before install().
  bool has_key_targets() const;

  /// Returns a copy with every key target replaced by
  /// \p primary(key) — typically HashRing::primary, or `key % num_servers`
  /// for unsharded full-replication runs.  Key-addressed partition members
  /// are folded into their node groups (first occurrence wins on
  /// duplicates).  The result has no key targets.
  FaultPlan resolve_keys(
      // pqra-lint: allow(hotpath-function) — config-time rewrite, not events
      const std::function<NodeId(KeyId)>& primary) const;

  /// Crash + recover pair: node is down during [from, from + duration).
  FaultPlan& outage(NodeId node, sim::Time from, sim::Time duration);

  /// Message-level faults applied for the whole run (install time 0).
  FaultPlan& with_message_faults(const MessageFaults& faults);
  const MessageFaults& message_faults() const { return message_faults_; }

  /// Random churn over servers [0, n): each server suffers independent
  /// outages with exponential up-time (mean \p mean_uptime) and down-time
  /// (mean \p mean_downtime) until \p horizon.
  static FaultPlan random_churn(std::size_t num_servers, sim::Time horizon,
                                sim::Time mean_uptime, sim::Time mean_downtime,
                                util::Rng& rng);

  /// Parses the experiment_cli `--fault-plan` grammar: `;`-separated
  /// clauses, each either a timed event or a message-fault knob:
  ///
  ///   crash:N@T       recover:N@T      outage:N@T1-T2
  ///   slow:N*F@T      noslow:N@T
  ///   partition:0-3|4-9@T   (groups of `,`-lists and `a-b` ranges)
  ///   heal@T
  ///   tornwrite:N@T   fsyncloss:N@T    nofsyncloss:N@T
  ///   fsyncloss:N@T1-T2     (window sugar: fsyncloss@T1 + nofsyncloss@T2)
  ///   drop=P   dup=P   delay=D   reorder=P:MAXDELAY
  ///
  /// Node positions also accept a key-addressed form `k<KEY>` — e.g.
  /// `crash:k12@10`, `outage:k7@20-60`, `partition:0-2,k7|3@9` — meaning
  /// "the node owning key KEY" (resolved via resolve_keys; key ranges are
  /// not supported).
  ///
  /// Node and key ids are whole numbers that fit 32 bits (no sign,
  /// fraction, exponent or hex); an `a-b` range spans at most 2^16 ids.
  /// Times, delays and factors must be finite, times and delays >= 0,
  /// probabilities in [0, 1]; every event must also pass add()'s checks.
  ///
  /// e.g. "crash:2@10;recover:2@50;drop=0.02;reorder=0.1:3".
  /// Throws std::logic_error (`bad fault-plan clause '<clause>': ...`) on
  /// bad input.
  static FaultPlan parse(const std::string& spec);

  /// Canonical text form in the parse() grammar: one clause per event in
  /// stored order, then the message-fault knobs that are set.  Numbers use
  /// util::format_double (shortest round-trip), so
  /// serialize→parse→serialize is byte-identical — the contract the
  /// pqra_explore `--replay` files and tests/net/fault_plan_roundtrip_test
  /// depend on.  Note outage() pairs serialize as their underlying
  /// crash/recover clauses.
  std::string serialize() const;

  /// Rebuilds a plan from raw parts (shrinker use: event-subset candidates).
  static FaultPlan from_parts(std::vector<Event> events,
                              const MessageFaults& faults);

  /// One random schedule edit drawn entirely from \p rng: add a
  /// crash/recover/outage/slow-window/partition-window, remove an event,
  /// perturb an event's time, or jiggle a message-fault knob.  Event times
  /// stay within [0, horizon]; node ids within [0, num_servers).  This is
  /// the fuzzer's FaultPlan-churn mutation operator (docs/EXPLORATION.md).
  /// With \p num_keys > 0, node-targeted additions sometimes draw a
  /// key-addressed target (`k<KEY>`, KEY < num_keys) instead of a node;
  /// the default 0 never does, so pre-sharding call sites are unchanged.
  /// With \p durability true, one extra edit kind adds a torn-write event
  /// or an fsync-loss window; the default false keeps the legacy draw
  /// sequence byte-identical (tests/net/fault_plan_roundtrip_test.cpp).
  void mutate(std::size_t num_servers, sim::Time horizon, util::Rng& rng,
              std::size_t num_keys = 0, bool durability = false);

  /// Throws std::logic_error naming the first clause that still holds a
  /// key target (key addressing is a naming layer, resolved before
  /// install), names a node id >= \p num_nodes, or fails add()'s checks
  /// (resolve_keys can put one node in two partition groups).
  void check_targets(std::size_t num_nodes) const;

  /// Checks every target against \p injector (check_targets), applies the
  /// message faults immediately, then schedules one kFault simulator event
  /// per plan event, in plan order, that apply()s it.
  void install(sim::Simulator& simulator, FaultInjector& injector) const;

  /// Convenience: installs onto the transport's own injector.
  void install(sim::Simulator& simulator, SimTransport& transport) const;

  const std::vector<Event>& events() const { return events_; }
  bool empty() const { return events_.empty() && !message_faults_.any(); }

  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;

 private:
  std::vector<Event> events_;
  MessageFaults message_faults_;
};

/// Applies one plan event to \p injector: the single place a FaultKind
/// becomes an injector call, shared by install() and LiveFaultDriver.
void apply(const FaultPlan::Event& event, FaultInjector& injector);

/// Replays a FaultPlan against a live ThreadTransport: a driver thread
/// sleeps until each event's scaled wall-clock time and apply()s it under
/// the transport's lock (ThreadTransport::with_faults).  Plan times (and
/// message-fault delays) are multiplied by \p seconds_per_time_unit.  The
/// constructor checks the plan's targets against the transport
/// (FaultPlan::check_targets) and starts the driver; stop() (or
/// destruction) cancels any remaining events and joins.  The durability
/// verbs arm injector flags that only a MemDisk consumes, so on this
/// runtime they change nothing observable.
class LiveFaultDriver {
 public:
  LiveFaultDriver(const FaultPlan& plan, ThreadTransport& transport,
                  double seconds_per_time_unit);
  ~LiveFaultDriver();

  LiveFaultDriver(const LiveFaultDriver&) = delete;
  LiveFaultDriver& operator=(const LiveFaultDriver&) = delete;

  /// Cancels remaining events and joins the driver thread.  Idempotent.
  void stop();

 private:
  void run(FaultPlan plan, double scale);

  ThreadTransport& transport_;
  // pqra-lint: allow(hotpath-blocking) — LiveFaultDriver runs its own thread
  std::mutex mutex_;
  // pqra-lint: allow(hotpath-blocking) — threaded-runtime driver, not DES
  std::condition_variable cv_;
  bool stopped_ = false;
  std::thread thread_;
};

}  // namespace pqra::net
