#pragma once

/// \file faults.hpp
/// Unified fault-injection subsystem shared by both runtimes.
///
/// A FaultInjector holds the live fault state of one network — crashed
/// nodes, slow nodes, a partition, and message-level fault probabilities —
/// and renders a per-send FaultDecision from it.  The transports own one
/// injector each and consult it on every send:
///
///   - SimTransport asks the injector inside the DES event loop, drawing
///     from the transport's seeded RNG, so an installed FaultPlan yields a
///     bit-reproducible fault schedule (the deterministic-replay tests rely
///     on this).
///   - ThreadTransport asks it under the transport mutex with live threads
///     on both ends; a LiveFaultDriver replays a FaultPlan against it in
///     wall-clock time.
///
/// The injector never delivers or delays anything itself — it only decides.
/// Each transport applies the decision with its own delivery machinery, so
/// the fault model stays identical across runtimes (docs/FAULTS.md).
///
/// RNG discipline: on_send draws from the caller's RNG only for fault types
/// that are actually enabled, so configuring no faults leaves the caller's
/// random stream exactly as it was — existing seeded experiments reproduce
/// unchanged.

#include <cstdint>
#include <optional>
#include <vector>

#include "net/message.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace pqra::net {

/// Message-level fault configuration.  All probabilities independent per
/// message; delays in the transport's time unit (sim-time units for the DES,
/// seconds for the threaded runtime).
struct MessageFaults {
  /// Independently lose each message.
  double drop_probability = 0.0;
  /// Independently deliver a second copy of each message (with its own
  /// independently sampled delay, so the copies may arrive in either order).
  double duplicate_probability = 0.0;
  /// Fixed extra delay added to every message (scaled by slow-node factors).
  double extra_delay = 0.0;
  /// With this probability, add a further uniform delay in
  /// [0, reorder_delay_max) — enough to reorder messages behind later sends.
  double reorder_probability = 0.0;
  double reorder_delay_max = 0.0;

  /// True when any knob is set (fast-path guard).
  bool any() const {
    return drop_probability > 0.0 || duplicate_probability > 0.0 ||
           extra_delay > 0.0 || reorder_probability > 0.0;
  }

  friend bool operator==(const MessageFaults&, const MessageFaults&) = default;
};

/// What the injector decided for one message.
struct FaultDecision {
  bool drop = false;       ///< lose the message (crash, partition or chance)
  bool duplicate = false;  ///< deliver a second, independently delayed copy
  double extra_delay = 0.0;   ///< add to the model delay
  double delay_factor = 1.0;  ///< multiply the model delay (slow nodes)
};

/// Running totals of injected faults (plain struct: cheap to read in tests;
/// the obs::Registry pipeline is bound separately via bind_metrics).
struct FaultCounters {
  std::uint64_t crashes = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t crash_drops = 0;      ///< messages lost to crashed endpoints
  std::uint64_t partition_drops = 0;  ///< messages lost across the partition
  std::uint64_t random_drops = 0;     ///< messages lost to drop_probability
  std::uint64_t duplicates = 0;
  std::uint64_t delayed = 0;  ///< messages given extra delay (slow/reorder)
  std::uint64_t torn_writes = 0;   ///< WAL syncs torn mid-record (storage)
  std::uint64_t fsync_losses = 0;  ///< WAL syncs silently lost (storage)

  std::uint64_t injected() const {
    return crash_drops + partition_drops + random_drops + duplicates +
           delayed + torn_writes + fsync_losses;
  }
};

/// Observer of node lifecycle transitions.  The explore runner's durability
/// oracle hangs off recover(): when a crashed node comes back, the oracle
/// drops its volatile storage, replays the durable prefix, and cross-checks
/// the result (docs/DURABILITY.md).  Fired only on real transitions (the
/// idempotent no-op paths of crash()/recover() never notify).
class NodeLifecycleListener {
 public:
  virtual void on_recover(NodeId node) = 0;

 protected:
  ~NodeLifecycleListener() = default;
};

/// Fault state of one network.  Not internally synchronized: SimTransport
/// uses it from the single DES thread, ThreadTransport guards it with its
/// own mutex (see faults() accessors on the transports).
class FaultInjector {
 public:
  explicit FaultInjector(NodeId max_nodes);

  /// Node ids run over [0, num_nodes()).
  std::size_t num_nodes() const { return crashed_.size(); }

  // -- node-level faults ----------------------------------------------------

  /// Crashed nodes silently lose all traffic to and from them.  Idempotent.
  void crash(NodeId node);
  void recover(NodeId node);
  bool is_crashed(NodeId node) const;
  std::size_t num_crashed() const { return num_crashed_; }

  /// Notified after each real crashed->up transition in recover().
  /// One listener; nullptr clears.
  void set_lifecycle_listener(NodeLifecycleListener* listener) {
    lifecycle_ = listener;
  }

  // -- storage-level faults (docs/DURABILITY.md) ----------------------------

  /// Arms a one-shot torn write: the next WAL sync on \p node persists only
  /// a random prefix of its final record (MemDisk consumes the arm).
  void arm_torn_write(NodeId node);
  /// True exactly once per arm_torn_write (consumes the arm and counts it).
  bool consume_torn_write(NodeId node);

  /// Opens/closes an fsync-loss window: while set, every WAL sync on
  /// \p node is silently lost (reported durable, bytes never persisted).
  void set_fsync_loss(NodeId node, bool lost);
  /// True while the window is open; counts each lost sync.
  bool consume_fsync_loss(NodeId node);

  /// Slow node: messages to or from it have their delay multiplied by
  /// \p factor (>= 1; factors of both endpoints compound).
  void set_slow(NodeId node, double factor);
  void clear_slow(NodeId node);
  double slow_factor(NodeId node) const;

  /// Network partition: nodes in different groups cannot exchange messages.
  /// Nodes in no group (e.g. clients) keep talking to everyone — partitioning
  /// the servers does not sever the clients.  Replaces any prior partition.
  void partition(const std::vector<std::vector<NodeId>>& groups);
  void heal();
  bool partitioned(NodeId a, NodeId b) const;

  // -- message-level faults -------------------------------------------------

  void set_message_faults(const MessageFaults& faults) { message_ = faults; }

  /// Renders the decision for one message.  Draws from \p rng only for fault
  /// types that are enabled (see file comment).
  FaultDecision on_send(NodeId from, NodeId to, util::Rng& rng);

  const FaultCounters& counters() const { return counters_; }

  /// Reports every injected fault into \p registry under the
  /// obs/names.hpp `pqra_faults_*` instruments.
  void bind_metrics(obs::Registry& registry);

 private:
  struct Instruments {
    obs::Counter* injected = nullptr;
    obs::Counter* crashes = nullptr;
    obs::Counter* recoveries = nullptr;
    obs::Counter* msg_dropped = nullptr;
    obs::Counter* msg_duplicated = nullptr;
    obs::Counter* msg_delayed = nullptr;
    obs::Counter* torn_writes = nullptr;
    obs::Counter* fsync_losses = nullptr;
  };

  /// Counts one injected fault in \p slot and, once bind_metrics ran, in
  /// \p instrument and the all-kinds total.
  void count(std::uint64_t FaultCounters::*slot,
             obs::Counter* Instruments::*instrument);

  std::vector<bool> crashed_;
  std::vector<bool> torn_armed_;
  std::vector<bool> fsync_loss_;
  std::vector<double> slow_;
  /// Partition group per node; kNoGroup = unrestricted.
  std::vector<std::uint32_t> group_;
  bool partitioned_ = false;
  MessageFaults message_;
  FaultCounters counters_;
  std::size_t num_crashed_ = 0;
  NodeLifecycleListener* lifecycle_ = nullptr;
  Instruments instruments_;

  static constexpr std::uint32_t kNoGroup = 0xFFFFFFFFu;
};

}  // namespace pqra::net
