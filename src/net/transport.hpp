#pragma once

/// \file transport.hpp
/// Transport abstraction shared by the simulated and threaded runtimes.
///
/// A Transport moves Messages between NodeIds and counts them; Receivers are
/// registered per node.  The counters are the measurement instrument for the
/// message-complexity experiments (§6.4), so they are part of the interface,
/// not an implementation detail.
///
/// Counting happens in two forms: the MessageStats snapshot (a run's message
/// totals, which run_alg1 and run_alg1_threads return as
/// Alg1Result::messages) and, when a transport is bound to an obs::Registry
/// via bind_metrics(), the unified metrics pipeline (messages/drops/bytes by
/// type) that the rest of the system exports through.

#include <array>
#include <cstdint>

#include "net/message.hpp"
#include "obs/metrics.hpp"

namespace pqra::net {

/// Receives messages addressed to one node.
class Receiver {
 public:
  virtual ~Receiver() = default;
  virtual void on_message(NodeId from, Message msg) = 0;
};

/// Snapshot of transport counters.
struct MessageStats {
  std::uint64_t total = 0;
  std::uint64_t dropped = 0;  ///< messages lost to crashed nodes / drop prob.
  std::array<std::uint64_t, kNumMsgTypes> by_type{};
};

/// Registry-backed transport instruments, shared by SimTransport and
/// ThreadTransport so both runtimes report under the same names (see
/// obs/names.hpp).  Instrument pointers are grabbed once at bind time; the
/// per-send path is branch + relaxed increments.
class TransportMetrics {
 public:
  explicit TransportMetrics(obs::Registry& registry);

  void on_send(const Message& msg) {
    messages_->inc();
    by_type_[static_cast<std::size_t>(msg.type)]->inc();
    payload_bytes_->inc(msg.value.size());
  }

  void on_drop() { dropped_->inc(); }

 private:
  obs::Counter* messages_;
  obs::Counter* dropped_;
  obs::Counter* payload_bytes_;
  std::array<obs::Counter*, kNumMsgTypes> by_type_;
};

/// One destination of a batched quorum fan-out (send_fanout): the shared
/// prototype message is delivered to \p to carrying the per-target span id
/// \p span (0 = untraced).  Everything else about the message is identical
/// across the fan-out, which is what makes batching it worthwhile.
struct FanoutEntry {
  NodeId to = 0;
  std::uint64_t span = 0;
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Delivers \p msg from \p from to \p to (asynchronously; implementations
  /// define the delay semantics).  Both nodes must be registered.
  virtual void send(NodeId from, NodeId to, Message msg) = 0;

  /// Sends one prototype message to \p count targets — the quorum fan-out
  /// primitive.  Counting, fault draws and delay draws happen per target in
  /// array order, exactly as \p count send() calls would, so switching a
  /// call site between the two forms never changes an execution.  The
  /// default implementation is that loop; SimTransport overrides it with a
  /// batched schedule (one arena block and ~1 queue op per fan-out — see
  /// docs/PERFORMANCE.md).
  virtual void send_fanout(NodeId from, const FanoutEntry* targets,
                           std::size_t count, Message proto);

  /// Registers the receiver for \p node.  One receiver per node.
  virtual void register_receiver(NodeId node, Receiver* receiver) = 0;

  virtual MessageStats stats() const = 0;
};

}  // namespace pqra::net
