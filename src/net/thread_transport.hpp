#pragma once

/// \file thread_transport.hpp
/// Mailbox transport for the real-threads runtime.
///
/// Each node owns a mutex+condvar mailbox; send() enqueues, recv() blocks.
/// Unlike SimTransport there is no Receiver callback — threaded nodes pull
/// from their mailbox, which matches how the blocking register client and
/// threaded servers are written.  close() releases all blocked receivers so
/// the runtime can shut down cleanly.
///
/// Fault injection: the transport owns a FaultInjector (net/faults.hpp)
/// consulted on every send under the transport mutex.  Dropped messages
/// vanish; delayed messages are enqueued with a wall-clock ready time and
/// withheld from recv() until it passes.  All fault state is mutated through
/// with_faults(), which holds the transport lock — typically by a
/// LiveFaultDriver replaying a FaultPlan — so it is safe against concurrent
/// senders.

#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

#include "net/faults.hpp"
#include "net/message.hpp"
#include "net/transport.hpp"
#include "util/rng.hpp"

namespace pqra::net {

/// A received message together with its sender.
struct Envelope {
  NodeId from = 0;
  Message msg;
};

class ThreadTransport {
 public:
  explicit ThreadTransport(NodeId max_nodes, std::uint64_t fault_seed = 1);

  /// Enqueues \p msg into \p to's mailbox.  Thread-safe.  Messages sent
  /// after close() are dropped, as are messages the fault injector drops.
  void send(NodeId from, NodeId to, Message msg);

  /// Blocks until a message for \p node arrives or the transport is closed.
  /// Returns nullopt on close with an empty mailbox.
  std::optional<Envelope> recv(NodeId node);

  /// Like recv() but gives up at \p deadline; nullopt on timeout or close.
  std::optional<Envelope> recv_until(
      NodeId node, std::chrono::steady_clock::time_point deadline);

  /// Non-blocking variant; nullopt when the mailbox is empty.
  std::optional<Envelope> try_recv(NodeId node);

  /// Wakes all blocked receivers; subsequent recv() drains remaining
  /// messages (ignoring injected delays) and then returns nullopt.
  void close();

  bool closed() const;

  MessageStats stats() const;

  // -- fault injection ------------------------------------------------------

  /// Runs \p fn on the owned FaultInjector under the transport lock and
  /// returns its result by value: the one way to read or change fault state
  /// on this runtime (LiveFaultDriver applies plan events through it; e.g.
  /// `with_faults([](FaultInjector& f) { return f.counters(); })`).
  /// Message-fault delays are in seconds here; with no base delay model,
  /// slow factors only take effect by scaling MessageFaults::extra_delay.
  template <typename Fn>
  auto with_faults(Fn&& fn) {
    std::lock_guard lock(stats_mutex_);
    return std::forward<Fn>(fn)(faults_);
  }

  /// Routes message/drop/byte counts into \p registry in addition to the
  /// legacy MessageStats snapshot, and the injector's `pqra_faults_*`
  /// counts too.  The registry must be thread-safe
  /// (Concurrency::kThreadSafe): increments happen on every sender thread.
  /// Bind before the first send.
  void bind_metrics(obs::Registry& registry);

 private:
  /// Mailbox entry: deliverable once `ready` has passed (injected delay).
  struct Timed {
    Envelope env;
    std::chrono::steady_clock::time_point ready;
  };

  struct Mailbox {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Timed> queue;
  };

  void enqueue(NodeId to, Timed entry);

  std::vector<std::unique_ptr<Mailbox>> mailboxes_;

  mutable std::mutex stats_mutex_;
  MessageStats stats_;
  std::optional<TransportMetrics> metrics_;
  FaultInjector faults_;
  util::Rng fault_rng_;
  bool closed_ = false;
};

}  // namespace pqra::net
