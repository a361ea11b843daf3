#pragma once

/// \file blocking_register.hpp
/// Blocking client for the real-threads runtime.
///
/// A driver over the register client the DES runs, not a second protocol:
/// each read() or write() issues the operation on a QuorumRegisterClient and
/// then pumps the calling thread's mailbox into it until the operation's
/// completion callback fires.  Quorum sampling, ack filtering, retries,
/// deadlines, the monotone cache and every client instrument are that
/// client's code; only the waiting differs.  Its Simulator is a private
/// timer queue whose clock is wall-clock seconds since construction: the
/// pump advances it to the present before every issue and every delivery,
/// and sleeps on the mailbox no longer than the next timer, so retry and
/// deadline timers fire on time and latencies are real.
/// One client object per thread (it owns the thread's NodeId mailbox);
/// monotone caching is per client, matching the per-process cache of §6.2.
///
/// Recovery (docs/FAULTS.md): the client's core::RetryPolicy, in wall-clock
/// seconds.  A deadline that expires either completes the operation degraded
/// (on a partial access set) or returns nullopt with last_status() ==
/// kTimedOut — this is what keeps a read against a fully-crashed quorum
/// from blocking forever.

#include <chrono>
#include <cstdint>
#include <optional>

#include "core/quorum_register_client.hpp"
#include "core/register_types.hpp"
#include "net/thread_transport.hpp"
#include "obs/metrics.hpp"
#include "quorum/quorum_system.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace pqra::core {

class BlockingRegisterClient {
 public:
  /// Servers occupy NodeIds [0, n) in the order of the quorum system's
  /// ServerIds.
  /// \p metrics: optional thread-safe registry (non-owning) for the register
  /// client's instruments; latencies are in wall-clock seconds.
  /// \p retry: recovery policy in wall-clock seconds.  The default policy
  /// (no rpc_timeout, no deadline) blocks until the quorum answers.
  BlockingRegisterClient(net::ThreadTransport& transport, NodeId self,
                         const quorum::QuorumSystem& quorums,
                         const util::Rng& rng, bool monotone = false,
                         obs::Registry* metrics = nullptr,
                         RetryPolicy retry = {});

  /// Pinned: the client's completion callbacks hold `this`.
  BlockingRegisterClient(const BlockingRegisterClient&) = delete;
  BlockingRegisterClient& operator=(const BlockingRegisterClient&) = delete;

  /// Blocks until a read quorum answers, the retry policy's deadline passes,
  /// or the transport closes.  nullopt on shutdown or timeout — consult
  /// last_status() to tell the two apart.  Degraded completions return a
  /// value with status == kDegraded.
  std::optional<ReadResult> read(RegisterId reg);

  /// Blocks until a write quorum acks (same giving-up rules as read()).
  /// Returns the timestamp written, or nullopt on shutdown/timeout.  This
  /// client must be the register's only writer.
  std::optional<Timestamp> write(RegisterId reg, Value value);

  /// How the most recent operation on this client finished.
  OpStatus last_status() const { return last_status_; }

  NodeId id() const { return client_.id(); }
  const ClientCounters& counters() const { return client_.counters(); }

  /// Wall-clock operation latency in seconds, accumulated lock-free (the
  /// client is single-threaded by construction); merge across clients with
  /// util::OnlineStats::merge after the worker threads join.
  const util::OnlineStats& read_latency() const {
    return client_.read_latency();
  }
  const util::OnlineStats& write_latency() const {
    return client_.write_latency();
  }

 private:
  using Clock = std::chrono::steady_clock;

  /// Makes a new operation current (callbacks of older ones are ignored
  /// from here on) and fires the timers that are due; returns its ticket.
  std::uint64_t begin_op();

  /// Pumps the mailbox into client_ until the current operation's callback
  /// has fired or the transport closes, and records how it ended in
  /// last_status_.  True when the operation produced a result (kOk or
  /// kDegraded).
  bool finish_op();

  /// Wall-clock seconds since construction: the timer queue's clock.
  sim::Time elapsed() const;

  net::ThreadTransport& transport_;
  Clock::time_point epoch_;
  sim::Simulator timers_;
  QuorumRegisterClient client_;

  /// Ticket of the operation in flight.  A completion callback whose ticket
  /// is older does nothing: an operation abandoned at shutdown can still
  /// complete during a later call's wait, since a send may pass the
  /// transport's closed check just before close() and enqueue its ack
  /// afterwards.
  std::uint64_t current_ = 0;
  /// Written only by the current operation's completion callback.
  std::optional<OpStatus> outcome_;
  ReadResult read_;
  Timestamp written_ = 0;
  OpStatus last_status_ = OpStatus::kOk;
};

}  // namespace pqra::core
