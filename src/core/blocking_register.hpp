#pragma once

/// \file blocking_register.hpp
/// Blocking client for the real-threads runtime.
///
/// Same protocol as QuorumRegisterClient, written in direct style: the
/// calling thread sends the quorum requests and blocks on its mailbox until
/// the quorum has answered.  Both clients keep an access's responders, best
/// answer, deadline settle rule and monotone cache rule in one
/// core::QuorumAccess (core/quorum_access.hpp); only the waiting differs.
/// One client object per thread (it owns the thread's NodeId mailbox);
/// monotone caching is per client, matching the per-process cache of §6.2.
///
/// Recovery (docs/FAULTS.md): the same core::RetryPolicy the DES client
/// uses, in wall-clock seconds.  When an attempt's timeout expires the
/// client re-sends to a fresh quorum while acks keep accumulating; when the
/// operation deadline expires it either completes degraded (on a partial
/// access set) or returns nullopt with last_status() == kTimedOut — this is
/// what keeps a read against a fully-crashed quorum from blocking forever.

#include <chrono>
#include <optional>
#include <vector>

#include "core/keyspace/flat_table.hpp"
#include "core/quorum_access.hpp"
#include "core/register_types.hpp"
#include "net/thread_transport.hpp"
#include "obs/metrics.hpp"
#include "quorum/quorum_system.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace pqra::core {

struct BlockingReadResult {
  Timestamp ts = 0;
  Value value;
  bool from_monotone_cache = false;
  OpStatus status = OpStatus::kOk;
  /// Distinct servers that answered.
  std::size_t acks = 0;
  /// Degraded reads only: C(n - k_w, acks) / C(n, acks), the probability the
  /// partial access set missed the latest write's quorum.
  double staleness_bound = 0.0;
};

class BlockingRegisterClient {
 public:
  /// \p metrics: optional thread-safe registry (non-owning); operation
  /// counts and wall-clock latency histograms (seconds) report under the
  /// same obs/names.hpp client names as the DES client.
  /// \p retry: recovery policy in wall-clock seconds.  The default policy
  /// (no rpc_timeout, no deadline) blocks until the quorum answers, the
  /// pre-policy behaviour.
  BlockingRegisterClient(net::ThreadTransport& transport, NodeId self,
                         const quorum::QuorumSystem& quorums,
                         NodeId server_base, const util::Rng& rng,
                         bool monotone = false,
                         obs::Registry* metrics = nullptr,
                         RetryPolicy retry = {});

  /// Blocks until a read quorum answers, the retry policy's deadline passes,
  /// or the transport closes.  nullopt on shutdown or timeout — consult
  /// last_status() to tell the two apart.  Degraded completions return a
  /// value with status == kDegraded.
  std::optional<BlockingReadResult> read(RegisterId reg);

  /// Blocks until a write quorum acks (same giving-up rules as read()).
  /// Returns the timestamp written, or nullopt on shutdown/timeout.  This
  /// client must be the register's only writer.
  std::optional<Timestamp> write(RegisterId reg, Value value);

  /// How the most recent operation on this client finished.
  OpStatus last_status() const { return last_status_; }

  NodeId id() const { return self_; }
  std::uint64_t monotone_cache_hits() const { return monotone_cache_hits_; }
  std::uint64_t retries() const { return retries_; }
  std::uint64_t op_failures() const { return op_failures_; }

  /// Wall-clock operation latency in seconds, accumulated lock-free (the
  /// client is single-threaded by construction); merge across clients with
  /// util::OnlineStats::merge after the worker threads join.
  const util::OnlineStats& read_latency() const { return read_latency_; }
  const util::OnlineStats& write_latency() const { return write_latency_; }

 private:
  using Clock = std::chrono::steady_clock;

  enum class Await { kDone, kTimeout, kShutdown };

  /// Feeds acks for \p op into \p access until it completes, the optional
  /// wall-clock deadline \p until passes, or shutdown.  Responders
  /// accumulate across calls (retry attempts share the op id).
  Await await_acks(OpId op, net::MsgType expected, QuorumAccess& access,
                   const std::optional<Clock::time_point>& until);

  /// Runs the attempt/backoff/deadline loop for one operation and returns
  /// how it ended; \p access holds its responders and best answer.
  OpStatus run_op(RegisterId reg, bool is_read, OpId op, Timestamp write_ts,
                  const Value& write_value, QuorumAccess& access);

  net::ThreadTransport& transport_;
  NodeId self_;
  const quorum::QuorumSystem& quorums_;
  NodeId server_base_;
  util::Rng rng_;
  util::Rng retry_rng_;  ///< jitter stream, separate from quorum sampling
  bool monotone_;
  RetryPolicy retry_;

  OpId next_op_ = 1;
  /// Writer timestamp and monotone cache per register (max_seen_ts unused:
  /// this client reports no staleness depth).
  keyspace::FlatTable<KeyState> keys_;
  std::uint64_t monotone_cache_hits_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t op_failures_ = 0;
  OpStatus last_status_ = OpStatus::kOk;
  util::OnlineStats read_latency_;
  util::OnlineStats write_latency_;

  struct Instruments {
    obs::Counter* reads = nullptr;
    obs::Counter* writes = nullptr;
    obs::Counter* cache_hits = nullptr;
    obs::Counter* retries = nullptr;
    obs::Counter* degraded_reads = nullptr;
    obs::Counter* degraded_writes = nullptr;
    obs::Counter* op_failures = nullptr;
    obs::Histogram* read_latency = nullptr;
    obs::Histogram* write_latency = nullptr;
  };
  Instruments instruments_;
};

}  // namespace pqra::core
