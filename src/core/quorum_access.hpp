#pragma once

/// \file quorum_access.hpp
/// Bookkeeping of one quorum access of the register client.
///
/// Every register operation is one or two phases of "send to a sampled
/// quorum, collect acks from distinct servers, keep the best answer".
/// QuorumRegisterClient runs those phases on both runtimes (the threaded
/// BlockingRegisterClient drives the same client from its mailbox); what it
/// counts and decides per access lives here.  QuorumAccess is sans-I/O — a
/// plain struct with no virtuals, callbacks, clock or transport: the client
/// feeds it acks and asks it questions, and keeps sending, retry timing and
/// deadlines to itself.  KeyState is what the client remembers per register
/// between accesses.

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "core/register_types.hpp"

namespace pqra::core {

/// A client's per-register local variables (§4, §6.2), one record per
/// register it has issued an operation on, kept in a keyspace::FlatTable.
struct KeyState {
  /// Last timestamp this client wrote (0 if none).
  Timestamp write_ts = 0;
  /// Newest timestamp this client has read or written, so the staleness
  /// depth of a read is measurable with or without the monotone cache.
  Timestamp max_seen_ts = 0;
  /// The §6.2 monotone cache entry (serve_monotone below).
  TimestampedValue cached;
};

struct QuorumAccess {
  /// Distinct acks that complete the current phase (its quorum size).
  std::size_t needed = 0;
  /// b of the b-masking read rule; 0 keeps the plain running maximum.
  std::size_t fault_bound = 0;
  /// Distinct servers that answered the current phase.
  std::vector<NodeId> responders;
  /// The read phase's answer: the running maximum while b = 0, the
  /// b+1-vouched pair once select_answer() ran otherwise.
  Timestamp best_ts = 0;
  Value best_value;
  /// b > 0 only: every read answer, since vouching needs them all.
  std::vector<TimestampedValue> answers;
  /// b > 0 only: whether select_answer() found a pair with b+1 vouchers.
  bool vouched = true;

  /// Back to a fresh operation, keeping every container's capacity.
  void reset() {
    needed = 0;
    fault_bound = 0;
    responders.clear();
    best_ts = 0;
    best_value = Value();
    answers.clear();
    vouched = true;
  }

  /// Starts a phase that completes on \p quorum acks.  The best answer so
  /// far survives: the write-back phase installs it.
  void begin_phase(std::size_t quorum) {
    needed = quorum;
    responders.clear();
  }

  /// Records \p from as a responder of this phase; false when it already
  /// answered (a retry may reach the same server twice).
  bool add_responder(NodeId from) {
    if (std::find(responders.begin(), responders.end(), from) !=
        responders.end()) {
      return false;
    }
    responders.push_back(from);
    return true;
  }

  /// Folds one read answer in; among equal timestamps the later one wins.
  void add_answer(Timestamp ts, Value&& value) {
    if (fault_bound > 0) {
      answers.push_back(TimestampedValue{ts, std::move(value)});
    } else if (ts >= best_ts) {
      best_ts = ts;
      best_value = std::move(value);
    }
  }

  bool complete() const { return responders.size() >= needed; }

  /// Fixes the read phase's answer once its acks are in.  With b = 0 the
  /// running maximum already is the answer.  With b > 0 it is the b-masking
  /// rule (Malkhi–Reiter–Wright): the largest-timestamped (ts, value) that
  /// at least b+1 responders returned, which b colluding liars cannot
  /// fabricate; without one the answer is the initial (0, empty) and
  /// vouched is false.
  void select_answer() {
    if (fault_bound == 0) return;
    vouched = false;
    best_ts = 0;
    best_value = Value();
    for (const TimestampedValue& candidate : answers) {
      if (vouched && candidate.ts <= best_ts) continue;
      const auto vouchers = static_cast<std::size_t>(std::count_if(
          answers.begin(), answers.end(), [&](const TimestampedValue& other) {
            return other.ts == candidate.ts && other.value == candidate.value;
          }));
      if (vouchers > fault_bound) {
        vouched = true;
        best_ts = candidate.ts;
        best_value = candidate.value;
      }
    }
  }

  /// How an access that ran out of time settles: degraded when the policy
  /// allows it and at least max(min_degraded_acks, 1) servers answered,
  /// timed out otherwise.
  OpStatus settle(const RetryPolicy& policy) const {
    const bool enough = responders.size() >=
                        std::max<std::size_t>(policy.min_degraded_acks, 1);
    return policy.degraded_ok && enough ? OpStatus::kDegraded
                                        : OpStatus::kTimedOut;
  }

  /// The §6.2 monotone-cache rule: when \p cached is newer than the quorum's
  /// answer (\p ts, \p value), the answer becomes the cached pair and the
  /// call returns true; otherwise the answer refreshes the cache.
  static bool serve_monotone(TimestampedValue& cached, Timestamp& ts,
                             Value& value) {
    if (cached.ts > ts) {
      ts = cached.ts;
      value = cached.value;
      return true;
    }
    cached.ts = ts;
    cached.value = value;
    return false;
  }
};

}  // namespace pqra::core
