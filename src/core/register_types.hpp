#pragma once

/// \file register_types.hpp
/// Shared value/timestamp types of the register layer, plus the recovery
/// policy every register client (DES and threaded) applies under faults.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>

#include "net/message.hpp"
#include "sim/delay_model.hpp"
#include "util/rng.hpp"

namespace pqra::core {

using net::NodeId;
using net::OpId;
using net::RegisterId;
using net::Timestamp;
using net::Value;

/// A replica's view of one register: the value plus the timestamp its single
/// writer attached to it.  Timestamp 0 is the preloaded initial value.
struct TimestampedValue {
  Timestamp ts = 0;
  Value value;
};

/// How an operation completed (docs/FAULTS.md).
enum class OpStatus {
  kOk,        ///< full quorum of acks gathered
  kDegraded,  ///< deadline hit; accepted the partial access set collected
  kTimedOut,  ///< deadline hit with too few acks; operation failed
  kShutdown,  ///< the runtime shut down before the operation finished
};

/// Client recovery policy: per-attempt timeout, exponential backoff with
/// deterministic jitter, an absolute per-operation deadline, and optional
/// graceful degradation.  Times are in the runtime's unit: simulated time on
/// the DES, wall-clock seconds on threads (the blocking client's timer queue
/// runs on a seconds clock).
///
/// An attempt sends the RPC to a fresh random quorum; acks accumulate across
/// attempts under the same operation id, which is what lets probabilistic
/// quorums ride out churn (a few resampled quorums together cover k live
/// servers long before a strict majority is reachable).
struct RetryPolicy {
  /// Re-send to a fresh quorum when an attempt has not completed within this
  /// time.  nullopt disables retries (and the deadline machinery).
  std::optional<sim::Time> rpc_timeout;

  /// Each successive attempt waits rpc_timeout * backoff_factor^i, capped at
  /// max_backoff, +/- up to jitter (fraction) drawn from the client's
  /// dedicated retry RNG stream.
  double backoff_factor = 2.0;
  double max_backoff = 64.0;
  double jitter = 0.1;

  /// Absolute budget for the whole operation measured from its start.  When
  /// it expires the operation completes degraded (if allowed and enough acks
  /// arrived) or fails with OpStatus::kTimedOut.
  std::optional<sim::Time> deadline;

  /// Accept a partial access set of >= min_degraded_acks responses at the
  /// deadline instead of failing.  Degraded reads report the weakened
  /// epsilon-intersection staleness bound for their actual access-set size.
  bool degraded_ok = false;
  std::size_t min_degraded_acks = 1;

  /// Wait before retry number \p attempt + 1: rpc_timeout scaled by
  /// backoff_factor^attempt, capped at max_backoff, jittered from
  /// \p jitter_rng (the client's dedicated retry stream — never the quorum
  /// sampling stream, so fault-free replays stay byte-identical).
  /// Requires rpc_timeout to be set.
  sim::Time backoff(std::uint32_t attempt, util::Rng& jitter_rng) const {
    sim::Time wait = *rpc_timeout;
    if (backoff_factor != 1.0 && attempt > 0) {
      wait *= std::pow(backoff_factor, static_cast<double>(attempt));
    }
    wait = std::min(wait, max_backoff);
    if (jitter > 0.0) {
      wait *= 1.0 + jitter * (2.0 * jitter_rng.uniform01() - 1.0);
    }
    return wait;
  }

  /// Convenience: plain fixed-interval retry, the pre-policy behaviour.
  static RetryPolicy fixed(sim::Time timeout) {
    RetryPolicy p;
    p.rpc_timeout = timeout;
    p.backoff_factor = 1.0;
    p.max_backoff = timeout;
    p.jitter = 0.0;
    return p;
  }
};

}  // namespace pqra::core
