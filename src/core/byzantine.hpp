#pragma once

/// \file byzantine.hpp
/// Byzantine fault injection: replica servers that lie.
///
/// The paper (§4) simplifies Malkhi–Reiter's register "to assume only one
/// writer and absence of failures".  This module restores the fault model
/// that motivated probabilistic quorums in the first place: up to b replica
/// servers may lie arbitrarily.  The client side is the masking rule of
/// Malkhi–Reiter–Wright, QuorumRegisterClient with ClientOptions::
/// fault_bound = b: a read accepts the highest-timestamped (ts, value) pair
/// *vouched for by at least b+1 distinct servers* — b colluding liars cannot
/// fabricate such a pair, and when the read quorum overlaps the write
/// quorum in >= 2b+1 servers (probability 1 - masking_error_probability(n,
/// k, b)), at least b+1 correct servers vouch for the latest genuine write.

#include "core/replica.hpp"
#include "core/register_types.hpp"
#include "net/transport.hpp"

namespace pqra::core {

/// How a Byzantine server lies.
enum class ByzantineMode : std::uint8_t {
  /// Fabricates a value with an enormous timestamp (the most dangerous lie:
  /// an unprotected client would always prefer it).  All fabricators in a
  /// run collude on the same (ts, value).
  kFabricateHighTs = 0,
  /// Always answers with the initial state (ts 0, empty) — a freshness
  /// attack, never a safety one.
  kStaleLie = 1,
  /// Returns the genuine timestamp but corrupted value bytes.
  kCorruptValue = 2,
};

/// A replica server that lies on reads (writes are acked but may be
/// dropped).  Byzantine behaviour only manifests in responses — the shared
/// Replica state machine is reused for the underlying (ignored) state.
class ByzantineServerProcess final : public net::Receiver {
 public:
  ByzantineServerProcess(net::Transport& transport, NodeId self,
                         ByzantineMode mode);

  void on_message(NodeId from, net::Message msg) override;

  NodeId id() const { return self_; }

 private:
  net::Transport& transport_;
  NodeId self_;
  ByzantineMode mode_;
  Replica replica_;
};

/// The (ts, value) all kFabricateHighTs servers collude on.
net::Message fabricated_read_ack(RegisterId reg, OpId op);

}  // namespace pqra::core
