#pragma once

/// \file quorum_system.hpp
/// Quorum system abstraction.
///
/// A quorum system over n servers supplies, per operation, a subset of
/// servers to contact.  Strict systems guarantee pairwise intersection of
/// any read quorum with any write quorum; the probabilistic system of
/// Malkhi–Reiter–Wright only intersects with high probability.  Reads and
/// writes may use different sides of a system (see access_set's \p kind),
/// which is how read-one/write-all is expressed.

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace pqra::quorum {

using ServerId = std::uint32_t;

enum class AccessKind : std::uint8_t { kRead = 0, kWrite = 1 };

class QuorumSystem {
 public:
  virtual ~QuorumSystem() = default;

  /// Number of replica servers the system is defined over.
  virtual std::size_t num_servers() const = 0;

  /// Typical quorum size for \p kind (all systems here have fixed sizes).
  virtual std::size_t quorum_size(AccessKind kind) const = 0;

  /// Samples a quorum for one operation into \p out (cleared first).
  /// The sampling distribution is the system's access strategy; for the
  /// probabilistic system it is uniform over all k-subsets as §4 requires.
  virtual void pick(AccessKind kind, util::Rng& rng,
                    std::vector<ServerId>& out) const = 0;

  /// True when any read quorum is guaranteed to intersect any write quorum.
  virtual bool is_strict() const = 0;

  /// True when the read/write quorum families can be enumerated cheaply.
  virtual bool enumerable() const { return false; }

  /// Number of quorums of \p kind (enumerable systems only).
  virtual std::size_t num_quorums(AccessKind) const { return 0; }

  /// The \p idx-th quorum of \p kind (enumerable systems only).
  virtual void quorum(AccessKind, std::size_t /*idx*/,
                      std::vector<ServerId>& /*out*/) const {}

  /// Minimum number of server crashes that disables every quorum of \p kind
  /// (the availability measure of Peleg–Wool, reviewed in §4).
  virtual std::size_t min_kill(AccessKind kind) const = 0;

  virtual std::string name() const = 0;
};

}  // namespace pqra::quorum
