#pragma once

/// \file hash_ring.hpp
/// Consistent-hash ring with virtual nodes: KeyId -> n-replica group.
///
/// The sharded store (docs/SHARDING.md) runs the paper's probabilistic
/// quorum protocol *per key* over a small replica group instead of the
/// whole cluster.  The ring decides, deterministically and identically on
/// every process, which group that is: each server owns `vnodes_per_node`
/// positions on a 64-bit circle, a key hashes to a position, and its group
/// is the first n distinct servers clockwise from there.
///
/// Determinism is load-bearing: clients, servers, the fuzzer and the spec
/// checkers all derive the same group from (members, vnodes, key), so the
/// positions come from a fixed splitmix64-style mixer — never std::hash,
/// whose value is implementation-defined and may differ across libstdc++
/// versions (the determinism contract of docs/STATIC_ANALYSIS.md).
///
/// Membership edits (add_node/remove_node) re-sort the position table and
/// are control-plane operations; lookups are what runs in the DES hot path
/// and they neither allocate (replica_group fills caller scratch) nor
/// block.

#include <cstdint>
#include <vector>

#include "net/message.hpp"

namespace pqra::core::keyspace {

using net::KeyId;
using net::NodeId;

/// splitmix64 finalizer: a fixed, avalanche-quality 64-bit mixer.  Shared
/// by ring positions and the flat store's probe hash so every process
/// agrees on both byte-for-byte.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

class HashRing {
 public:
  /// \p vnodes_per_node: ring positions per member.  More virtual nodes
  /// flatten the load imbalance (stddev ~ 1/sqrt(vnodes)) at the price of a
  /// longer table; tests/core/keyspace_test.cpp pins the balance bound.
  explicit HashRing(std::size_t vnodes_per_node = 16);

  /// Inserts \p node's virtual nodes.  Idempotent calls are a bug
  /// (PQRA_REQUIRE): membership is a set.
  void add_node(NodeId node);
  void remove_node(NodeId node);
  bool contains(NodeId node) const;

  std::size_t num_nodes() const { return members_.size(); }

  /// The key's first owner clockwise of its hash position.
  NodeId primary(KeyId key) const;

  /// Fills \p out with the first \p n distinct owners clockwise of the
  /// key's position — the key's replica group, in ring order.  Requires
  /// 1 <= n <= num_nodes().  Allocation-free once \p out has capacity n
  /// (hot-path contract; see file comment).
  void replica_group(KeyId key, std::size_t n, std::vector<NodeId>& out) const;

  /// Position of \p key on the circle (exposed for the movement tests).
  static std::uint64_t key_position(KeyId key) {
    // Salted so a key and a same-valued (node, vnode) pair never collide by
    // construction.
    return mix64(0x6b65795fULL ^ (static_cast<std::uint64_t>(key) << 1));
  }

 private:
  struct VNode {
    std::uint64_t pos = 0;
    NodeId node = 0;
  };

  std::size_t vnodes_;
  std::vector<VNode> ring_;       ///< sorted by (pos, node)
  std::vector<NodeId> members_;   ///< sorted
};

}  // namespace pqra::core::keyspace
