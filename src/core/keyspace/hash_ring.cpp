#include "core/keyspace/hash_ring.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace pqra::core::keyspace {

namespace {

std::uint64_t vnode_position(NodeId node, std::size_t index) {
  // Node and vnode index packed into disjoint bit ranges, then mixed; the
  // low bit 1 keeps node positions off every key position (key_position
  // shifts keys left, so key hashes have a 0 low input bit).
  return mix64((static_cast<std::uint64_t>(node) << 24) |
               (static_cast<std::uint64_t>(index) << 1) | 1ULL);
}

}  // namespace

HashRing::HashRing(std::size_t vnodes_per_node) : vnodes_(vnodes_per_node) {
  PQRA_REQUIRE(vnodes_ >= 1, "a ring member needs at least one virtual node");
}

void HashRing::add_node(NodeId node) {
  PQRA_REQUIRE(!contains(node), "node is already a ring member");
  members_.insert(std::lower_bound(members_.begin(), members_.end(), node),
                  node);
  ring_.reserve(ring_.size() + vnodes_);
  for (std::size_t i = 0; i < vnodes_; ++i) {
    ring_.push_back(VNode{vnode_position(node, i), node});
  }
  std::sort(ring_.begin(), ring_.end(), [](const VNode& a, const VNode& b) {
    return a.pos != b.pos ? a.pos < b.pos : a.node < b.node;
  });
}

void HashRing::remove_node(NodeId node) {
  PQRA_REQUIRE(contains(node), "node is not a ring member");
  members_.erase(std::lower_bound(members_.begin(), members_.end(), node));
  ring_.erase(std::remove_if(ring_.begin(), ring_.end(),
                             [node](const VNode& v) { return v.node == node; }),
              ring_.end());
}

bool HashRing::contains(NodeId node) const {
  return std::binary_search(members_.begin(), members_.end(), node);
}

NodeId HashRing::primary(KeyId key) const {
  PQRA_REQUIRE(!members_.empty(), "ring has no members");
  const std::uint64_t pos = key_position(key);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), pos,
      [](const VNode& v, std::uint64_t p) { return v.pos < p; });
  if (it == ring_.end()) it = ring_.begin();  // wrap around the circle
  return it->node;
}

void HashRing::replica_group(KeyId key, std::size_t n,
                             std::vector<NodeId>& out) const {
  PQRA_REQUIRE(n >= 1 && n <= members_.size(),
               "replica group size must be in [1, num_nodes]");
  out.clear();
  const std::uint64_t pos = key_position(key);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), pos,
      [](const VNode& v, std::uint64_t p) { return v.pos < p; });
  // Walk clockwise collecting distinct owners; the group is tiny (n <= a
  // handful of replicas), so the linear dedup scan beats any set.
  for (std::size_t step = 0; step < ring_.size() && out.size() < n; ++step) {
    if (it == ring_.end()) it = ring_.begin();
    const NodeId node = it->node;
    bool seen = false;
    for (const NodeId m : out) seen = seen || (m == node);
    if (!seen) out.push_back(node);
    ++it;
  }
  PQRA_CHECK(out.size() == n, "ring walk must find n distinct members");
}

}  // namespace pqra::core::keyspace
