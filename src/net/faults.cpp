#include "net/faults.hpp"

#include "obs/names.hpp"
#include "util/check.hpp"

namespace pqra::net {

FaultInjector::FaultInjector(NodeId max_nodes)
    : crashed_(max_nodes, false),
      torn_armed_(max_nodes, false),
      fsync_loss_(max_nodes, false),
      slow_(max_nodes, 1.0),
      group_(max_nodes, kNoGroup) {}

void FaultInjector::crash(NodeId node) {
  PQRA_REQUIRE(node < crashed_.size(), "node id out of range");
  if (crashed_[node]) return;
  crashed_[node] = true;
  ++num_crashed_;
  count(&FaultCounters::crashes, &Instruments::crashes);
}

void FaultInjector::recover(NodeId node) {
  PQRA_REQUIRE(node < crashed_.size(), "node id out of range");
  if (!crashed_[node]) return;
  crashed_[node] = false;
  --num_crashed_;
  ++counters_.recoveries;
  if (instruments_.recoveries != nullptr) instruments_.recoveries->inc();
  if (lifecycle_ != nullptr) lifecycle_->on_recover(node);
}

void FaultInjector::arm_torn_write(NodeId node) {
  PQRA_REQUIRE(node < torn_armed_.size(), "node id out of range");
  torn_armed_[node] = true;
}

bool FaultInjector::consume_torn_write(NodeId node) {
  PQRA_REQUIRE(node < torn_armed_.size(), "node id out of range");
  if (!torn_armed_[node]) return false;
  torn_armed_[node] = false;
  count(&FaultCounters::torn_writes, &Instruments::torn_writes);
  return true;
}

void FaultInjector::set_fsync_loss(NodeId node, bool lost) {
  PQRA_REQUIRE(node < fsync_loss_.size(), "node id out of range");
  fsync_loss_[node] = lost;
}

bool FaultInjector::consume_fsync_loss(NodeId node) {
  PQRA_REQUIRE(node < fsync_loss_.size(), "node id out of range");
  if (!fsync_loss_[node]) return false;
  count(&FaultCounters::fsync_losses, &Instruments::fsync_losses);
  return true;
}

bool FaultInjector::is_crashed(NodeId node) const {
  PQRA_REQUIRE(node < crashed_.size(), "node id out of range");
  return crashed_[node];
}

void FaultInjector::set_slow(NodeId node, double factor) {
  PQRA_REQUIRE(node < slow_.size(), "node id out of range");
  PQRA_REQUIRE(factor >= 1.0, "slow factor must be >= 1");
  slow_[node] = factor;
}

void FaultInjector::clear_slow(NodeId node) {
  PQRA_REQUIRE(node < slow_.size(), "node id out of range");
  slow_[node] = 1.0;
}

double FaultInjector::slow_factor(NodeId node) const {
  PQRA_REQUIRE(node < slow_.size(), "node id out of range");
  return slow_[node];
}

void FaultInjector::partition(
    const std::vector<std::vector<NodeId>>& groups) {
  std::fill(group_.begin(), group_.end(), kNoGroup);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (NodeId node : groups[g]) {
      PQRA_REQUIRE(node < group_.size(), "node id out of range");
      PQRA_REQUIRE(group_[node] == kNoGroup, "node in two partition groups");
      group_[node] = static_cast<std::uint32_t>(g);
    }
  }
  partitioned_ = true;
}

void FaultInjector::heal() {
  std::fill(group_.begin(), group_.end(), kNoGroup);
  partitioned_ = false;
}

bool FaultInjector::partitioned(NodeId a, NodeId b) const {
  PQRA_REQUIRE(a < group_.size() && b < group_.size(),
               "node id out of range");
  if (!partitioned_) return false;
  return group_[a] != kNoGroup && group_[b] != kNoGroup &&
         group_[a] != group_[b];
}

void FaultInjector::count(std::uint64_t FaultCounters::*slot,
                          obs::Counter* Instruments::*instrument) {
  ++(counters_.*slot);
  if (instruments_.injected == nullptr) return;
  (instruments_.*instrument)->inc();
  instruments_.injected->inc();
}

FaultDecision FaultInjector::on_send(NodeId from, NodeId to, util::Rng& rng) {
  FaultDecision d;
  if (crashed_[from] || crashed_[to]) {
    d.drop = true;
    count(&FaultCounters::crash_drops, &Instruments::msg_dropped);
    return d;
  }
  if (partitioned_ && partitioned(from, to)) {
    d.drop = true;
    count(&FaultCounters::partition_drops, &Instruments::msg_dropped);
    return d;
  }
  if (message_.drop_probability > 0.0 &&
      rng.bernoulli(message_.drop_probability)) {
    d.drop = true;
    count(&FaultCounters::random_drops, &Instruments::msg_dropped);
    return d;
  }
  if (message_.duplicate_probability > 0.0 &&
      rng.bernoulli(message_.duplicate_probability)) {
    d.duplicate = true;
    count(&FaultCounters::duplicates, &Instruments::msg_duplicated);
  }
  d.delay_factor = slow_[from] * slow_[to];
  d.extra_delay = message_.extra_delay * d.delay_factor;
  if (message_.reorder_probability > 0.0 &&
      rng.bernoulli(message_.reorder_probability)) {
    d.extra_delay += rng.uniform01() * message_.reorder_delay_max;
  }
  if (d.extra_delay > 0.0 || d.delay_factor != 1.0) {
    count(&FaultCounters::delayed, &Instruments::msg_delayed);
  }
  return d;
}

void FaultInjector::bind_metrics(obs::Registry& registry) {
  namespace n = obs::names;
  instruments_.injected = &registry.counter(
      n::kFaultsInjected, "Total injected faults, all kinds");
  instruments_.crashes =
      &registry.counter(n::kFaultsCrashes, "Node crash events injected");
  instruments_.recoveries =
      &registry.counter(n::kFaultsRecoveries, "Node recovery events");
  instruments_.msg_dropped = &registry.counter(
      n::kFaultsMsgDropped,
      "Messages lost to crashes, partitions or drop probability");
  instruments_.msg_duplicated = &registry.counter(
      n::kFaultsMsgDuplicated, "Messages delivered twice by injection");
  instruments_.msg_delayed = &registry.counter(
      n::kFaultsMsgDelayed, "Messages given extra delay (slow nodes/reorder)");
  instruments_.torn_writes = &registry.counter(
      n::kFaultsTornWrites, "WAL syncs torn mid-record by injection");
  instruments_.fsync_losses = &registry.counter(
      n::kFaultsFsyncLoss, "WAL syncs silently lost by injection");
}

}  // namespace pqra::net
