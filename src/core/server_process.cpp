#include "core/server_process.hpp"

#include <utility>

#include "obs/names.hpp"
#include "util/check.hpp"

namespace pqra::core {

ServerProcess::ServerMetrics::ServerMetrics(obs::Registry& registry)
    : requests(&registry.counter(obs::names::kServerRequests,
                                 "Protocol requests served by replicas")),
      ts_advances(&registry.counter(
          obs::names::kServerTsAdvances,
          "Writes that advanced a replica register timestamp")),
      gossip_merges(&registry.counter(
          obs::names::kServerGossipMerges,
          "Registers advanced by anti-entropy gossip merges")),
      keys_created(&registry.counter(
          obs::names::kServerKeysCreated,
          "Keys first materialized in a replica store (write or gossip)")) {}

ServerProcess::ServerProcess(net::Transport& transport, NodeId self,
                             obs::Registry* metrics)
    : transport_(transport), self_(self), rng_(0) {
  transport_.register_receiver(self_, this);
  if (metrics != nullptr) metrics_.emplace(*metrics);
}

ServerProcess::ServerProcess(net::Transport& transport, NodeId self,
                             sim::Simulator& simulator,
                             const GossipOptions& gossip, const util::Rng& rng,
                             obs::Registry* metrics)
    : transport_(transport),
      self_(self),
      simulator_(&simulator),
      gossip_(gossip),
      rng_(rng.fork(0x676f73736970ULL ^ self)) {
  transport_.register_receiver(self_, this);
  if (metrics != nullptr) metrics_.emplace(*metrics);
  if (gossip_.interval > 0.0) {
    PQRA_REQUIRE(gossip_.group_size >= 2,
                 "gossip needs at least two servers in the group");
    PQRA_REQUIRE(self_ < gossip_.group_size,
                 "gossiping server must belong to its own group");
    // Jittered first tick so the group does not fire in phase.
    schedule_gossip(rng_.uniform01() * gossip_.interval);
  }
}

void ServerProcess::record_handle_span(const net::Message& request,
                                       Timestamp reply_ts) {
  if (spans_ == nullptr || request.span == 0) return;
  // Zero duration by construction: the paper's model folds service time
  // into the link delays, so handling is instantaneous in simulated time.
  sim::Time now = span_sim_->now();
  obs::SpanId id = spans_->begin(obs::SpanKind::kServerHandle, request.span,
                                 self_, now);
  obs::SpanRecord& rec = spans_->at(id);
  rec.reg = request.reg;
  rec.op = request.op;
  rec.server = self_;
  rec.ts = reply_ts;
  spans_->finish(id, obs::SpanStatus::kOk, now);
}

void ServerProcess::on_message(NodeId from, net::Message msg) {
  if (msg.type == net::MsgType::kGossip) {
    const std::size_t keys_before = replica_.num_registers();
    std::size_t advanced = replica_.merge_store(msg.value);
    gossip_merges_ += advanced;
    if (metrics_.has_value()) {
      metrics_->gossip_merges->inc(advanced);
      metrics_->keys_created->inc(replica_.num_registers() - keys_before);
    }
    return;
  }
  if (msg.type == net::MsgType::kReadReq && msg.reg == net::kAllRegisters) {
    if (metrics_.has_value()) metrics_->requests->inc();
    net::Message reply = net::Message::read_ack(net::kAllRegisters, msg.op, 0,
                                                replica_.encode_store());
    reply.trace = msg.trace;
    reply.span = msg.span;
    record_handle_span(msg, reply.ts);
    transport_.send(self_, from, std::move(reply));
    return;
  }
  std::uint64_t applied_before = replica_.writes_applied();
  const std::size_t keys_before = replica_.num_registers();
  net::Message reply = replica_.handle(msg);
  // Echo the causal headers so the client can close its RPC span; done here
  // (not in Replica) so the replica state machine stays tracing-agnostic.
  reply.trace = msg.trace;
  reply.span = msg.span;
  if (metrics_.has_value()) {
    metrics_->requests->inc();
    metrics_->ts_advances->inc(replica_.writes_applied() - applied_before);
    metrics_->keys_created->inc(replica_.num_registers() - keys_before);
  }
  record_handle_span(msg, reply.ts);
  transport_.send(self_, from, std::move(reply));
}

void ServerProcess::schedule_gossip(sim::Time delay) {
  simulator_->schedule_in(delay, sim::EventTag::kGossip,
                          [this] { gossip_tick(); });
}

void ServerProcess::gossip_tick() {
  // Pick a uniformly random peer other than this server.
  auto peer = static_cast<net::NodeId>(rng_.below(gossip_.group_size - 1));
  if (peer >= self_) ++peer;
  // Routed through the batch path (a width-1 fan-out) so gossip shares the
  // transport's block-scheduled delivery machinery.
  net::FanoutEntry entry{peer, 0};
  transport_.send_fanout(self_, &entry, 1,
                         net::Message::gossip(replica_.encode_store()));
  schedule_gossip(gossip_.interval);
}

}  // namespace pqra::core
