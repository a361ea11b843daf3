#include "net/transport.hpp"

#include "obs/names.hpp"

namespace pqra::net {

TransportMetrics::TransportMetrics(obs::Registry& registry)
    : messages_(&registry.counter(obs::names::kTransportMessages,
                                  "Messages sent (including dropped)")),
      dropped_(&registry.counter(
          obs::names::kTransportDropped,
          "Messages lost to crashed nodes / drop probability / shutdown")),
      payload_bytes_(&registry.counter(obs::names::kTransportPayloadBytes,
                                       "Payload bytes sent")) {
  for (std::size_t i = 0; i < kNumMsgTypes; ++i) {
    by_type_[i] = &registry.counter(obs::names::kTransportMessagesByType[i]);
  }
}

void Transport::send_fanout(NodeId from, const FanoutEntry* targets,
                            std::size_t count, Message proto) {
  // Reference semantics for every transport that does not batch: per-target
  // message copies are cheap (Value is COW), and the last target moves.
  for (std::size_t i = 0; i < count; ++i) {
    Message msg = (i + 1 == count) ? std::move(proto) : proto;
    msg.span = targets[i].span;
    send(from, targets[i].to, std::move(msg));
  }
}

}  // namespace pqra::net
