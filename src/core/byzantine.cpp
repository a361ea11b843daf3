#include "core/byzantine.hpp"

#include <utility>

#include "util/check.hpp"
#include "util/codec.hpp"

namespace pqra::core {

namespace {
/// High enough that an unprotected client always prefers the fabrication.
constexpr Timestamp kFabricatedTs = 1ULL << 40;
constexpr std::int64_t kFabricatedPayload = 0x5ca1ab1e;
}  // namespace

net::Message fabricated_read_ack(RegisterId reg, OpId op) {
  return net::Message::read_ack(reg, op, kFabricatedTs,
                                util::encode<std::int64_t>(kFabricatedPayload));
}

ByzantineServerProcess::ByzantineServerProcess(net::Transport& transport,
                                               NodeId self, ByzantineMode mode)
    : transport_(transport), self_(self), mode_(mode) {
  transport_.register_receiver(self_, this);
}

void ByzantineServerProcess::on_message(NodeId from, net::Message msg) {
  if (msg.type == net::MsgType::kWriteReq) {
    // Acknowledge but discard: a Byzantine server's state is its own affair.
    transport_.send(self_, from,
                    net::Message::write_ack(msg.reg, msg.op, msg.ts));
    return;
  }
  PQRA_CHECK(msg.type == net::MsgType::kReadReq,
             "server received a non-request message");
  switch (mode_) {
    case ByzantineMode::kFabricateHighTs:
      transport_.send(self_, from, fabricated_read_ack(msg.reg, msg.op));
      return;
    case ByzantineMode::kStaleLie:
      transport_.send(self_, from,
                      net::Message::read_ack(msg.reg, msg.op, 0, Value{}));
      return;
    case ByzantineMode::kCorruptValue: {
      net::Message genuine = replica_.handle(msg);
      // Corrupt a private copy: mutable_bytes() clones the buffer the honest
      // replica still shares with its store (copy-on-write discipline).
      for (std::byte& b : genuine.value.mutable_bytes()) b ^= std::byte{0xFF};
      if (genuine.value.empty()) {
        genuine.value = util::encode<std::int64_t>(-1);
      }
      transport_.send(self_, from, std::move(genuine));
      return;
    }
  }
  PQRA_CHECK(false, "unknown Byzantine mode");
}

}  // namespace pqra::core
