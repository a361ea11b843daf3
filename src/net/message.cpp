#include "net/message.hpp"

#include <utility>

namespace pqra::net {

const char* msg_type_name(MsgType t) {
  switch (t) {
    case MsgType::kReadReq:
      return "ReadReq";
    case MsgType::kReadAck:
      return "ReadAck";
    case MsgType::kWriteReq:
      return "WriteReq";
    case MsgType::kWriteAck:
      return "WriteAck";
    case MsgType::kGossip:
      return "Gossip";
  }
  return "?";
}

Message Message::read_req(RegisterId reg, OpId op) {
  Message m;
  m.type = MsgType::kReadReq;
  m.reg = reg;
  m.op = op;
  return m;
}

Message Message::read_ack(RegisterId reg, OpId op, Timestamp ts, Value value) {
  Message m;
  m.type = MsgType::kReadAck;
  m.reg = reg;
  m.op = op;
  m.ts = ts;
  m.value = std::move(value);
  return m;
}

Message Message::write_req(RegisterId reg, OpId op, Timestamp ts, Value value) {
  Message m;
  m.type = MsgType::kWriteReq;
  m.reg = reg;
  m.op = op;
  m.ts = ts;
  m.value = std::move(value);
  return m;
}

Message Message::write_ack(RegisterId reg, OpId op, Timestamp ts) {
  Message m;
  m.type = MsgType::kWriteAck;
  m.reg = reg;
  m.op = op;
  m.ts = ts;
  return m;
}

Message Message::gossip(Value encoded_store) {
  Message m;
  m.type = MsgType::kGossip;
  m.value = std::move(encoded_store);
  return m;
}

}  // namespace pqra::net
