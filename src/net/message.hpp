#pragma once

/// \file message.hpp
/// The wire vocabulary of the quorum register protocol.
///
/// The protocol of §4 needs exactly four message types: a read queries a
/// quorum (ReadReq) and each queried replica answers with its timestamped
/// value (ReadAck); a write pushes a new timestamped value to a quorum
/// (WriteReq) and each replica acknowledges (WriteAck).

#include <cstdint>

#include "net/value.hpp"
#include "util/codec.hpp"

namespace pqra::net {

/// Identifies a node (replica server or client process) on a transport.
using NodeId = std::uint32_t;

/// Identifies one shared register (one vector component of the iteration).
using RegisterId = std::uint32_t;

/// Identifies one key of the sharded multi-key store (docs/SHARDING.md).
/// A key IS a register: the store runs the §4 protocol independently per
/// key, so keys and registers share one id space and `Message::reg` carries
/// the key of every request/ack.  The alias exists so key-aware layers
/// (core/keyspace, spec partitioning, fault-plan key targets) say what they
/// mean.
using KeyId = RegisterId;

/// Register id used by snapshot reads: a ReadReq for kAllRegisters asks the
/// replica for its whole store (one ReadAck whose value is the encoded
/// store), letting a client read every register through a single quorum
/// access.  Ordinary registers must not use this id.
inline constexpr RegisterId kAllRegisters = 0xFFFFFFFFu;

/// Client-local operation identifier; unique per (client, operation).
using OpId = std::uint64_t;

/// Write timestamps.  Each register has a single writer which numbers its
/// writes 1, 2, 3, ...; timestamp 0 denotes the preloaded initial value.
using Timestamp = std::uint64_t;

/// Register payloads are opaque, immutable, refcounted byte blobs (see
/// net/value.hpp): copying one — e.g. fanning a WriteReq out to a k-quorum —
/// shares the buffer instead of duplicating it.

enum class MsgType : std::uint8_t {
  kReadReq = 0,
  kReadAck = 1,
  kWriteReq = 2,
  kWriteAck = 3,
  /// Server-to-server anti-entropy: value carries an encoded register store
  /// (see Replica::encode_store); no reply.
  kGossip = 4,
};

/// Number of distinct MsgType values (for counter arrays).
inline constexpr std::size_t kNumMsgTypes = 5;

const char* msg_type_name(MsgType t);

/// One protocol message.  A single struct (rather than a variant) keeps the
/// hot path allocation-free except for the value payload.
struct Message {
  MsgType type = MsgType::kReadReq;
  RegisterId reg = 0;
  OpId op = 0;
  Timestamp ts = 0;
  /// Causal tracing headers (obs/span.hpp): the trace id of the client
  /// operation this message serves and the span id of the RPC attempt that
  /// sent it.  0 = untraced.  Transports copy them opaquely; replicas echo
  /// a request's ids on the reply so the client can close the RPC span.
  std::uint64_t trace = 0;
  std::uint64_t span = 0;
  Value value;

  static Message read_req(RegisterId reg, OpId op);
  static Message read_ack(RegisterId reg, OpId op, Timestamp ts, Value value);
  static Message write_req(RegisterId reg, OpId op, Timestamp ts, Value value);
  static Message write_ack(RegisterId reg, OpId op, Timestamp ts);
  static Message gossip(Value encoded_store);
};

}  // namespace pqra::net
