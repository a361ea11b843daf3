#pragma once

/// \file replica.hpp
/// Server-side state machine of the quorum register protocol.
///
/// Pure request/response logic with no transport dependency, so the exact
/// same code backs the discrete-event servers (ServerProcess) and the
/// threaded servers (ThreadedServer).  A replica stores, per key, the
/// highest-timestamped value it has seen; stale WriteReqs are acknowledged
/// but ignored (the single writer's timestamps are monotone, so this only
/// matters when retries reorder).
///
/// The store is a flat open-addressing KeyId -> (ts, value) table
/// (core/keyspace/flat_table.hpp): under sharding a replica holds an entry
/// per key it owns, lookups stay allocation-free in the DES loop, and slot
/// order is deterministic — though encode_store still sorts, because gossip
/// bytes must not depend on insertion history either (docs/SHARDING.md).

#include "core/keyspace/flat_table.hpp"
#include "core/register_types.hpp"

namespace pqra::core {

class Replica {
 public:
  /// Durability hook (src/storage/durable_store.hpp, docs/DURABILITY.md):
  /// notified once per *applied* store mutation — a WriteReq that advanced
  /// the slot or a gossip merge entry that did — with the exact (reg, ts,
  /// value) now in the store.  Stale requests never notify (they never
  /// mutate).  preload() and restore_entry() bypass the listener: initials
  /// become durable via an explicit checkpoint, and recovery must not
  /// re-log what it just replayed.
  class StoreListener {
   public:
    virtual void on_apply(RegisterId reg, Timestamp ts,
                          const Value& value) = 0;

   protected:
    ~StoreListener() = default;
  };

  /// Binds (or clears, nullptr) the durability listener.
  void bind_storage(StoreListener* listener) { storage_ = listener; }

  /// Recovery support (docs/DURABILITY.md): drops every entry.  The caller
  /// is expected to follow up with restore_entry() calls; writes_applied()
  /// is a lifetime counter and is NOT reset.
  void reset_store();

  /// Re-installs one entry from durable state, keeping the higher
  /// timestamp when the slot already holds one (snapshot then WAL replay
  /// fold with ts-max, same merge rule as gossip).  Bypasses the listener.
  void restore_entry(RegisterId reg, Timestamp ts, Value value);

  /// Handles one protocol request and produces the reply to send back.
  /// ReadReq -> ReadAck carrying the stored (ts, value) — (0, empty) if the
  /// key was never written nor preloaded.  WriteReq -> WriteAck.
  net::Message handle(const net::Message& request);

  /// Installs an initial value with timestamp 0 (the initial vector i of the
  /// iterative algorithm, present on the key's replicas before the run).
  void preload(RegisterId reg, Value value);

  /// Pre-sizes the store for \p keys entries; bulk preloads call it once
  /// instead of paying the table's amortized rehash chain per replica.
  void reserve(std::size_t keys) { store_.reserve(keys); }

  /// Installs a default initial value: a ReadReq for an absent key answers
  /// (ts 0, this value) instead of (0, empty), observably identical to
  /// having preloaded every key of the keyspace with it.  Large uniform
  /// keyspaces (the 10⁵-key store benchmark) use this instead of
  /// materializing one store entry per (key, replica) before the run.
  /// Writes insert normally; gossip/encode_store cover written keys only.
  void set_default_initial(Value value) {
    default_initial_ = std::move(value);
  }

  /// Read-only access for tests and invariant checks.
  const TimestampedValue* get(RegisterId reg) const;

  /// Serializes the whole store for anti-entropy gossip / snapshot reads.
  Value encode_store() const;

  /// Merges a gossiped store: per key, keeps the higher timestamp.
  /// Returns the number of keys that advanced.
  std::size_t merge_store(const Value& encoded);

  /// One entry of an encoded store.
  struct StoreEntry {
    RegisterId reg = 0;
    Timestamp ts = 0;
    Value value;
  };

  /// Parses an encoded store (throws on malformed input).
  static std::vector<StoreEntry> decode_store(const Value& encoded);

  std::size_t num_registers() const { return store_.size(); }

  /// Number of writes actually applied (not acked-but-stale).
  std::uint64_t writes_applied() const { return writes_applied_; }

  /// Test-only fault: when enabled, a ReadReq for key k answers with the
  /// entry of key k^1 whenever that neighbour holds a higher timestamp — a
  /// seeded cross-key contamination bug (a probe-collision returning the
  /// wrong slot) that the key-partitioned [R2] checker must catch and
  /// pqra_explore must shrink to a minimal multi-key repro
  /// (docs/EXPLORATION.md).  Never enabled outside that drill.
  void set_test_cross_key_probe_bug(bool on) { cross_key_probe_bug_ = on; }

 private:
  /// The slot a mutation of \p reg at \p ts should overwrite, or nullptr
  /// when \p ts is not newer than what the store holds.  The key is
  /// inserted only in the first case, with one probe when it is present.
  TimestampedValue* newer_slot(RegisterId reg, Timestamp ts);

  keyspace::FlatTable<TimestampedValue> store_;
  StoreListener* storage_ = nullptr;
  Value default_initial_;
  std::uint64_t writes_applied_ = 0;
  bool cross_key_probe_bug_ = false;
};

}  // namespace pqra::core
