#pragma once

/// \file durable_store.hpp
/// WAL + snapshot durability layer beneath one core::Replica
/// (docs/DURABILITY.md).
///
/// Attached as the replica's StoreListener, a DurableStore appends one
/// wal.hpp record per applied store mutation (write or gossip advance) and
/// syncs it, checkpoints the whole store into the backend's snapshot every
/// `snapshot_every` appends (then truncates the log — the log never grows
/// unbounded), and on recover() rebuilds the replica from durable state:
///
///   recovered store == snapshot ⊔ valid WAL prefix       (ts-max merge)
///
/// That right-hand side is the *durable prefix*, the exact invariant the
/// explore runner's crash-replay-compare probe checks against an
/// independent replay of the same durable bytes.  Torn tails stop the
/// replay (wal.hpp) and are truncated away so post-recovery appends extend
/// a well-formed log.
///
/// Invariant: after attach(), the replica's store changes only through
/// StoreListener::on_apply.  Every record on_apply logs is then the exact
/// (reg, ts, value) the replica just installed, so once this store has
/// installed or loaded the backend's snapshot (its *base*), the replica
/// holds base ⊔ log_, log_ being the records appended since.  Both cheap
/// paths rest on that:
///   - a checkpoint after the first merges log_ into the base image read
///     back from the backend, byte-identical to Replica::encode_store();
///   - a recovery whose durable WAL equals log_ lost nothing, so it leaves
///     the replica as it is and only counts what a replay would have.
/// Anything else (a lost sync, a torn tail, a store that has not yet
/// checkpointed or recovered since attach()) resets and replays.
///
/// The apply path (on_apply) is DES hot-path code when backed by MemDisk:
/// it reuses one scratch buffer and draws nothing from any RNG, so durable
/// runs execute the byte-identical event schedule of their non-durable
/// twins (fingerprint equality, the acceptance bar of the durability PR).

#include <cstdint>

#include "core/replica.hpp"
#include "storage/backend.hpp"
#include "storage/wal.hpp"

namespace pqra::storage {

class DurableStore final : public core::Replica::StoreListener {
 public:
  struct Options {
    /// Appends between automatic checkpoints; 0 = never checkpoint
    /// automatically (the log only resets via explicit checkpoint()).
    std::size_t snapshot_every = 64;
  };

  DurableStore(StorageBackend& backend, Options options)
      : backend_(backend), options_(options) {}
  explicit DurableStore(StorageBackend& backend)
      : DurableStore(backend, Options{}) {}

  /// Binds this store as \p replica's listener.  Callers that want the
  /// pre-attach state durable (e.g. preloaded initials) follow up with
  /// checkpoint().  Until the first checkpoint() or recover(), the store
  /// knows nothing of what the replica holds beyond its log.
  void attach(core::Replica& replica) {
    replica_ = &replica;
    replica.bind_storage(this);
    base_ = Base::kUnknown;
  }

  /// StoreListener: called by the replica once per applied mutation.
  void on_apply(core::RegisterId reg, core::Timestamp ts,
                const core::Value& value) override;

  /// Snapshots the replica's entire store into the backend and truncates
  /// the log (install is atomic; see backend.hpp).
  void checkpoint();

  /// Rebuilds the replica from durable state: clear, load snapshot, replay
  /// the valid WAL prefix, truncate any torn tail away — or, when the
  /// durable WAL is exactly log_, keeps the replica as it is (see the file
  /// comment).  The caller models the crash itself (MemDisk::drop_volatile)
  /// before recovering.
  void recover();

  /// Planted-bug hook for the explore durability drill
  /// (docs/EXPLORATION.md): recovery replays the WAL without CRC checking,
  /// surfacing torn garbage as durable state.  Never enabled outside the
  /// drill.
  void set_test_skip_crc_bug(bool on) { skip_crc_bug_ = on; }

  struct Counters {
    std::uint64_t appends = 0;
    std::uint64_t append_bytes = 0;
    std::uint64_t checkpoints = 0;
    std::uint64_t recoveries = 0;
    std::uint64_t snapshot_loads = 0;
    std::uint64_t replayed_records = 0;
    std::uint64_t torn_tails_dropped = 0;
  };
  const Counters& counters() const { return counters_; }

 private:
  /// What the replica holds besides log_.
  enum class Base {
    kUnknown,   ///< attach() since the last checkpoint or recovery
    kNone,      ///< nothing: the last recovery found no snapshot
    kSnapshot,  ///< the backend's snapshot image
  };

  /// The snapshot image of base ⊔ log_, given the base image \p base.
  util::Bytes merge_log(const util::Bytes& base) const;

  /// Appends one record to log_ (scratch_ holds it afterwards).
  void log_record(core::RegisterId reg, core::Timestamp ts,
                  const core::Value& value);

  StorageBackend& backend_;
  core::Replica* replica_ = nullptr;
  Options options_;
  util::Bytes scratch_;  // reused record buffer: no per-apply allocation
  /// The records appended since the base was installed or recovered, byte
  /// for byte as a WAL that lost nothing holds them.
  util::Bytes log_;
  std::size_t log_records_ = 0;
  Base base_ = Base::kUnknown;
  bool skip_crc_bug_ = false;
  Counters counters_;
};

}  // namespace pqra::storage
