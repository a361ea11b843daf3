#pragma once

/// \file mem_disk.hpp
/// Deterministic in-memory "disk" for DES runs (docs/DURABILITY.md).
///
/// Models one node's data directory as a volatile/durable pair of WAL
/// images plus the durable snapshot image.  Appends land in the volatile
/// image; wal_sync makes the durable image equal to it — unless a storage
/// fault armed on this node in the FaultInjector intervenes:
///
///   - fsync loss (`fsyncloss:N@T1-T2`): the sync silently does nothing;
///     the durable image stays behind until a later sync succeeds.  Models
///     a lying fsync / dropped disk-cache flush.
///   - torn write (`tornwrite:N@T`): one-shot; the sync copies, then zeroes
///     a random non-empty suffix of the final record in the durable image.
///     Models a crash-adjacent partial sector write.  A later successful
///     sync rewrites the durable image from the tear on and legitimately
///     repairs it — only a crash while the tear is the durable tail
///     surfaces it, and then wal.hpp's CRC replay discards exactly the torn
///     record.
///
/// Snapshot install and log truncation are rename-semantics atomic and
/// exempt from both faults (see backend.hpp).
///
/// drop_volatile() is the crash: the volatile WAL resets to the durable one.
/// Neither it nor wal_sync copies the prefix the two WAL images already
/// share (`shared_`), only the bytes past it, so a sync costs the bytes
/// appended since the last one, not the whole log.
/// The tear-length draw comes from this disk's own forked RNG stream, so
/// fault schedules stay byte-reproducible and --jobs-invariant.

#include <cstdint>

#include "net/faults.hpp"
#include "storage/backend.hpp"
#include "util/rng.hpp"

namespace pqra::storage {

class MemDisk final : public StorageBackend {
 public:
  /// \p injector may be null (no storage faults, e.g. unit tests).
  MemDisk(net::NodeId node, net::FaultInjector* injector, util::Rng rng)
      : node_(node), injector_(injector), rng_(rng) {}

  void wal_append(const util::Bytes& record) override;
  void wal_sync() override;
  util::Bytes wal_contents() const override { return durable_wal_; }
  void wal_truncate() override;
  void wal_truncate_to(std::size_t bytes) override;
  void install_snapshot(const util::Bytes& encoded) override;
  util::Bytes snapshot_contents() const override { return durable_snapshot_; }

  /// Crash semantics: everything not synced is gone.
  void drop_volatile();

  /// Direct durable views for the crash-replay-compare oracle (no copy).
  const util::Bytes& durable_wal() const { return durable_wal_; }
  const util::Bytes& durable_snapshot() const { return durable_snapshot_; }

  struct Counters {
    std::uint64_t appends = 0;
    std::uint64_t append_bytes = 0;
    std::uint64_t syncs = 0;
    std::uint64_t lost_syncs = 0;
    std::uint64_t torn_syncs = 0;
    std::uint64_t snapshot_installs = 0;
  };
  const Counters& counters() const { return counters_; }

 private:
  net::NodeId node_;
  net::FaultInjector* injector_;
  util::Rng rng_;
  util::Bytes volatile_wal_;
  util::Bytes durable_wal_;
  /// The two WAL images agree on their first shared_ bytes: sync and crash
  /// copy only what lies past them.  A torn sync moves it back to the tear.
  std::size_t shared_ = 0;
  util::Bytes durable_snapshot_;
  /// Size of the most recent append: the torn-write fault tears within the
  /// final record, which is the only part of the image a real partial
  /// sector write could corrupt mid-sync.
  std::size_t last_record_bytes_ = 0;
  Counters counters_;
};

}  // namespace pqra::storage
