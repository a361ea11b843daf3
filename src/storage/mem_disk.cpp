#include "storage/mem_disk.hpp"

#include <algorithm>

namespace pqra::storage {

namespace {

/// Makes \p to equal \p from, given that both already agree on their first
/// \p shared bytes: only the bytes past that prefix are copied.
void copy_past(util::Bytes& to, const util::Bytes& from, std::size_t shared) {
  to.resize(shared);
  to.insert(to.end(), from.begin() + static_cast<std::ptrdiff_t>(shared),
            from.end());
}

}  // namespace

void MemDisk::wal_append(const util::Bytes& record) {
  volatile_wal_.insert(volatile_wal_.end(), record.begin(), record.end());
  last_record_bytes_ = record.size();
  ++counters_.appends;
  counters_.append_bytes += record.size();
}

void MemDisk::wal_sync() {
  ++counters_.syncs;
  if (injector_ != nullptr && injector_->consume_fsync_loss(node_)) {
    ++counters_.lost_syncs;
    return;  // the lying fsync: durable image unchanged
  }
  copy_past(durable_wal_, volatile_wal_, shared_);
  shared_ = durable_wal_.size();
  if (injector_ != nullptr && injector_->consume_torn_write(node_) &&
      last_record_bytes_ > 0 && durable_wal_.size() >= last_record_bytes_) {
    // Zero a random non-empty suffix of the final record in the durable
    // image only — the volatile image (what the process sees while alive)
    // is intact, so the tear is observable exactly after a crash.
    const std::size_t tear =
        1 + static_cast<std::size_t>(rng_.below(last_record_bytes_));
    shared_ = durable_wal_.size() - tear;
    std::fill(durable_wal_.begin() + static_cast<std::ptrdiff_t>(shared_),
              durable_wal_.end(), std::byte{0});
    ++counters_.torn_syncs;
  }
}

void MemDisk::wal_truncate() {
  volatile_wal_.clear();
  durable_wal_.clear();
  shared_ = 0;
  last_record_bytes_ = 0;
}

void MemDisk::wal_truncate_to(std::size_t bytes) {
  if (volatile_wal_.size() > bytes) volatile_wal_.resize(bytes);
  if (durable_wal_.size() > bytes) durable_wal_.resize(bytes);
  shared_ = std::min(shared_, bytes);
}

void MemDisk::install_snapshot(const util::Bytes& encoded) {
  // Rename semantics: the image flips whole or not at all, and neither
  // storage fault applies (see mem_disk.hpp).
  durable_snapshot_.assign(encoded.begin(), encoded.end());
  ++counters_.snapshot_installs;
}

void MemDisk::drop_volatile() {
  copy_past(volatile_wal_, durable_wal_, shared_);
  shared_ = volatile_wal_.size();
  last_record_bytes_ = 0;
}

}  // namespace pqra::storage
