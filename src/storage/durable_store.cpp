#include "storage/durable_store.hpp"

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace pqra::storage {

namespace {

/// One record of log_, by position: its value is the value_bytes bytes at
/// value_at.  log_ holds only records this store encoded, so it is read
/// without re-checking lengths or CRCs.
struct LoggedRecord {
  core::RegisterId reg = 0;
  core::Timestamp ts = 0;
  std::size_t value_at = 0;
  std::uint64_t value_bytes = 0;
};

}  // namespace

void DurableStore::log_record(core::RegisterId reg, core::Timestamp ts,
                              const core::Value& value) {
  wal::encode_record(scratch_, reg, ts, value);
  log_.insert(log_.end(), scratch_.begin(), scratch_.end());
  ++log_records_;
}

void DurableStore::on_apply(core::RegisterId reg, core::Timestamp ts,
                            const core::Value& value) {
  log_record(reg, ts, value);
  backend_.wal_append(scratch_);
  // Sync-per-record: the durability contract is "acked writes survive a
  // crash" (modulo injected fsync loss), so the record is flushed before
  // the apply event returns.
  backend_.wal_sync();
  ++counters_.appends;
  counters_.append_bytes += scratch_.size();
  if (options_.snapshot_every > 0 && log_records_ >= options_.snapshot_every) {
    checkpoint();
  }
}

util::Bytes DurableStore::merge_log(const util::Bytes& base) const {
  // The logged records stably sorted by key, each key folded by the
  // restore_entry rule: a later record replaces the kept one when its ts
  // is >= the kept one's.
  std::vector<LoggedRecord> records;
  records.reserve(log_records_);
  for (std::size_t off = 0; off < log_.size();) {
    const std::byte* at = log_.data() + off + wal::kHeaderBytes;
    std::uint32_t len = 0;
    std::memcpy(&len, log_.data() + off, sizeof(len));
    LoggedRecord r;
    std::memcpy(&r.reg, at, sizeof(r.reg));
    std::memcpy(&r.ts, at + sizeof(r.reg), sizeof(r.ts));
    r.value_at = off + wal::kHeaderBytes + wal::kMinPayloadBytes;
    r.value_bytes = len - wal::kMinPayloadBytes;
    records.push_back(r);
    off += wal::kHeaderBytes + len;
  }
  std::stable_sort(records.begin(), records.end(),
                   [](const LoggedRecord& a, const LoggedRecord& b) {
                     return a.reg < b.reg;
                   });
  std::size_t kept = 0;
  for (const LoggedRecord& r : records) {
    if (kept > 0 && records[kept - 1].reg == r.reg) {
      if (r.ts >= records[kept - 1].ts) records[kept - 1] = r;
    } else {
      records[kept++] = r;
    }
  }
  records.resize(kept);

  // One pass over the base image (sorted by key, as encode_store writes
  // it): runs of base entries no record touches are copied whole, and a
  // record replaces its key's base entry under the same rule.
  util::Bytes out;
  out.reserve(base.size() + log_.size() + sizeof(std::uint64_t));
  std::uint64_t count = 0;
  util::detail::append_raw(out, count);  // patched below
  std::size_t off = 0;
  const std::uint64_t base_count =
      base.empty() ? 0 : util::detail::read_raw<std::uint64_t>(base, off);
  std::size_t run_at = off;  // first base byte not yet copied
  auto next = records.begin();
  auto emit = [&](const LoggedRecord& r) {
    util::detail::append_raw(out, r.reg);
    util::detail::append_raw(out, r.ts);
    util::detail::append_raw(out, r.value_bytes);
    const auto value = log_.begin() + static_cast<std::ptrdiff_t>(r.value_at);
    out.insert(out.end(), value,
               value + static_cast<std::ptrdiff_t>(r.value_bytes));
    ++count;
  };
  auto copy_run = [&](std::size_t end) {
    out.insert(out.end(), base.begin() + static_cast<std::ptrdiff_t>(run_at),
               base.begin() + static_cast<std::ptrdiff_t>(end));
  };
  for (std::uint64_t e = 0; e < base_count; ++e) {
    const std::size_t entry_at = off;
    const auto reg = util::detail::read_raw<core::RegisterId>(base, off);
    const auto ts = util::detail::read_raw<core::Timestamp>(base, off);
    const auto len = util::detail::read_raw<std::uint64_t>(base, off);
    PQRA_CHECK(len <= base.size() - off, "store: truncated payload");
    off += len;
    if (next != records.end() && next->reg <= reg) {
      copy_run(entry_at);
      while (next != records.end() && next->reg < reg) emit(*next++);
      run_at = entry_at;
      if (next != records.end() && next->reg == reg) {
        const LoggedRecord& r = *next++;
        if (r.ts >= ts) {
          emit(r);  // replaces this entry
          run_at = off;
          continue;
        }
      }
    }
    ++count;  // the entry stays, copied with its run
  }
  PQRA_CHECK(off == base.size(), "store: trailing bytes");
  copy_run(off);
  while (next != records.end()) emit(*next++);
  std::memcpy(out.data(), &count, sizeof(count));
  return out;
}

void DurableStore::checkpoint() {
  PQRA_REQUIRE(replica_ != nullptr, "DurableStore: attach() before use");
  // Until this store has installed or recovered a base since attach(), it
  // knows nothing of what the replica held before; after that, the log
  // folded into the base is the store.
  if (base_ == Base::kUnknown) {
    backend_.install_snapshot(replica_->encode_store());
  } else {
    backend_.install_snapshot(merge_log(backend_.snapshot_contents()));
  }
  backend_.wal_truncate();
  log_.clear();
  log_records_ = 0;
  base_ = Base::kSnapshot;
  ++counters_.checkpoints;
}

void DurableStore::recover() {
  PQRA_REQUIRE(replica_ != nullptr, "DurableStore: attach() before use");
  ++counters_.recoveries;
  const util::Bytes durable_log = backend_.wal_contents();
  if (base_ != Base::kUnknown && durable_log == log_) {
    // Nothing was lost: the replica holds base ⊔ log_ (the invariant in
    // durable_store.hpp), which is what the replay below would rebuild.
    if (base_ == Base::kSnapshot) ++counters_.snapshot_loads;
    counters_.replayed_records += log_records_;
    return;
  }

  replica_->reset_store();
  const util::Bytes snapshot = backend_.snapshot_contents();
  base_ = Base::kNone;
  if (!snapshot.empty()) {
    for (core::Replica::StoreEntry& entry :
         core::Replica::decode_store(snapshot)) {
      replica_->restore_entry(entry.reg, entry.ts, std::move(entry.value));
    }
    ++counters_.snapshot_loads;
    base_ = Base::kSnapshot;
  }

  wal::ReplayResult replay = wal::replay_log(durable_log, skip_crc_bug_);
  log_.clear();
  log_records_ = 0;
  for (wal::Record& record : replay.records) {
    log_record(record.reg, record.ts, record.value);
    replica_->restore_entry(record.reg, record.ts, std::move(record.value));
  }
  counters_.replayed_records += replay.records.size();
  if (replay.torn) ++counters_.torn_tails_dropped;
  // Repair: drop the torn tail for good, so appends after recovery extend
  // the valid prefix instead of hiding behind garbage that would swallow
  // them on the next replay.
  backend_.wal_truncate_to(replay.valid_bytes);
}

}  // namespace pqra::storage
