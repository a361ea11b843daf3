/// DurableStore + backend pins (docs/DURABILITY.md): snapshot install /
/// WAL-replay equivalence, log truncation after checkpoints, crash recovery
/// through MemDisk (including injected fsync-loss and torn-write faults and
/// the repair-by-later-sync rule), a real-file FileBackend restart, the
/// recovery that lost nothing and so replays nothing, and a randomized
/// sweep of merged checkpoints and both recovery paths against an
/// independent fold of the durable bytes.

#include "storage/durable_store.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/replica.hpp"
#include "net/faults.hpp"
#include "storage/file_backend.hpp"
#include "storage/mem_disk.hpp"
#include "util/codec.hpp"
#include "util/rng.hpp"

namespace pqra::storage {
namespace {

core::Value val(std::int64_t x) { return util::encode(x); }

/// Applies one write through the protocol path (so the StoreListener fires
/// exactly as in a real run).
void write(core::Replica& r, core::RegisterId reg, core::Timestamp ts,
           std::int64_t x) {
  r.handle(net::Message::write_req(reg, /*op=*/ts, ts, val(x)));
}

TEST(DurableStoreTest, CrashAfterSyncedWritesRecoversEveryApply) {
  core::Replica replica;
  MemDisk disk(0, nullptr, util::Rng(1));
  DurableStore store(disk, DurableStore::Options{/*snapshot_every=*/0});
  store.attach(replica);

  write(replica, 0, 1, 10);
  write(replica, 1, 1, 20);
  write(replica, 0, 2, 11);
  const core::Value before = replica.encode_store();

  disk.drop_volatile();
  store.recover();
  EXPECT_EQ(replica.encode_store(), before);
  EXPECT_EQ(replica.get(0)->ts, 2u);
  EXPECT_EQ(util::decode<std::int64_t>(replica.get(0)->value), 11);
  EXPECT_EQ(store.counters().recoveries, 1u);
  EXPECT_EQ(store.counters().replayed_records, 3u);
  EXPECT_EQ(store.counters().torn_tails_dropped, 0u);
}

TEST(DurableStoreTest, SnapshotPlusWalReplayEqualsSnapshotlessReplay) {
  // Same write sequence, one store checkpointing mid-stream, one never:
  // recovery must land both on the identical store (snapshot ⊔ WAL prefix
  // is equivalent to replaying the full log).
  core::Replica with_snap;
  core::Replica wal_only;
  MemDisk disk_a(0, nullptr, util::Rng(1));
  MemDisk disk_b(1, nullptr, util::Rng(1));
  DurableStore store_a(disk_a, DurableStore::Options{0});
  DurableStore store_b(disk_b, DurableStore::Options{0});
  store_a.attach(with_snap);
  store_b.attach(wal_only);

  for (core::Timestamp ts = 1; ts <= 3; ++ts) {
    write(with_snap, 0, ts, 100 + static_cast<std::int64_t>(ts));
    write(wal_only, 0, ts, 100 + static_cast<std::int64_t>(ts));
  }
  store_a.checkpoint();
  ASSERT_TRUE(disk_a.durable_wal().empty());  // log reset at the checkpoint
  for (core::Timestamp ts = 4; ts <= 6; ++ts) {
    write(with_snap, 1, ts, 200 + static_cast<std::int64_t>(ts));
    write(wal_only, 1, ts, 200 + static_cast<std::int64_t>(ts));
  }

  disk_a.drop_volatile();
  disk_b.drop_volatile();
  store_a.recover();
  store_b.recover();
  EXPECT_EQ(with_snap.encode_store(), wal_only.encode_store());
  EXPECT_EQ(store_a.counters().snapshot_loads, 1u);
  EXPECT_EQ(store_a.counters().replayed_records, 3u);  // post-snapshot WAL
  EXPECT_EQ(store_b.counters().snapshot_loads, 0u);
  EXPECT_EQ(store_b.counters().replayed_records, 6u);
}

TEST(DurableStoreTest, AutomaticCheckpointTruncatesTheLog) {
  core::Replica replica;
  MemDisk disk(0, nullptr, util::Rng(1));
  DurableStore store(disk, DurableStore::Options{/*snapshot_every=*/4});
  store.attach(replica);

  for (core::Timestamp ts = 1; ts <= 4; ++ts) write(replica, 0, ts, 1);
  EXPECT_EQ(store.counters().checkpoints, 1u);
  EXPECT_TRUE(disk.durable_wal().empty());
  EXPECT_FALSE(disk.durable_snapshot().empty());

  // The 5th apply starts a fresh log; recovery folds snapshot + 1 record.
  write(replica, 1, 5, 2);
  const core::Value before = replica.encode_store();
  disk.drop_volatile();
  store.recover();
  EXPECT_EQ(replica.encode_store(), before);
  EXPECT_EQ(store.counters().snapshot_loads, 1u);
  EXPECT_EQ(store.counters().replayed_records, 1u);
}

TEST(DurableStoreTest, CheckpointMakesPreloadedInitialsDurable) {
  // preload() bypasses the listener by design; the explicit checkpoint is
  // what makes initial vectors durable (the explore runner does exactly
  // this after preloading).
  core::Replica replica;
  MemDisk disk(0, nullptr, util::Rng(1));
  DurableStore store(disk, DurableStore::Options{0});
  replica.preload(0, val(7));
  replica.preload(1, val(8));
  store.attach(replica);
  store.checkpoint();

  disk.drop_volatile();
  store.recover();
  ASSERT_NE(replica.get(0), nullptr);
  EXPECT_EQ(replica.get(0)->ts, 0u);
  EXPECT_EQ(util::decode<std::int64_t>(replica.get(0)->value), 7);
  EXPECT_EQ(util::decode<std::int64_t>(replica.get(1)->value), 8);
}

TEST(DurableStoreTest, FsyncLossWindowLosesExactlyTheUnsyncedSuffix) {
  net::FaultInjector faults(2);
  core::Replica replica;
  MemDisk disk(0, &faults, util::Rng(3));
  DurableStore store(disk, DurableStore::Options{0});
  store.attach(replica);

  write(replica, 0, 1, 10);  // durable
  const core::Value synced = replica.get(0)->value;
  faults.set_fsync_loss(0, true);
  write(replica, 0, 2, 11);  // sync silently lost
  write(replica, 1, 1, 20);  // still lost
  faults.set_fsync_loss(0, false);

  EXPECT_EQ(disk.counters().lost_syncs, 2u);
  disk.drop_volatile();
  store.recover();
  // Only the write synced before the window survives, replayed from the
  // durable bytes into a buffer of its own.
  EXPECT_EQ(replica.get(0)->ts, 1u);
  EXPECT_EQ(util::decode<std::int64_t>(replica.get(0)->value), 10);
  EXPECT_FALSE(replica.get(0)->value.shares_buffer_with(synced));
  EXPECT_EQ(replica.get(1), nullptr);
  EXPECT_EQ(faults.counters().fsync_losses, 2u);
}

TEST(DurableStoreTest, SyncAfterFsyncLossWindowRepairsTheLog) {
  // The lying fsync loses bytes only until the next honest sync: wal_sync
  // copies every volatile byte past the prefix the durable image already
  // shares, so one good sync re-persists the records the window dropped.
  net::FaultInjector faults(2);
  core::Replica replica;
  MemDisk disk(0, &faults, util::Rng(3));
  DurableStore store(disk, DurableStore::Options{0});
  store.attach(replica);

  faults.set_fsync_loss(0, true);
  write(replica, 0, 1, 10);
  faults.set_fsync_loss(0, false);
  write(replica, 0, 2, 11);  // honest sync: both records land
  const core::Value before = replica.encode_store();

  disk.drop_volatile();
  store.recover();
  EXPECT_EQ(replica.encode_store(), before);
  EXPECT_EQ(store.counters().replayed_records, 2u);
}

TEST(DurableStoreTest, TornWriteSurfacedOnCrashDropsOnlyTheTornRecord) {
  net::FaultInjector faults(2);
  core::Replica replica;
  MemDisk disk(0, &faults, util::Rng(7));
  DurableStore store(disk, DurableStore::Options{0});
  store.attach(replica);

  write(replica, 0, 1, 10);  // durable, intact
  const core::Value intact = replica.get(0)->value;
  faults.arm_torn_write(0);
  // All-nonzero value bytes: wherever the tear lands in the final record,
  // it changes at least one byte, so the CRC catches it after the crash.
  write(replica, 0, 2, 0x1122334455667788);  // this sync tears its own record
  EXPECT_EQ(disk.counters().torn_syncs, 1u);
  EXPECT_EQ(faults.counters().torn_writes, 1u);

  disk.drop_volatile();
  store.recover();
  // The torn tail is discarded, the prefix survives, and the log is
  // repaired so post-recovery appends extend a well-formed image.
  EXPECT_EQ(replica.get(0)->ts, 1u);
  EXPECT_EQ(util::decode<std::int64_t>(replica.get(0)->value), 10);
  EXPECT_FALSE(replica.get(0)->value.shares_buffer_with(intact));
  EXPECT_EQ(store.counters().torn_tails_dropped, 1u);
  const wal::ReplayResult repaired = wal::replay_log(disk.durable_wal());
  EXPECT_FALSE(repaired.torn);
  EXPECT_EQ(repaired.records.size(), 1u);

  write(replica, 0, 3, 12);
  disk.drop_volatile();
  store.recover();
  EXPECT_EQ(replica.get(0)->ts, 3u);
}

TEST(DurableStoreTest, LaterGoodSyncRepairsATornTail) {
  // A torn write only matters if the node crashes while the tear is the
  // durable tail: the next honest sync rewrites the image in full.
  net::FaultInjector faults(2);
  core::Replica replica;
  MemDisk disk(0, &faults, util::Rng(7));
  DurableStore store(disk, DurableStore::Options{0});
  store.attach(replica);

  faults.arm_torn_write(0);
  write(replica, 0, 1, 10);  // torn in the durable image
  write(replica, 0, 2, 11);  // honest sync repairs the tear
  const core::Value before = replica.encode_store();

  disk.drop_volatile();
  store.recover();
  EXPECT_EQ(replica.encode_store(), before);
  EXPECT_EQ(store.counters().torn_tails_dropped, 0u);
  EXPECT_EQ(store.counters().replayed_records, 2u);
}

TEST(DurableStoreTest, FileBackendSurvivesAProcessRestart) {
  const std::string prefix = testing::TempDir() + "pqra_wal_restart";
  std::remove((prefix + ".wal").c_str());
  std::remove((prefix + ".snap").c_str());
  core::Value before;
  {
    core::Replica replica;
    FileBackend files(prefix);
    DurableStore store(files, DurableStore::Options{0});
    store.attach(replica);
    write(replica, 0, 1, 10);
    write(replica, 1, 1, 20);
    store.checkpoint();
    write(replica, 0, 2, 11);
    before = replica.encode_store();
  }  // "process exit": backend closed, files remain

  core::Replica revived;
  FileBackend files(prefix);
  DurableStore store(files, DurableStore::Options{0});
  store.attach(revived);
  store.recover();
  EXPECT_EQ(revived.encode_store(), before);
  EXPECT_EQ(store.counters().snapshot_loads, 1u);
  EXPECT_EQ(store.counters().replayed_records, 1u);
  std::remove((prefix + ".wal").c_str());
  std::remove((prefix + ".snap").c_str());
}

TEST(DurableStoreTest, FileBackendTruncatesATornTailOnRecovery) {
  const std::string prefix = testing::TempDir() + "pqra_wal_torn";
  std::remove((prefix + ".wal").c_str());
  std::remove((prefix + ".snap").c_str());
  std::size_t full_size = 0;
  {
    core::Replica replica;
    FileBackend files(prefix);
    DurableStore store(files, DurableStore::Options{0});
    store.attach(replica);
    write(replica, 0, 1, 10);
    write(replica, 0, 2, 11);
    full_size = files.wal_contents().size();
  }
  // Crash simulation: chop bytes off the on-disk log mid-record.
  {
    util::Bytes bytes;
    {
      FileBackend files(prefix);
      bytes = files.wal_contents();
    }
    ASSERT_EQ(bytes.size(), full_size);
    std::FILE* f = std::fopen((prefix + ".wal").c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, full_size - 5, f), full_size - 5);
    std::fclose(f);
  }

  core::Replica revived;
  FileBackend files(prefix);
  DurableStore store(files, DurableStore::Options{0});
  store.attach(revived);
  store.recover();
  EXPECT_EQ(revived.get(0)->ts, 1u);
  EXPECT_EQ(store.counters().torn_tails_dropped, 1u);
  // The repair is durable: the file now ends at the valid prefix.
  const wal::ReplayResult repaired = wal::replay_log(files.wal_contents());
  EXPECT_FALSE(repaired.torn);
  EXPECT_EQ(repaired.records.size(), 1u);
  std::remove((prefix + ".wal").c_str());
  std::remove((prefix + ".snap").c_str());
}

TEST(DurableStoreTest, RecoveryThatLostNothingKeepsTheReplicaAsItIs) {
  // Two nodes run the same history.  Node a recovers in place: its durable
  // WAL is exactly what it logged since its last checkpoint, so the replica
  // keeps every buffer it held.  Node b's durable images go to a fresh
  // store, which must replay them; both count the same.
  struct Node {
    core::Replica replica;
    MemDisk disk{0, nullptr, util::Rng(1)};
    DurableStore store{disk, DurableStore::Options{/*snapshot_every=*/4}};
  };
  Node a;
  Node b;
  core::Replica gossip_source;
  gossip_source.handle(net::Message::write_req(7, 1, 5, val(70)));
  for (Node* node : {&a, &b}) {
    node->store.attach(node->replica);
    node->store.checkpoint();
    for (core::Timestamp ts = 1; ts <= 5; ++ts) {
      write(node->replica, static_cast<core::RegisterId>(ts % 3), ts,
            10 * static_cast<std::int64_t>(ts));
    }
    node->replica.merge_store(gossip_source.encode_store());
  }
  ASSERT_EQ(a.store.counters().checkpoints, 2u);  // attach + 4th append

  std::vector<std::pair<core::RegisterId, core::TimestampedValue>> held;
  for (core::RegisterId reg : {0u, 1u, 2u, 7u}) {
    ASSERT_NE(a.replica.get(reg), nullptr);
    held.emplace_back(reg, *a.replica.get(reg));
  }
  a.disk.drop_volatile();
  a.store.recover();
  for (const auto& [reg, tv] : held) {
    ASSERT_NE(a.replica.get(reg), nullptr);
    EXPECT_EQ(a.replica.get(reg)->ts, tv.ts);
    EXPECT_TRUE(a.replica.get(reg)->value.shares_buffer_with(tv.value))
        << "reg " << reg;
  }
  EXPECT_EQ(a.replica.num_registers(), held.size());

  b.disk.drop_volatile();
  core::Replica revived;
  DurableStore fresh(b.disk, DurableStore::Options{4});
  fresh.attach(revived);
  fresh.recover();
  EXPECT_EQ(revived.encode_store(), a.replica.encode_store());
  EXPECT_EQ(a.store.counters().recoveries, 1u);
  EXPECT_EQ(a.store.counters().recoveries, fresh.counters().recoveries);
  EXPECT_EQ(a.store.counters().snapshot_loads, 1u);
  EXPECT_EQ(a.store.counters().snapshot_loads, fresh.counters().snapshot_loads);
  EXPECT_EQ(a.store.counters().replayed_records, 2u);  // ts 5 + gossip
  EXPECT_EQ(a.store.counters().replayed_records,
            fresh.counters().replayed_records);

  // Both stores go on from the same state: a later checkpoint merges the
  // same log into the same base on each side.
  write(a.replica, 1, 6, 60);
  write(revived, 1, 6, 60);
  a.store.checkpoint();
  fresh.checkpoint();
  EXPECT_EQ(a.disk.durable_snapshot(), b.disk.durable_snapshot());
  EXPECT_EQ(a.disk.durable_snapshot(), a.replica.encode_store().bytes());
}

TEST(DurableStoreTest, MergedCheckpointMatchesEncodeStoreByteForByte) {
  // Every checkpoint after the first folds the log into the installed
  // image instead of re-encoding the store.  Cover new keys before, between
  // and after the base's, a key logged twice, an empty value and a ts-0
  // entry from the preloaded base.
  core::Replica replica;
  replica.preload(10, val(1));
  replica.preload(20, core::Value{});
  MemDisk disk(0, nullptr, util::Rng(1));
  DurableStore store(disk, DurableStore::Options{0});
  store.attach(replica);
  store.checkpoint();
  write(replica, 15, 1, 150);
  write(replica, 5, 1, 50);
  replica.handle(net::Message::write_req(30, 2, 2, core::Value{}));
  write(replica, 15, 3, 151);
  write(replica, 20, 4, 200);
  store.checkpoint();
  EXPECT_EQ(disk.durable_snapshot(), replica.encode_store().bytes());
  store.checkpoint();  // an empty log re-installs the same image
  EXPECT_EQ(disk.durable_snapshot(), replica.encode_store().bytes());
  EXPECT_EQ(store.counters().checkpoints, 3u);
}

/// The recovery oracle's rule (tools/explore/runner.cpp): snapshot entries,
/// then the CRC-checked WAL prefix, folded by ts-max with >=.
using Fold = std::map<core::RegisterId, std::pair<core::Timestamp, util::Bytes>>;

Fold fold_durable(const util::Bytes& snapshot, const util::Bytes& log) {
  Fold out;
  if (!snapshot.empty()) {
    for (const core::Replica::StoreEntry& e :
         core::Replica::decode_store(snapshot)) {
      out[e.reg] = {e.ts, e.value.bytes()};
    }
  }
  for (const wal::Record& r : wal::replay_log(log).records) {
    auto it = out.find(r.reg);
    if (it == out.end() || r.ts >= it->second.first) {
      out[r.reg] = {r.ts, r.value.bytes()};
    }
  }
  return out;
}

Fold contents(const core::Replica& replica) {
  Fold out;
  for (const core::Replica::StoreEntry& e :
       core::Replica::decode_store(replica.encode_store())) {
    out[e.reg] = {e.ts, e.value.bytes()};
  }
  return out;
}

/// Sits between the replica and its store, as bench tracing does, and
/// checks the installed snapshot right after every checkpoint the store
/// takes inside on_apply (a gossip merge may apply more entries after it).
class CheckpointCheck final : public core::Replica::StoreListener {
 public:
  CheckpointCheck(core::Replica& replica, MemDisk& disk)
      : replica_(replica), disk_(disk) {}

  void bind(DurableStore& store) {
    store_ = &store;
    store.attach(replica_);
    replica_.bind_storage(this);
  }

  void on_apply(core::RegisterId reg, core::Timestamp ts,
                const core::Value& value) override {
    const std::uint64_t before = store_->counters().checkpoints;
    store_->on_apply(reg, ts, value);
    if (store_->counters().checkpoints != before) check();
  }

  void check() {
    ++checked;
    ASSERT_EQ(disk_.durable_snapshot(), replica_.encode_store().bytes());
  }

  std::size_t checked = 0;

 private:
  core::Replica& replica_;
  MemDisk& disk_;
  DurableStore* store_ = nullptr;
};

TEST(DurableStoreTest, RandomHistoriesMergeAndRecoverLikeAFullReplay) {
  // Seeded histories of fresh, stale and empty-valued writes, gossip
  // merges, fsync-loss windows, torn writes, restarts and crashes, at every
  // snapshot_every in {0, 1..8}.  Every checkpoint must install exactly
  // encode_store's bytes, and every recovery must leave the replica equal
  // to an independent fold of the durable images the crash left — and, when
  // the last sync was honest and the base durable, equal to what it held.
  constexpr core::RegisterId kKeys = 6;
  std::size_t checkpoints = 0;
  std::size_t intact_recoveries = 0;
  std::size_t lossy_recoveries = 0;
  for (std::uint64_t seed = 1; seed <= 2000; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed);
    net::FaultInjector faults(1);
    MemDisk disk(0, &faults, util::Rng(seed + 1));
    core::Replica replica;
    replica.set_default_initial(val(-1));
    for (core::RegisterId reg = 0; reg < kKeys; ++reg) {
      if (rng.bernoulli(0.2)) replica.preload(reg, val(reg));
    }
    const DurableStore::Options options{
        static_cast<std::size_t>(rng.below(9))};
    std::optional<DurableStore> store(std::in_place, disk, options);
    CheckpointCheck check(replica, disk);
    check.bind(*store);
    // Whether the durable images hold the pre-attach store (preloads), and
    // whether they hold every record since: then a crash loses nothing.
    bool base_durable = false;
    bool synced = true;
    if (rng.bernoulli(0.7)) {
      store->checkpoint();
      check.check();
      base_durable = true;
    }

    core::Timestamp top = 1;
    auto random_value = [&rng]() {
      return rng.bernoulli(0.2) ? core::Value{}
                                : val(rng.uniform_int(1, 1000000));
    };
    auto random_ts = [&rng, &top]() {
      const core::Timestamp ts = rng.below(top + 2);
      top = std::max(top, ts);
      return ts;
    };
    const std::uint64_t steps = 20 + rng.below(60);
    for (std::uint64_t step = 0; step < steps; ++step) {
      const MemDisk::Counters before = disk.counters();
      const std::size_t checked_before = check.checked;
      const std::uint64_t pick = rng.below(100);
      if (pick < 50) {
        const auto reg = static_cast<core::RegisterId>(rng.below(kKeys));
        replica.handle(net::Message::write_req(reg, step, random_ts(),
                                               random_value()));
      } else if (pick < 60) {
        core::Replica source;
        for (core::RegisterId reg = 0; reg < kKeys; ++reg) {
          if (!rng.bernoulli(0.5)) continue;
          const core::Timestamp ts = random_ts();
          if (ts == 0) {
            source.preload(reg, random_value());
          } else {
            source.handle(
                net::Message::write_req(reg, step, ts, random_value()));
          }
        }
        replica.merge_store(source.encode_store());
      } else if (pick < 68) {
        faults.set_fsync_loss(0, rng.bernoulli(0.5));
      } else if (pick < 73) {
        faults.arm_torn_write(0);
      } else if (pick < 78) {
        store->checkpoint();
        check.check();
      } else {
        const Fold held = contents(replica);
        if (pick < 82) {
          // Restart: a new store over the same disk knows nothing of what
          // the replica holds and must replay.
          store.emplace(disk, options);
          check.bind(*store);
        }
        disk.drop_volatile();
        const Fold expected =
            fold_durable(disk.durable_snapshot(), disk.durable_wal());
        store->recover();
        ASSERT_EQ(contents(replica), expected) << "step " << step;
        if (base_durable && synced) {
          ASSERT_EQ(contents(replica), held) << "step " << step;
        }
        ++(expected == held ? intact_recoveries : lossy_recoveries);
        const wal::ReplayResult after = wal::replay_log(disk.durable_wal());
        EXPECT_FALSE(after.torn);
        base_durable = true;
        synced = true;
      }
      const MemDisk::Counters& now = disk.counters();
      if (now.lost_syncs != before.lost_syncs ||
          now.torn_syncs != before.torn_syncs) {
        synced = false;
      } else if (now.syncs != before.syncs || check.checked != checked_before) {
        synced = true;  // an honest sync or a checkpoint
      }
      if (check.checked != checked_before) base_durable = true;
    }
    checkpoints += check.checked;
  }
  // The sweep reaches both recovery paths and many checkpoints.
  EXPECT_GT(checkpoints, 10000u);
  EXPECT_GT(intact_recoveries, 1000u);
  EXPECT_GT(lossy_recoveries, 1000u);
}

}  // namespace
}  // namespace pqra::storage
