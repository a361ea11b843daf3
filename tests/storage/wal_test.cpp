/// WAL record-format pins (docs/DURABILITY.md): encode/decode round-trips,
/// CRC rejection of payload corruption, and — the truncation-tolerance
/// contract — an exhaustive sweep that cuts the log at EVERY byte offset of
/// the final record and asserts replay recovers exactly the valid prefix
/// with the torn flag set.

#include "storage/wal.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "util/codec.hpp"

namespace pqra::storage::wal {
namespace {

core::Value val(std::int64_t x) { return util::encode(x); }

/// Appends one encoded record to \p log and returns its size in bytes.
std::size_t append(util::Bytes& log, core::RegisterId reg, core::Timestamp ts,
                   const core::Value& value) {
  util::Bytes buf;
  encode_record(buf, reg, ts, value);
  log.insert(log.end(), buf.begin(), buf.end());
  return buf.size();
}

TEST(WalTest, Crc32MatchesTheIeeeCheckValue) {
  // The canonical CRC-32 (IEEE 802.3, reflected) check value: any deviation
  // means logs written by one build would be rejected by another.
  const std::string nine = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const std::byte*>(nine.data()), nine.size()),
            0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(WalTest, EncodeDecodeRoundTripsRecords) {
  util::Bytes log;
  append(log, 0, 1, val(42));
  append(log, 7, 9, core::Value{});  // empty value is legal
  core::Value big(util::Bytes(1000, std::byte{0x5a}));
  append(log, 3, 2, big);

  const ReplayResult r = replay_log(log);
  EXPECT_FALSE(r.torn);
  EXPECT_EQ(r.valid_bytes, log.size());
  ASSERT_EQ(r.records.size(), 3u);
  EXPECT_EQ(r.records[0].reg, 0u);
  EXPECT_EQ(r.records[0].ts, 1u);
  EXPECT_EQ(util::decode<std::int64_t>(r.records[0].value), 42);
  EXPECT_EQ(r.records[1].reg, 7u);
  EXPECT_EQ(r.records[1].ts, 9u);
  EXPECT_TRUE(r.records[1].value.empty());
  EXPECT_EQ(r.records[2].value, big);
}

TEST(WalTest, EncodedRecordMatchesTheDocumentedLayoutByteForByte) {
  // A round trip cannot catch a field written at the wrong offset in both
  // directions; this pins the little-endian layout of wal.hpp against
  // bytes worked out independently (CRC-32 of the 24-byte payload).
  util::Bytes record;
  encode_record(record, 7, 9, val(42));
  const unsigned char expected[] = {
      0x18, 0x00, 0x00, 0x00,                          // len = 16 + 8
      0xc3, 0x18, 0xdf, 0x04,                          // crc = 0x04df18c3
      0x07, 0x00, 0x00, 0x00,                          // reg
      0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // ts
      0x08, 0x00, 0x00, 0x00,                          // vlen
      0x2a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // int64 42
  };
  ASSERT_EQ(record.size(), sizeof(expected));
  for (std::size_t i = 0; i < sizeof(expected); ++i) {
    EXPECT_EQ(std::to_integer<unsigned>(record[i]), expected[i]) << "byte " << i;
  }
}

TEST(WalTest, EmptyLogReplaysToNothing) {
  const ReplayResult r = replay_log(util::Bytes{});
  EXPECT_TRUE(r.records.empty());
  EXPECT_EQ(r.valid_bytes, 0u);
  EXPECT_FALSE(r.torn);
}

TEST(WalTest, PayloadCorruptionIsRejectedByCrc) {
  util::Bytes log;
  const std::size_t first = append(log, 0, 1, val(10));
  append(log, 0, 2, val(20));

  // Flip one payload byte of the SECOND record: replay keeps record one,
  // stops at the mismatch, and never surfaces the corrupt payload.
  util::Bytes corrupt = log;
  corrupt[first + kHeaderBytes + 3] ^= std::byte{0xff};
  const ReplayResult r = replay_log(corrupt);
  EXPECT_TRUE(r.torn);
  EXPECT_EQ(r.valid_bytes, first);
  ASSERT_EQ(r.records.size(), 1u);
  EXPECT_EQ(util::decode<std::int64_t>(r.records[0].value), 10);
}

TEST(WalTest, ZeroFilledTailIsRejectedNotDecoded) {
  // A torn sector write can fabricate an all-zero "header": len 0 is below
  // kMinPayloadBytes, so replay must stop rather than loop or decode it.
  util::Bytes log;
  const std::size_t first = append(log, 2, 5, val(1));
  log.insert(log.end(), 24, std::byte{0});

  const ReplayResult r = replay_log(log);
  EXPECT_TRUE(r.torn);
  EXPECT_EQ(r.valid_bytes, first);
  ASSERT_EQ(r.records.size(), 1u);
}

// The tentpole contract: cut the log at EVERY byte offset inside the final
// record.  Whatever the cut, replay returns exactly the records before it,
// valid_bytes lands on the preceding record boundary, and the torn flag is
// raised iff any partial bytes were discarded.  No offset may surface a
// partially-written record.
TEST(WalTest, TruncationAtEveryByteOffsetOfFinalRecordRecoversValidPrefix) {
  util::Bytes log;
  std::size_t prefix = 0;
  prefix += append(log, 0, 1, val(11));
  prefix += append(log, 1, 2, val(22));
  const core::Value last_value = util::encode<std::int64_t>(33);
  append(log, 2, 3, last_value);

  for (std::size_t cut = prefix; cut <= log.size(); ++cut) {
    util::Bytes torn_log(log.begin(),
                         log.begin() + static_cast<std::ptrdiff_t>(cut));
    const ReplayResult r = replay_log(torn_log);
    if (cut == log.size()) {
      // Nothing missing: the full final record replays.
      EXPECT_FALSE(r.torn);
      ASSERT_EQ(r.records.size(), 3u);
      EXPECT_EQ(r.valid_bytes, log.size());
      EXPECT_EQ(r.records[2].value, last_value);
    } else if (cut == prefix) {
      // Clean boundary: the final record is absent in full, nothing torn.
      EXPECT_FALSE(r.torn);
      ASSERT_EQ(r.records.size(), 2u);
      EXPECT_EQ(r.valid_bytes, prefix);
    } else {
      // Any strictly partial tail is discarded in full.
      EXPECT_TRUE(r.torn) << "cut at byte " << cut;
      EXPECT_EQ(r.valid_bytes, prefix) << "cut at byte " << cut;
      ASSERT_EQ(r.records.size(), 2u) << "cut at byte " << cut;
      EXPECT_EQ(util::decode<std::int64_t>(r.records[1].value), 22);
    }
  }
}

// Same sweep with the tail zeroed in place (MemDisk's torn-write model)
// instead of removed: the length-prefixed bytes are still there, but the
// CRC no longer matches, so replay must stop at the same boundary.
TEST(WalTest, ZeroedSuffixOfFinalRecordIsDiscardedAtEveryLength) {
  util::Bytes log;
  std::size_t prefix = 0;
  prefix += append(log, 0, 1, val(7));
  const std::size_t final_bytes = append(log, 1, 2, val(0x1122334455667788));

  for (std::size_t tear = 1; tear <= final_bytes; ++tear) {
    util::Bytes torn_log = log;
    std::fill(torn_log.end() - static_cast<std::ptrdiff_t>(tear),
              torn_log.end(), std::byte{0});
    const ReplayResult r = replay_log(torn_log);
    EXPECT_TRUE(r.torn) << "tear of " << tear << " bytes";
    EXPECT_EQ(r.valid_bytes, prefix) << "tear of " << tear << " bytes";
    ASSERT_EQ(r.records.size(), 1u) << "tear of " << tear << " bytes";
    EXPECT_EQ(util::decode<std::int64_t>(r.records[0].value), 7);
  }
}

TEST(WalTest, ImpossibleLengthHeaderStopsReplay) {
  util::Bytes log;
  const std::size_t first = append(log, 0, 1, val(4));
  // A header claiming more payload than the log holds: structurally torn.
  const std::uint32_t len = 1u << 20;
  const std::uint32_t crc = 0;
  const std::size_t off = log.size();
  log.resize(off + kHeaderBytes);
  std::memcpy(log.data() + off, &len, sizeof len);
  std::memcpy(log.data() + off + sizeof len, &crc, sizeof crc);

  const ReplayResult r = replay_log(log);
  EXPECT_TRUE(r.torn);
  EXPECT_EQ(r.valid_bytes, first);
  EXPECT_EQ(r.records.size(), 1u);
}

// The planted-bug hook (docs/EXPLORATION.md): with skip_crc_bug set, a CRC
// mismatch does NOT stop replay — the corrupt payload is surfaced.  This is
// the defect the crash-replay-compare drill must catch, and the unit test
// pins that the hook actually disables the check (a drill against a
// secretly-correct implementation would prove nothing).
TEST(WalTest, SkipCrcBugSurfacesCorruptRecords) {
  util::Bytes log;
  append(log, 0, 3, val(10));
  append(log, 1, 4, val(20));

  util::Bytes corrupt = log;
  corrupt[kHeaderBytes + 2] ^= std::byte{0x40};  // first record's payload

  const ReplayResult honest = replay_log(corrupt);
  EXPECT_TRUE(honest.torn);
  EXPECT_TRUE(honest.records.empty());

  const ReplayResult buggy = replay_log(corrupt, /*skip_crc_bug=*/true);
  EXPECT_FALSE(buggy.torn);
  ASSERT_EQ(buggy.records.size(), 2u);
  EXPECT_EQ(buggy.valid_bytes, corrupt.size());
  // The corrupt first record decodes to something, the intact second record
  // decodes correctly — the bug propagates garbage while looking healthy.
  EXPECT_EQ(util::decode<std::int64_t>(buggy.records[1].value), 20);
}

}  // namespace
}  // namespace pqra::storage::wal
