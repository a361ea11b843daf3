#include "storage/wal.hpp"

#include <algorithm>
#include <array>
#include <cstring>

namespace pqra::storage::wal {

namespace {

/// CRC-32 lookup table for the reflected IEEE polynomial 0xEDB88320,
/// computed once at static-init time (no dependency beyond <array>).
std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[n] = c;
  }
  return table;
}

const std::array<std::uint32_t, 256>& crc_table() {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  return table;
}

std::uint32_t read_u32(const util::Bytes& in, std::size_t off) {
  std::size_t o = off;
  return util::detail::read_raw<std::uint32_t>(in, o);
}

}  // namespace

std::uint32_t crc32(const std::byte* data, std::size_t size) {
  const auto& table = crc_table();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ static_cast<std::uint32_t>(data[i])) & 0xFFu] ^
          (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void encode_record(util::Bytes& out, core::RegisterId reg, core::Timestamp ts,
                   const core::Value& value) {
  out.clear();
  const auto vlen = static_cast<std::uint32_t>(value.size());
  const auto len = static_cast<std::uint32_t>(kMinPayloadBytes + vlen);
  util::detail::append_raw(out, len);
  util::detail::append_raw(out, std::uint32_t{0});  // crc placeholder
  util::detail::append_raw(out, reg);
  util::detail::append_raw(out, ts);
  util::detail::append_raw(out, vlen);
  out.insert(out.end(), value.begin(), value.end());
  const std::uint32_t crc = crc32(out.data() + kHeaderBytes, len);
  std::memcpy(out.data() + sizeof(std::uint32_t), &crc, sizeof(crc));
}

ReplayResult replay_log(const util::Bytes& log, bool skip_crc_bug) {
  ReplayResult result;
  std::size_t off = 0;
  while (off + kHeaderBytes <= log.size()) {
    const std::uint32_t len = read_u32(log, off);
    // Structural rejections: a length that cannot name a record in the
    // remaining bytes ends the valid prefix.  len < kMinPayloadBytes covers
    // the all-zero headers a torn write fabricates (CRC32("") == 0 would
    // otherwise validate a zero-length record).
    if (len < kMinPayloadBytes || off + kHeaderBytes + len > log.size()) {
      break;
    }
    const std::uint32_t crc = read_u32(log, off + sizeof(std::uint32_t));
    const std::byte* payload = log.data() + off + kHeaderBytes;
    if (crc32(payload, len) != crc && !skip_crc_bug) break;

    Record record;
    std::size_t p = off + kHeaderBytes;
    record.reg = util::detail::read_raw<core::RegisterId>(log, p);
    record.ts = util::detail::read_raw<core::Timestamp>(log, p);
    std::uint32_t vlen = util::detail::read_raw<std::uint32_t>(log, p);
    // With the CRC verified, vlen == len - 16 by construction; the buggy
    // skip-crc path decodes garbage best-effort (clamped, never out of
    // bounds) instead of crashing — the drill wants wrong state surfaced,
    // not an exception.
    vlen = std::min(vlen, static_cast<std::uint32_t>(len - kMinPayloadBytes));
    record.value = util::Bytes(
        log.begin() + static_cast<std::ptrdiff_t>(p),
        log.begin() + static_cast<std::ptrdiff_t>(p + vlen));
    result.records.push_back(std::move(record));
    off += kHeaderBytes + len;
  }
  result.valid_bytes = off;
  result.torn = off < log.size();
  return result;
}

}  // namespace pqra::storage::wal
