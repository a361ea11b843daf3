#include "core/replica.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"
#include "util/codec.hpp"

namespace pqra::core {

net::Message Replica::handle(const net::Message& request) {
  switch (request.type) {
    case net::MsgType::kReadReq: {
      const TimestampedValue* entry = store_.find(request.reg);
      if (cross_key_probe_bug_) {
        // Seeded bug drill (set_test_cross_key_probe_bug): leak the
        // neighbouring key's entry when it is newer.
        const TimestampedValue* wrong = store_.find(request.reg ^ 1u);
        if (wrong != nullptr && (entry == nullptr || wrong->ts > entry->ts)) {
          entry = wrong;
        }
      }
      if (entry == nullptr) {
        return net::Message::read_ack(request.reg, request.op, 0,
                                      default_initial_);
      }
      return net::Message::read_ack(request.reg, request.op, entry->ts,
                                    entry->value);
    }
    case net::MsgType::kWriteReq: {
      TimestampedValue& slot = store_.entry(request.reg);
      if (request.ts > slot.ts) {
        slot.ts = request.ts;
        slot.value = request.value;
        ++writes_applied_;
        if (storage_ != nullptr) {
          storage_->on_apply(request.reg, slot.ts, slot.value);
        }
      }
      return net::Message::write_ack(request.reg, request.op, request.ts);
    }
    case net::MsgType::kReadAck:
    case net::MsgType::kWriteAck:
    case net::MsgType::kGossip:  // anti-entropy is driven via merge_store()
      break;
  }
  PQRA_CHECK(false, "replica received a non-request message");
}

void Replica::preload(RegisterId reg, Value value) {
  TimestampedValue& slot = store_.entry(reg);
  PQRA_REQUIRE(slot.ts == 0, "preload must happen before any write");
  slot.ts = 0;
  slot.value = std::move(value);
}

const TimestampedValue* Replica::get(RegisterId reg) const {
  return store_.find(reg);
}

Value Replica::encode_store() const {
  // Gossip payload bytes feed transport metrics and replay comparisons, so
  // the encoding must not depend on the table's insertion history: snapshot
  // the entries and emit them sorted by key id.
  std::vector<std::pair<RegisterId, const TimestampedValue*>> entries;
  entries.reserve(store_.size());
  store_.for_each([&entries](RegisterId reg, const TimestampedValue& tv) {
    entries.emplace_back(reg, &tv);
  });
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  util::Bytes out;
  util::detail::append_raw(out, static_cast<std::uint64_t>(store_.size()));
  for (const auto& [reg, tv] : entries) {
    util::detail::append_raw(out, reg);
    util::detail::append_raw(out, tv->ts);
    util::detail::append_raw(out,
                             static_cast<std::uint64_t>(tv->value.size()));
    out.insert(out.end(), tv->value.begin(), tv->value.end());
  }
  return out;
}

std::size_t Replica::merge_store(const Value& encoded) {
  std::size_t advanced = 0;
  for (StoreEntry& entry : decode_store(encoded)) {
    TimestampedValue& slot = store_.entry(entry.reg);
    if (entry.ts > slot.ts) {
      slot.ts = entry.ts;
      slot.value = std::move(entry.value);
      ++advanced;
      if (storage_ != nullptr) {
        storage_->on_apply(entry.reg, slot.ts, slot.value);
      }
    }
  }
  return advanced;
}

void Replica::reset_store() { store_.clear(); }

void Replica::restore_entry(RegisterId reg, Timestamp ts, Value value) {
  TimestampedValue& slot = store_.entry(reg);
  // ts-max with >= : a snapshot entry and a WAL record for the same (reg,
  // ts) are the same apply, and replay order must not matter.
  if (ts >= slot.ts) {
    slot.ts = ts;
    slot.value = std::move(value);
  }
}

std::vector<Replica::StoreEntry> Replica::decode_store(const Value& encoded) {
  // Every entry takes at least its (reg, ts, length) header, so a count the
  // remaining bytes cannot hold is rejected before it sizes anything.
  constexpr std::size_t kMinEntry =
      sizeof(RegisterId) + sizeof(Timestamp) + sizeof(std::uint64_t);
  std::size_t off = 0;
  const auto count = util::detail::read_raw<std::uint64_t>(encoded, off);
  PQRA_CHECK(count <= (encoded.size() - off) / kMinEntry,
             "store: entry count exceeds the payload");
  std::vector<StoreEntry> entries;
  entries.reserve(count);
  for (std::uint64_t e = 0; e < count; ++e) {
    StoreEntry entry;
    entry.reg = util::detail::read_raw<RegisterId>(encoded, off);
    entry.ts = util::detail::read_raw<Timestamp>(encoded, off);
    const auto len = util::detail::read_raw<std::uint64_t>(encoded, off);
    // Compared with what is left, so a huge length cannot wrap off + len.
    PQRA_CHECK(len <= encoded.size() - off, "store: truncated payload");
    entry.value = util::Bytes(
        encoded.begin() + static_cast<std::ptrdiff_t>(off),
        encoded.begin() + static_cast<std::ptrdiff_t>(off + len));
    off += len;
    entries.push_back(std::move(entry));
  }
  PQRA_CHECK(off == encoded.size(), "store: trailing bytes");
  return entries;
}

}  // namespace pqra::core
