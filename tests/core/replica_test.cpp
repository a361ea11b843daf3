#include "core/replica.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "util/codec.hpp"

namespace pqra::core {
namespace {

Value val(std::int64_t x) { return util::encode(x); }

TEST(ReplicaTest, ReadOfUnknownRegisterReturnsTimestampZero) {
  Replica r;
  net::Message ack = r.handle(net::Message::read_req(3, 1));
  EXPECT_EQ(ack.type, net::MsgType::kReadAck);
  EXPECT_EQ(ack.reg, 3u);
  EXPECT_EQ(ack.op, 1u);
  EXPECT_EQ(ack.ts, 0u);
  EXPECT_TRUE(ack.value.empty());
}

TEST(ReplicaTest, WriteThenReadReturnsValue) {
  Replica r;
  net::Message wack = r.handle(net::Message::write_req(0, 1, 1, val(42)));
  EXPECT_EQ(wack.type, net::MsgType::kWriteAck);
  EXPECT_EQ(wack.ts, 1u);
  net::Message rack = r.handle(net::Message::read_req(0, 2));
  EXPECT_EQ(rack.ts, 1u);
  EXPECT_EQ(util::decode<std::int64_t>(rack.value), 42);
}

TEST(ReplicaTest, StaleWriteIsAckedButIgnored) {
  Replica r;
  r.handle(net::Message::write_req(0, 1, 5, val(5)));
  net::Message ack = r.handle(net::Message::write_req(0, 2, 3, val(3)));
  EXPECT_EQ(ack.type, net::MsgType::kWriteAck);  // still acknowledged
  EXPECT_EQ(r.get(0)->ts, 5u);
  EXPECT_EQ(util::decode<std::int64_t>(r.get(0)->value), 5);
  EXPECT_EQ(r.writes_applied(), 1u);
}

TEST(ReplicaTest, EqualTimestampWriteIgnored) {
  Replica r;
  r.handle(net::Message::write_req(0, 1, 2, val(1)));
  r.handle(net::Message::write_req(0, 2, 2, val(99)));
  EXPECT_EQ(util::decode<std::int64_t>(r.get(0)->value), 1);
}

TEST(ReplicaTest, RegistersAreIndependent) {
  Replica r;
  r.handle(net::Message::write_req(0, 1, 1, val(10)));
  r.handle(net::Message::write_req(1, 2, 7, val(20)));
  EXPECT_EQ(r.get(0)->ts, 1u);
  EXPECT_EQ(r.get(1)->ts, 7u);
  EXPECT_EQ(r.num_registers(), 2u);
}

TEST(ReplicaTest, PreloadInstallsTimestampZero) {
  Replica r;
  r.preload(4, val(8));
  EXPECT_EQ(r.get(4)->ts, 0u);
  net::Message ack = r.handle(net::Message::read_req(4, 1));
  EXPECT_EQ(util::decode<std::int64_t>(ack.value), 8);
  // Any real write supersedes the preload.
  r.handle(net::Message::write_req(4, 2, 1, val(9)));
  EXPECT_EQ(r.get(4)->ts, 1u);
}

TEST(ReplicaTest, PreloadAfterWriteIsRejected) {
  Replica r;
  r.handle(net::Message::write_req(0, 1, 1, val(1)));
  EXPECT_THROW(r.preload(0, val(2)), std::logic_error);
}

// decode_store reads gossip payloads, snapshots (DurableStore::recover,
// FileBackend files included) and pqra_explore's recovery oracle.  Every
// truncation and every single-byte substitution of a real encode_store
// output must decode or throw the codec's own std::logic_error — never
// bad_alloc from a count the bytes cannot hold, nor libstdc++'s
// length_error from a length that wraps off + len.
TEST(ReplicaTest, DecodeStoreRejectsEveryTruncationAndSubstitution) {
  Replica r;
  r.restore_entry(2, 7, Value{});
  r.restore_entry(5, 9, val(-1));
  r.restore_entry(11, 3, util::encode(std::string("thirteen byte")));
  const util::Bytes good = r.encode_store().bytes();
  ASSERT_EQ(Replica::decode_store(good).size(), 3u);

  std::size_t decoded = 0;
  std::size_t rejected = 0;
  const auto attempt = [&](const util::Bytes& bytes) {
    try {
      decoded += Replica::decode_store(bytes).size() > 0 ? 1 : 0;
    } catch (const std::logic_error& e) {
      // std::length_error is a logic_error too; only the codec's check
      // names itself.
      ++rejected;
      ASSERT_NE(std::string(e.what()).find("PQRA_CHECK failed"),
                std::string::npos)
          << e.what();
    }
  };
  for (std::size_t n = 0; n < good.size(); ++n) {
    attempt(util::Bytes(good.begin(),
                        good.begin() + static_cast<std::ptrdiff_t>(n)));
  }
  for (std::size_t i = 0; i < good.size(); ++i) {
    for (int b = 0; b < 256; ++b) {
      util::Bytes mutated = good;
      mutated[i] = static_cast<std::byte>(b);
      attempt(mutated);
    }
  }
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(rejected, good.size());

  // The two shapes that escaped the checks before they were bounded.
  const auto raw = [](std::uint64_t count, std::uint64_t len) {
    util::Bytes out;
    util::detail::append_raw(out, count);
    if (len != 0) {
      util::detail::append_raw(out, RegisterId{1});
      util::detail::append_raw(out, Timestamp{1});
      util::detail::append_raw(out, len);
    }
    return out;
  };
  attempt(raw(std::uint64_t{1} << 40, 0));  // count 2^40, 8 bytes
  attempt(raw(1, ~std::uint64_t{0} - 10));  // off + len wraps
  EXPECT_THROW(Replica::decode_store(raw(std::uint64_t{1} << 40, 0)),
               std::logic_error);
  EXPECT_THROW(Replica::decode_store(raw(1, ~std::uint64_t{0} - 10)),
               std::logic_error);
}

TEST(ReplicaTest, RejectsAckMessages) {
  Replica r;
  EXPECT_THROW(r.handle(net::Message::read_ack(0, 1, 0, {})),
               std::logic_error);
  EXPECT_THROW(r.handle(net::Message::write_ack(0, 1, 0)), std::logic_error);
}

}  // namespace
}  // namespace pqra::core
