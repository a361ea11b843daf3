#include "net/message.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/flight_recorder.hpp"

namespace pqra {
namespace {

/// flight_recorder.cpp renders message types through a local name table so
/// obs stays below net in the layer order.  This is the sync check that
/// table's comment promises: every net::MsgType must render in a flight
/// dump under exactly the name net::msg_type_name gives it.
TEST(MessageTest, FlightRecorderNamesMatchMsgType) {
  for (std::size_t t = 0; t < net::kNumMsgTypes; ++t) {
    obs::FlightRecorder recorder(1);
    obs::FlightRecord rec;
    rec.event = obs::FlightEventKind::kSend;
    rec.msg_type = static_cast<std::uint8_t>(t);
    rec.from = 1;
    rec.to = 2;
    recorder.record(rec);
    std::ostringstream out;
    recorder.dump(out);
    const std::string expected =
        std::string("send ") +
        net::msg_type_name(static_cast<net::MsgType>(t)) + " 1->2";
    EXPECT_NE(out.str().find(expected), std::string::npos)
        << "MsgType " << t << " renders differently in obs: " << out.str();
  }
  // A type beyond the table renders as a placeholder instead of reading
  // out of bounds; this also trips if net grows a type obs does not know.
  obs::FlightRecorder recorder(1);
  obs::FlightRecord rec;
  rec.msg_type = static_cast<std::uint8_t>(net::kNumMsgTypes);
  recorder.record(rec);
  std::ostringstream out;
  recorder.dump(out);
  EXPECT_NE(out.str().find("send ? 0->0"), std::string::npos) << out.str();
}

/// The factory helpers must leave the causal headers untraced; transports
/// and clients copy them opaquely, so a nonzero default would make every
/// message look sampled.
TEST(MessageTest, FactoriesLeaveCausalHeadersUntraced) {
  net::Message msgs[] = {
      net::Message::read_req(1, 2),
      net::Message::read_ack(1, 2, 3, net::Value()),
      net::Message::write_req(1, 2, 3, net::Value()),
      net::Message::write_ack(1, 2, 3),
      net::Message::gossip(net::Value()),
  };
  for (const net::Message& m : msgs) {
    EXPECT_EQ(m.trace, 0u) << net::msg_type_name(m.type);
    EXPECT_EQ(m.span, 0u) << net::msg_type_name(m.type);
  }
  // And they survive a copy byte-for-byte once set.
  net::Message m = net::Message::read_req(1, 2);
  m.trace = 17;
  m.span = 23;
  net::Message copy = m;
  EXPECT_EQ(copy.trace, 17u);
  EXPECT_EQ(copy.span, 23u);
}

}  // namespace
}  // namespace pqra
