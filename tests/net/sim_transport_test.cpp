#include "net/sim_transport.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace pqra::net {
namespace {

/// Records everything delivered to it.
class Recorder final : public Receiver {
 public:
  void on_message(NodeId from, Message msg) override {
    senders.push_back(from);
    messages.push_back(std::move(msg));
  }

  std::vector<NodeId> senders;
  std::vector<Message> messages;
};

class SimTransportTest : public ::testing::Test {
 protected:
  SimTransportTest()
      : delay_(sim::make_constant_delay(1.0)),
        transport_(sim_, *delay_, util::Rng(1), 4) {
    for (NodeId i = 0; i < 4; ++i) {
      transport_.register_receiver(i, &recorders_[i]);
    }
  }

  sim::Simulator sim_;
  std::unique_ptr<sim::DelayModel> delay_;
  SimTransport transport_;
  Recorder recorders_[4];
};

TEST_F(SimTransportTest, DeliversWithModelDelay) {
  transport_.send(0, 1, Message::read_req(7, 99));
  EXPECT_TRUE(recorders_[1].messages.empty());
  sim_.run();
  ASSERT_EQ(recorders_[1].messages.size(), 1u);
  EXPECT_EQ(recorders_[1].senders[0], 0u);
  EXPECT_EQ(recorders_[1].messages[0].reg, 7u);
  EXPECT_EQ(recorders_[1].messages[0].op, 99u);
  EXPECT_DOUBLE_EQ(sim_.now(), 1.0);
}

TEST_F(SimTransportTest, CountsByType) {
  transport_.send(0, 1, Message::read_req(0, 1));
  transport_.send(1, 0, Message::read_ack(0, 1, 3, {}));
  transport_.send(0, 2, Message::write_req(0, 2, 4, {}));
  transport_.send(2, 0, Message::write_ack(0, 2, 4));
  sim_.run();
  MessageStats stats = transport_.stats();
  EXPECT_EQ(stats.total, 4u);
  for (MsgType t : {MsgType::kReadReq, MsgType::kReadAck, MsgType::kWriteReq,
                    MsgType::kWriteAck}) {
    EXPECT_EQ(stats.by_type[static_cast<std::size_t>(t)], 1u);
  }
  EXPECT_EQ(stats.by_type[static_cast<std::size_t>(MsgType::kGossip)], 0u);
  EXPECT_EQ(stats.received_by_node[0], 2u);
  EXPECT_EQ(stats.received_by_node[1], 1u);
  EXPECT_EQ(stats.received_by_node[2], 1u);
  EXPECT_EQ(stats.dropped, 0u);
}

TEST_F(SimTransportTest, StatsMinusAttributesPhases) {
  transport_.send(0, 1, Message::read_req(0, 1));
  sim_.run();
  MessageStats before = transport_.stats();
  transport_.send(0, 2, Message::read_req(0, 2));
  transport_.send(0, 3, Message::read_req(0, 3));
  sim_.run();
  MessageStats delta = transport_.stats().minus(before);
  EXPECT_EQ(delta.total, 2u);
  EXPECT_EQ(delta.received_by_node[1], 0u);
  EXPECT_EQ(delta.received_by_node[2], 1u);
}

/// Point-to-point deliveries (every server reply) carry a whole Message in
/// their closure; it must stay inside the event, not take an arena block.
TEST_F(SimTransportTest, PointToPointDeliveriesStayInline) {
  const std::uint64_t inline_before = sim_.alloc_stats().inline_events;
  transport_.send(0, 1, Message::read_req(7, 1));
  transport_.send(1, 0, Message::read_ack(7, 1, 3, Value(util::Bytes(3))));
  transport_.send(2, 3, Message::write_req(7, 2, 4, Value(util::Bytes(1))));
  transport_.send(3, 2, Message::write_ack(7, 2, 4));
  sim_.run();
  EXPECT_EQ(transport_.stats().total, 4u);
  EXPECT_EQ(recorders_[0].messages.size() + recorders_[1].messages.size() +
                recorders_[2].messages.size() + recorders_[3].messages.size(),
            4u);
  EXPECT_EQ(sim_.alloc_stats().inline_events - inline_before, 4u);
  EXPECT_EQ(sim_.alloc_stats().arena_events, 0u);
  EXPECT_EQ(sim_.alloc_stats().heap_allocations(), 0u);
}

TEST_F(SimTransportTest, CrashedDestinationDropsMessages) {
  transport_.faults().crash(1);
  transport_.send(0, 1, Message::read_req(0, 1));
  sim_.run();
  EXPECT_TRUE(recorders_[1].messages.empty());
  EXPECT_EQ(transport_.stats().dropped, 1u);
  EXPECT_EQ(transport_.stats().total, 1u);  // sends still counted
}

TEST_F(SimTransportTest, CrashedSourceDropsMessages) {
  transport_.faults().crash(0);
  transport_.send(0, 1, Message::read_req(0, 1));
  sim_.run();
  EXPECT_TRUE(recorders_[1].messages.empty());
  EXPECT_EQ(transport_.stats().dropped, 1u);
}

TEST_F(SimTransportTest, CrashInFlightDropsMessage) {
  transport_.send(0, 1, Message::read_req(0, 1));
  transport_.faults().crash(1);  // after send, before delivery
  sim_.run();
  EXPECT_TRUE(recorders_[1].messages.empty());
  EXPECT_EQ(transport_.stats().dropped, 1u);
}

TEST_F(SimTransportTest, RecoverRestoresDelivery) {
  transport_.faults().crash(1);
  transport_.faults().recover(1);
  transport_.send(0, 1, Message::read_req(0, 1));
  sim_.run();
  EXPECT_EQ(recorders_[1].messages.size(), 1u);
}

TEST_F(SimTransportTest, DropProbabilityLosesRoughlyThatFraction) {
  transport_.faults().set_message_faults({.drop_probability = 0.25});
  for (int i = 0; i < 4000; ++i) {
    transport_.send(0, 1, Message::read_req(0, static_cast<OpId>(i)));
  }
  sim_.run();
  double lost = static_cast<double>(transport_.stats().dropped) / 4000.0;
  EXPECT_NEAR(lost, 0.25, 0.03);
}

TEST_F(SimTransportTest, RejectsUnknownNodes) {
  EXPECT_THROW(transport_.send(0, 99, Message::read_req(0, 1)),
               std::logic_error);
  EXPECT_THROW(transport_.faults().crash(99), std::logic_error);
}

TEST_F(SimTransportTest, RejectsDoubleRegistration) {
  Recorder extra;
  EXPECT_THROW(transport_.register_receiver(0, &extra), std::logic_error);
}

TEST(SimTransportOrderTest, ExponentialDelaysReorderMessages) {
  sim::Simulator sim;
  auto delay = sim::make_exponential_delay(1.0);
  SimTransport transport(sim, *delay, util::Rng(3), 2);
  Recorder rx;
  Recorder tx;
  transport.register_receiver(0, &tx);
  transport.register_receiver(1, &rx);
  for (OpId i = 0; i < 50; ++i) {
    transport.send(0, 1, Message::read_req(0, i));
  }
  sim.run();
  ASSERT_EQ(rx.messages.size(), 50u);
  bool reordered = false;
  for (std::size_t i = 1; i < rx.messages.size(); ++i) {
    if (rx.messages[i].op < rx.messages[i - 1].op) reordered = true;
  }
  EXPECT_TRUE(reordered) << "exponential delays should reorder messages";
}

TEST(MessageTest, FactoriesAndDescribe) {
  Message m = Message::read_ack(3, 17, 5, Value(util::Bytes(4)));
  EXPECT_EQ(m.type, MsgType::kReadAck);
  EXPECT_EQ(m.describe(), "ReadAck{reg=3 op=17 ts=5 |v|=4}");
  EXPECT_STREQ(msg_type_name(MsgType::kWriteReq), "WriteReq");
}

}  // namespace
}  // namespace pqra::net
