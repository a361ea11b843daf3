#include "net/thread_transport.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace pqra::net {
namespace {

FaultCounters counters(ThreadTransport& t) {
  return t.with_faults([](FaultInjector& f) { return f.counters(); });
}

TEST(ThreadTransportTest, SendThenTryRecv) {
  ThreadTransport t(2);
  t.send(0, 1, Message::read_req(5, 9));
  auto env = t.try_recv(1);
  ASSERT_TRUE(env.has_value());
  EXPECT_EQ(env->from, 0u);
  EXPECT_EQ(env->msg.reg, 5u);
  EXPECT_FALSE(t.try_recv(1).has_value());
}

TEST(ThreadTransportTest, FifoPerMailbox) {
  ThreadTransport t(2);
  for (OpId i = 0; i < 10; ++i) t.send(0, 1, Message::read_req(0, i));
  for (OpId i = 0; i < 10; ++i) {
    auto env = t.try_recv(1);
    ASSERT_TRUE(env.has_value());
    EXPECT_EQ(env->msg.op, i);
  }
}

TEST(ThreadTransportTest, BlockingRecvWakesOnSend) {
  ThreadTransport t(2);
  std::atomic<bool> got{false};
  std::thread receiver([&] {
    auto env = t.recv(1);
    got = env.has_value() && env->msg.op == 42;
  });
  t.send(0, 1, Message::read_req(0, 42));
  receiver.join();
  EXPECT_TRUE(got);
}

TEST(ThreadTransportTest, CloseUnblocksReceivers) {
  ThreadTransport t(2);
  std::atomic<bool> returned_empty{false};
  std::thread receiver([&] {
    auto env = t.recv(1);
    returned_empty = !env.has_value();
  });
  t.close();
  receiver.join();
  EXPECT_TRUE(returned_empty);
}

TEST(ThreadTransportTest, RecvDrainsRemainingAfterClose) {
  ThreadTransport t(2);
  t.send(0, 1, Message::read_req(0, 1));
  t.close();
  EXPECT_TRUE(t.recv(1).has_value());
  EXPECT_FALSE(t.recv(1).has_value());
}

TEST(ThreadTransportTest, SendAfterCloseIsDropped) {
  ThreadTransport t(2);
  t.close();
  t.send(0, 1, Message::read_req(0, 1));
  EXPECT_EQ(t.stats().dropped, 1u);
  EXPECT_FALSE(t.try_recv(1).has_value());
}

TEST(ThreadTransportTest, StatsCountTotalsAndPerNode) {
  ThreadTransport t(3);
  t.send(0, 1, Message::read_req(0, 1));
  t.send(0, 2, Message::write_req(0, 2, 1, {}));
  t.send(1, 2, Message::write_ack(0, 2, 1));
  MessageStats stats = t.stats();
  EXPECT_EQ(stats.total, 3u);
  EXPECT_EQ(stats.received_by_node[1], 1u);
  EXPECT_EQ(stats.received_by_node[2], 2u);
}

TEST(ThreadTransportTest, ManyProducersOneConsumer) {
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 500;
  ThreadTransport t(kProducers + 1);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&t, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        t.send(static_cast<NodeId>(p), kProducers,
               Message::read_req(0, static_cast<OpId>(i)));
      }
    });
  }
  int received = 0;
  while (received < kProducers * kPerProducer) {
    if (t.recv(kProducers).has_value()) ++received;
  }
  for (auto& p : producers) p.join();
  EXPECT_EQ(t.stats().total,
            static_cast<std::uint64_t>(kProducers) * kPerProducer);
}

TEST(ThreadTransportTest, RejectsOutOfRangeNodes) {
  ThreadTransport t(2);
  EXPECT_THROW(t.send(0, 5, Message::read_req(0, 1)), std::logic_error);
  EXPECT_THROW(t.try_recv(5), std::logic_error);
}

TEST(ThreadTransportTest, CrashedNodeLosesTraffic) {
  ThreadTransport t(3);
  t.with_faults([](FaultInjector& faults) { faults.crash(1); });
  t.send(0, 1, Message::read_req(0, 1));  // to the crashed node
  t.send(1, 2, Message::read_req(0, 2));  // from the crashed node
  EXPECT_FALSE(t.try_recv(1).has_value());
  EXPECT_FALSE(t.try_recv(2).has_value());
  EXPECT_EQ(t.stats().dropped, 2u);
  EXPECT_EQ(counters(t).crash_drops, 2u);

  t.with_faults([](FaultInjector& faults) { faults.recover(1); });
  t.send(0, 1, Message::read_req(0, 3));
  auto env = t.try_recv(1);
  ASSERT_TRUE(env.has_value());
  EXPECT_EQ(env->msg.op, 3u);
}

TEST(ThreadTransportTest, PartitionAndHeal) {
  ThreadTransport t(4);
  t.with_faults(
      [](FaultInjector& faults) { faults.partition({{0, 1}, {2, 3}}); });
  t.send(0, 2, Message::read_req(0, 1));
  EXPECT_FALSE(t.try_recv(2).has_value());
  t.send(0, 1, Message::read_req(0, 2));
  EXPECT_TRUE(t.try_recv(1).has_value());
  t.with_faults([](FaultInjector& faults) { faults.heal(); });
  t.send(0, 2, Message::read_req(0, 3));
  EXPECT_TRUE(t.try_recv(2).has_value());
}

TEST(ThreadTransportTest, ExtraDelayHoldsDeliveryBack) {
  ThreadTransport t(2);
  MessageFaults faults;
  faults.extra_delay = 0.05;  // seconds on this runtime
  t.with_faults([&](FaultInjector& f) { f.set_message_faults(faults); });
  t.send(0, 1, Message::read_req(0, 7));
  // Not ready yet; a deadline shorter than the delay must time out.
  EXPECT_FALSE(t.try_recv(1).has_value());
  auto env = t.recv_until(
      1, std::chrono::steady_clock::now() + std::chrono::seconds(5));
  ASSERT_TRUE(env.has_value());
  EXPECT_EQ(env->msg.op, 7u);
  EXPECT_EQ(counters(t).delayed, 1u);
}

TEST(ThreadTransportTest, RecvUntilTimesOutOnAnEmptyMailbox) {
  ThreadTransport t(2);
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
  EXPECT_FALSE(t.recv_until(1, deadline).has_value());
  EXPECT_FALSE(t.closed());  // timeout, not shutdown
}

TEST(ThreadTransportTest, CloseDrainsDelayedMessagesImmediately) {
  ThreadTransport t(2);
  MessageFaults faults;
  faults.extra_delay = 30.0;  // far beyond the test's lifetime
  t.with_faults([&](FaultInjector& f) { f.set_message_faults(faults); });
  t.send(0, 1, Message::read_req(0, 9));
  t.close();
  // Drain ignores pending delays so teardown never waits on them.
  auto env = t.recv(1);
  ASSERT_TRUE(env.has_value());
  EXPECT_EQ(env->msg.op, 9u);
}

TEST(ThreadTransportTest, DuplicateDeliversTwoCopies) {
  ThreadTransport t(2);
  MessageFaults faults;
  faults.duplicate_probability = 1.0;
  t.with_faults([&](FaultInjector& f) { f.set_message_faults(faults); });
  t.send(0, 1, Message::read_req(0, 4));
  auto first = t.try_recv(1);
  auto second = t.try_recv(1);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first->msg.op, 4u);
  EXPECT_EQ(second->msg.op, 4u);
  EXPECT_EQ(counters(t).duplicates, 1u);
}

}  // namespace
}  // namespace pqra::net
