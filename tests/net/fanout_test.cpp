/// \file fanout_test.cpp
/// Batched fan-out (SimTransport::send_fanout) against the reference send()
/// loop: with identical seeds the two must execute byte-identical event
/// schedules — same simulator fingerprint, same delivery order, same stats,
/// same flight records — under clean networks, drops, duplicates and
/// crash-in-flight.  This is the transport half of the "batching is
/// invisible" acceptance bar.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/sim_transport.hpp"
#include "obs/flight_recorder.hpp"
#include "util/rng.hpp"

namespace pqra::net {
namespace {

/// Records everything delivered to it, with arrival times.
class Recorder final : public Receiver {
 public:
  explicit Recorder(sim::Simulator& sim) : sim_(&sim) {}

  void on_message(NodeId from, Message msg) override {
    senders.push_back(from);
    times.push_back(sim_->now());
    messages.push_back(std::move(msg));
  }

  sim::Simulator* sim_;
  std::vector<NodeId> senders;
  std::vector<sim::Time> times;
  std::vector<Message> messages;
};

constexpr NodeId kNodes = 12;

/// One independent simulated world; two of these with the same seed are the
/// loop-vs-batch comparison harness.
struct World {
  explicit World(std::uint64_t seed,
                 std::unique_ptr<sim::DelayModel> model = nullptr)
      : delay(model != nullptr ? std::move(model)
                               : sim::make_exponential_delay(1.0)),
        transport(sim, *delay, util::Rng(seed), kNodes),
        flight(256) {
    recorders.reserve(kNodes);
    for (NodeId i = 0; i < kNodes; ++i) {
      recorders.push_back(std::make_unique<Recorder>(sim));
      transport.register_receiver(i, recorders[i].get());
    }
    transport.bind_flight_recorder(&flight);
  }

  sim::Simulator sim;
  std::unique_ptr<sim::DelayModel> delay;
  SimTransport transport;
  obs::FlightRecorder flight;
  std::vector<std::unique_ptr<Recorder>> recorders;
};

std::vector<FanoutEntry> entries(std::initializer_list<NodeId> targets) {
  std::vector<FanoutEntry> out;
  for (NodeId t : targets) out.push_back(FanoutEntry{t, 0});
  return out;
}

void send_loop(World& w, NodeId from, const std::vector<FanoutEntry>& to,
               const Message& proto) {
  for (const FanoutEntry& e : to) w.transport.send(from, e.to, proto);
}

void expect_worlds_equal(World& a, World& b) {
  // Schedule identity: fingerprint + processed count is the repo's replay
  // equality check.
  EXPECT_EQ(a.sim.fingerprint(), b.sim.fingerprint());
  EXPECT_EQ(a.sim.events_processed(), b.sim.events_processed());
  // Transport accounting.
  MessageStats sa = a.transport.stats();
  MessageStats sb = b.transport.stats();
  EXPECT_EQ(sa.total, sb.total);
  EXPECT_EQ(sa.dropped, sb.dropped);
  EXPECT_EQ(sa.received_by_node, sb.received_by_node);
  for (std::size_t i = 0; i < sa.by_type.size(); ++i) {
    EXPECT_EQ(sa.by_type[i], sb.by_type[i]);
  }
  // Deliveries, in order, with times.
  for (NodeId n = 0; n < kNodes; ++n) {
    ASSERT_EQ(a.recorders[n]->messages.size(), b.recorders[n]->messages.size())
        << "node " << n;
    EXPECT_EQ(a.recorders[n]->senders, b.recorders[n]->senders);
    EXPECT_EQ(a.recorders[n]->times, b.recorders[n]->times);
    for (std::size_t i = 0; i < a.recorders[n]->messages.size(); ++i) {
      EXPECT_EQ(a.recorders[n]->messages[i].reg,
                b.recorders[n]->messages[i].reg);
      EXPECT_EQ(a.recorders[n]->messages[i].op,
                b.recorders[n]->messages[i].op);
    }
  }
  // Flight records: same count and same (time, kind, from, to) sequence.
  ASSERT_EQ(a.flight.recorded(), b.flight.recorded());
  std::vector<obs::FlightRecord> fa = a.flight.snapshot();
  std::vector<obs::FlightRecord> fb = b.flight.snapshot();
  ASSERT_EQ(fa.size(), fb.size());
  for (std::size_t i = 0; i < fa.size(); ++i) {
    EXPECT_EQ(fa[i].time, fb[i].time);
    EXPECT_EQ(fa[i].event, fb[i].event);
    EXPECT_EQ(fa[i].from, fb[i].from);
    EXPECT_EQ(fa[i].to, fb[i].to);
    EXPECT_EQ(fa[i].span, fb[i].span);
  }
}

TEST(FanoutBatching, MatchesSendLoopCleanNetwork) {
  World loop(7);
  World batch(7);
  auto to = entries({1, 2, 3, 4});
  send_loop(loop, 0, to, Message::read_req(5, 11));
  batch.transport.send_fanout(0, to.data(), to.size(),
                              Message::read_req(5, 11));
  loop.sim.run();
  batch.sim.run();
  expect_worlds_equal(loop, batch);
  EXPECT_EQ(batch.transport.stats().total, 4u);
}

TEST(FanoutBatching, MatchesSendLoopUnderDropsAndDuplicates) {
  World loop(42);
  World batch(42);
  MessageFaults faults;
  faults.drop_probability = 0.3;
  faults.duplicate_probability = 0.3;
  loop.transport.faults().set_message_faults(faults);
  batch.transport.faults().set_message_faults(faults);
  auto to = entries({1, 2, 3, 4, 5, 6, 7, 8});
  // Several rounds so drops and duplicates both actually occur.
  for (std::uint64_t op = 0; op < 16; ++op) {
    send_loop(loop, 0, to, Message::read_req(1, op));
    batch.transport.send_fanout(0, to.data(), to.size(),
                                Message::read_req(1, op));
    loop.sim.run();
    batch.sim.run();
  }
  expect_worlds_equal(loop, batch);
  EXPECT_GT(loop.transport.faults().counters().random_drops, 0u);
  EXPECT_GT(loop.transport.faults().counters().duplicates, 0u);
}

TEST(FanoutBatching, CrashInFlightDropsAtFireTime) {
  World loop(3);
  World batch(3);
  auto to = entries({1, 2, 3});
  send_loop(loop, 0, to, Message::read_req(0, 1));
  batch.transport.send_fanout(0, to.data(), to.size(),
                              Message::read_req(0, 1));
  // Crash node 2 before any delivery fires: its entry must drop at fire
  // time in both worlds.
  loop.transport.faults().crash(2);
  batch.transport.faults().crash(2);
  loop.sim.run();
  batch.sim.run();
  expect_worlds_equal(loop, batch);
  EXPECT_EQ(batch.transport.stats().dropped, 1u);
  EXPECT_TRUE(batch.recorders[2]->messages.empty());
  EXPECT_EQ(batch.recorders[1]->messages.size(), 1u);
}

TEST(FanoutBatching, WideFanoutSpansMultipleBlocks) {
  // 11 targets > FanoutBlock capacity, so the fan-out splits into several
  // arena blocks; every entry must still deliver exactly once, in the same
  // schedule as the loop.
  World loop(9);
  World batch(9);
  std::vector<FanoutEntry> to;
  for (NodeId n = 1; n < kNodes; ++n) to.push_back(FanoutEntry{n, 0});
  send_loop(loop, 0, to, Message::write_req(2, 5, 77, {}));
  batch.transport.send_fanout(0, to.data(), to.size(),
                              Message::write_req(2, 5, 77, {}));
  loop.sim.run();
  batch.sim.run();
  expect_worlds_equal(loop, batch);
  std::size_t delivered = 0;
  for (NodeId n = 1; n < kNodes; ++n) {
    delivered += batch.recorders[n]->messages.size();
  }
  EXPECT_EQ(delivered, to.size());
}

TEST(FanoutBatching, EqualTimeEntriesDeliverInline) {
  // Constant delays collapse the whole fan-out onto one timestamp: the
  // batch delivers every entry inside a single queue pop, but the observed
  // schedule (fingerprint, processed count) still matches the loop.
  World loop(5, sim::make_constant_delay(1.0));
  World batch(5, sim::make_constant_delay(1.0));
  auto to = entries({1, 2, 3, 4});
  send_loop(loop, 0, to, Message::read_req(9, 1));
  batch.transport.send_fanout(0, to.data(), to.size(),
                              Message::read_req(9, 1));
  loop.sim.run();
  batch.sim.run();
  expect_worlds_equal(loop, batch);
  for (NodeId n = 1; n <= 4; ++n) {
    ASSERT_EQ(batch.recorders[n]->times.size(), 1u);
    EXPECT_DOUBLE_EQ(batch.recorders[n]->times[0], 1.0);
  }
}

TEST(FanoutBatching, KeepsArenaZeroHeapOnSteadyState) {
  // After a warm-up fan-out has grown the arena, further fan-outs must not
  // heap-allocate: blocks are recycled through the EventArena free list.
  World w(11);
  auto to = entries({1, 2, 3, 4, 5});
  w.transport.send_fanout(0, to.data(), to.size(), Message::read_req(0, 0));
  w.sim.run();
  const std::uint64_t warm = w.sim.alloc_stats().heap_allocations();
  for (std::uint64_t op = 1; op < 50; ++op) {
    w.transport.send_fanout(0, to.data(), to.size(),
                            Message::read_req(0, op));
    w.sim.run();
  }
  EXPECT_EQ(w.sim.alloc_stats().heap_allocations(), warm);
}

TEST(FanoutBatching, TeardownReleasesQueuedBlocks) {
  // A world torn down with fan-out deliveries still queued must release
  // their blocks: the queued carrier owns its block, so the prototype's
  // payload loses its last extra owner with it.  The transport is destroyed
  // before the simulator, as in run_alg1.
  const Value payload(util::Bytes(16, std::byte{7}));
  {
    World w(13);
    auto to = entries({1, 2, 3});
    w.transport.send_fanout(0, to.data(), to.size(),
                            Message::write_req(1, 1, 1, payload));
    EXPECT_GT(payload.use_count(), 1);
  }
  EXPECT_EQ(payload.use_count(), 1);
}

}  // namespace
}  // namespace pqra::net
