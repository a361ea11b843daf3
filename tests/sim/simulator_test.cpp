#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace pqra::sim {
namespace {

TEST(SimulatorTest, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_TRUE(sim.empty());
}

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_in(3.0, [&] { order.push_back(3); });
  sim.schedule_in(1.0, [&] { order.push_back(1); });
  sim.schedule_in(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(SimulatorTest, TiesBreakInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_in(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulatorTest, EventsCanScheduleEvents) {
  Simulator sim;
  std::vector<double> times;
  sim.schedule_in(1.0, [&] {
    times.push_back(sim.now());
    sim.schedule_in(1.5, [&] { times.push_back(sim.now()); });
  });
  sim.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 2.5);
}

TEST(SimulatorTest, ZeroDelaySelfSchedulingAtSameTime) {
  Simulator sim;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 100) sim.schedule_in(0.0, tick);
  };
  sim.schedule_in(0.0, tick);
  sim.run();
  EXPECT_EQ(count, 100);
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
}

TEST(SimulatorTest, RunUntilStopsAtBoundary) {
  Simulator sim;
  std::vector<double> fired;
  for (double t : {1.0, 2.0, 3.0, 4.0}) {
    sim.schedule_in(t, [&fired, &sim] { fired.push_back(sim.now()); });
  }
  sim.run_until(2.5);
  EXPECT_EQ(fired.size(), 2u);
  EXPECT_DOUBLE_EQ(sim.now(), 2.5);
  sim.run();
  EXPECT_EQ(fired.size(), 4u);
}

TEST(SimulatorTest, RunUntilAdvancesClockOnEmptyQueue) {
  Simulator sim;
  sim.run_until(5.0);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(SimulatorTest, NextEventTimeIsTheEarliestPendingEvent) {
  Simulator sim;
  EXPECT_FALSE(sim.next_event_time().has_value());
  sim.schedule_in(2.5, [] {});
  sim.schedule_in(1.0, [] {});
  EXPECT_EQ(sim.next_event_time(), 1.0);
  sim.run_until(2.0);
  EXPECT_EQ(sim.next_event_time(), 2.5);
  sim.run();
  EXPECT_FALSE(sim.next_event_time().has_value());
}

TEST(SimulatorTest, RequestStopHaltsRun) {
  Simulator sim;
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_in(static_cast<Time>(i + 1), [&] {
      if (++fired == 3) sim.request_stop();
    });
  }
  sim.run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.pending_events(), 7u);
  sim.clear_stop();
  sim.run();
  EXPECT_EQ(fired, 10);
}

TEST(SimulatorTest, CannotScheduleIntoThePast) {
  Simulator sim;
  sim.schedule_in(1.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(0.5, [] {}), std::logic_error);
  EXPECT_THROW(sim.schedule_in(-1.0, [] {}), std::logic_error);
}

TEST(SimulatorTest, StepReturnsFalseWhenEmpty) {
  Simulator sim;
  EXPECT_FALSE(sim.step());
  sim.schedule_in(1.0, [] {});
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(SimulatorTest, CountsProcessedEvents) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.schedule_in(1.0, [] {});
  sim.run();
  EXPECT_EQ(sim.events_processed(), 5u);
}

}  // namespace
}  // namespace pqra::sim
