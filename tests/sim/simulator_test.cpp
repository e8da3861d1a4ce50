#include "src/sim/simulator.hpp"

#include <gtest/gtest.h>

namespace rasc::sim {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0u);
  EXPECT_TRUE(sim.empty());
}

TEST(Simulator, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30, [&] { order.push_back(3); });
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30u);
}

TEST(Simulator, TiesFireInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(5, [&] { order.push_back(1); });
  sim.schedule_at(5, [&] { order.push_back(2); });
  sim.schedule_at(5, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  Time fired_at = 0;
  sim.schedule_at(100, [&] {
    sim.schedule_in(50, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired_at, 150u);
}

TEST(Simulator, PastTimesClampToNow) {
  Simulator sim;
  Time fired_at = 999;
  sim.schedule_at(100, [&] {
    sim.schedule_at(10, [&] { fired_at = sim.now(); });  // in the past
  });
  sim.run();
  EXPECT_EQ(fired_at, 100u);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  EventHandle handle = sim.schedule_at(10, [&] { fired = true; });
  EXPECT_TRUE(handle.pending());
  handle.cancel();
  EXPECT_FALSE(handle.pending());
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelIsIdempotent) {
  Simulator sim;
  EventHandle handle = sim.schedule_at(10, [] {});
  handle.cancel();
  handle.cancel();
  EXPECT_FALSE(handle.pending());
}

TEST(Simulator, HandleNotPendingAfterFiring) {
  Simulator sim;
  EventHandle handle = sim.schedule_at(10, [] {});
  sim.run();
  EXPECT_FALSE(handle.pending());
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(10, [&] { ++fired; });
  sim.schedule_at(20, [&] { ++fired; });
  sim.schedule_at(30, [&] { ++fired; });
  EXPECT_EQ(sim.run_until(20), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 20u);
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, RunUntilAdvancesClockWhenIdle) {
  Simulator sim;
  sim.run_until(500);
  EXPECT_EQ(sim.now(), 500u);
}

TEST(Simulator, RunWithLimitStopsEarly) {
  Simulator sim;
  int fired = 0;
  for (int i = 0; i < 10; ++i) sim.schedule_at(static_cast<Time>(i), [&] { ++fired; });
  EXPECT_EQ(sim.run(3), 3u);
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) sim.schedule_in(10, chain);
  };
  sim.schedule_at(0, chain);
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), 40u);
}

TEST(Simulator, EmitsAtNowOnlyThroughAnObserverWithAChannel) {
  Simulator sim;
  obs::Observer empty;
  sim.set_observer(&empty);
  EXPECT_EQ(sim.observer(), nullptr);  // nothing to record: stays detached
  EXPECT_EQ(sim.trace_sink(), nullptr);

  obs::EventJournal journal;
  obs::Observer observer(nullptr, &journal);
  sim.set_observer(&observer);
  EXPECT_EQ(sim.trace_sink(), nullptr);
  sim.schedule_at(40, [&] {
    sim.emit(obs::JournalEventKind::kFleetWake, {"prv-3"}, {}, 0, 1, 2);
  });
  sim.run();
  ASSERT_EQ(journal.size(), 1u);
  EXPECT_EQ(journal.at(0).time, 40u);
  EXPECT_EQ(journal.actor_name(journal.at(0).actor), "prv-3");
}

TEST(FormatDuration, HumanReadable) {
  EXPECT_EQ(format_duration(1500 * kMillisecond), "1.500 s");
  EXPECT_EQ(format_duration(3200 * kMicrosecond), "3.200 ms");
  EXPECT_EQ(format_duration(750), "750 ns");
}

TEST(TimeConversions, RoundTrip) {
  EXPECT_DOUBLE_EQ(to_seconds(kSecond), 1.0);
  EXPECT_DOUBLE_EQ(to_millis(kSecond), 1000.0);
  EXPECT_EQ(from_seconds(2.5), 2500 * kMillisecond);
}

}  // namespace
}  // namespace rasc::sim
