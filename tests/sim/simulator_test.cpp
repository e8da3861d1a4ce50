#include "src/sim/simulator.hpp"

#include <gtest/gtest.h>

#include <type_traits>
#include <utility>
#include <vector>

#include "src/support/rng.hpp"

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

TEST(Simulator, ScheduleEveryFiresCountTimesAtThePeriod) {
  Simulator sim;
  std::vector<Time> times;
  sim.schedule_every(5, 10, 4, [&] { times.push_back(sim.now()); });
  sim.run();
  EXPECT_EQ(times, (std::vector<Time>{5, 15, 25, 35}));
  EXPECT_EQ(sim.events_fired(), 4u);
  EXPECT_TRUE(sim.empty());
}

TEST(Simulator, ScheduleEveryWithZeroCountIsInert) {
  Simulator sim;
  const EventHandle handle = sim.schedule_every(5, 10, 0, [] { FAIL(); });
  EXPECT_FALSE(handle.pending());
  EXPECT_TRUE(sim.empty());
  sim.run();
}

TEST(Simulator, CancellingASeriesStopsTheRemainingFirings) {
  Simulator sim;
  int fired = 0;
  EventHandle series;
  series = sim.schedule_every(10, 10, 100, [&] {
    EXPECT_TRUE(series.pending());  // more firings to come
    if (++fired == 3) series.cancel();
  });
  sim.run();
  EXPECT_EQ(fired, 3);
  EXPECT_FALSE(series.pending());

  EventHandle last = sim.schedule_every(sim.now(), 1, 2, [&] { ++fired; });
  sim.run(1);
  EXPECT_TRUE(last.pending());
  sim.run(1);
  EXPECT_FALSE(last.pending());
  EXPECT_EQ(fired, 5);
}

TEST(Simulator, CallbackSurvivesSlotGrowthItCauses) {
  // Callbacks are moved out of their slot before running, so one that
  // schedules enough events to reallocate the slot vector still reads its
  // own captures afterwards (AddressSanitizer flags the in-place variant).
  Simulator sim;
  std::vector<int> seen;
  const std::vector<int> payload{1, 2, 3};
  const auto grow_then_read = [&sim, &seen, payload] {
    for (int i = 0; i < 1000; ++i) sim.schedule_in(1, [] {});
    seen.insert(seen.end(), payload.begin(), payload.end());
  };
  sim.schedule_at(0, grow_then_read);
  sim.schedule_every(5, 10, 2, grow_then_read);
  sim.run();
  EXPECT_EQ(seen, (std::vector<int>{1, 2, 3, 1, 2, 3, 1, 2, 3}));
  EXPECT_EQ(sim.events_fired(), 3003u);
}

TEST(Simulator, PeriodicSeriesIsOneQueueEntry) {
  Simulator sim;
  std::size_t fired = 0;
  sim.schedule_every(50, 50, 20000, [&] { ++fired; });
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_until(500000);
  EXPECT_EQ(fired, 10000u);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(fired, 20000u);
  EXPECT_TRUE(sim.empty());
}

TEST(Simulator, StaleHandleIgnoresSlotReuse) {
  static_assert(sizeof(EventHandle) <= 16);
  static_assert(std::is_trivially_copyable_v<EventHandle>);
  Simulator sim;
  EventHandle fired_handle = sim.schedule_at(10, [] {});
  sim.run();
  EventHandle cancelled = sim.schedule_at(20, [] { FAIL(); });
  cancelled.cancel();
  sim.run();  // pops the cancelled entry and frees its slot

  // Both slots are free again; the next events take them over.
  int fired = 0;
  const EventHandle a = sim.schedule_at(30, [&] { ++fired; });
  const EventHandle b = sim.schedule_every(40, 10, 2, [&] { ++fired; });
  EXPECT_FALSE(fired_handle.pending());
  EXPECT_FALSE(cancelled.pending());
  fired_handle.cancel();
  cancelled.cancel();
  EXPECT_TRUE(a.pending());
  EXPECT_TRUE(b.pending());
  sim.run();
  EXPECT_EQ(fired, 3);
}

/// A seeded random mix of one-shots at colliding times, overlapping
/// periodic series (some starting in the past, so clamped to now),
/// cancellations and events scheduled from callbacks.  With `series` the
/// periodic tasks use schedule_every; without it, the equivalent loop of
/// schedule_at calls.  Every decision is drawn in firing order, so the two
/// runs make the same decisions exactly as long as they fire identically.
class EventMix {
 public:
  EventMix(bool series, std::uint64_t seed) : series_(series), rng_(seed) {}

  std::vector<std::pair<int, Time>> run() {
    for (int i = 0; i < 12; ++i) one_shot(10 * rng_.below(20));
    for (int i = 0; i < 5; ++i) periodic(10 * rng_.below(10));
    // Run in pieces: stop on and between event times, and by count.
    for (const Time boundary : {Time{35}, Time{35}, Time{90}, Time{151}}) {
      sim_.run_until(boundary);
      log_.emplace_back(-1, sim_.now());
      sim_.run(3);
      log_.emplace_back(-2, sim_.now());
    }
    sim_.run();
    log_.emplace_back(-3, static_cast<Time>(sim_.events_fired()));
    return log_;
  }

 private:
  void one_shot(Time t) {
    const int id = next_id_++;
    one_shots_.push_back(sim_.schedule_at(t, [this, id] { fire(id); }));
  }

  void periodic(Time first) {
    const int id = next_id_++;
    const Duration period = 10 * (1 + rng_.below(3));
    const std::uint64_t count = rng_.below(8);
    std::vector<EventHandle> handles;
    const auto fn = [this, id] { fire(id); };
    if (series_) {
      handles.push_back(sim_.schedule_every(first, period, count, fn));
    } else {
      for (std::uint64_t k = 0; k < count; ++k) {
        handles.push_back(sim_.schedule_at(first + k * period, fn));
      }
    }
    series_handles_.push_back(std::move(handles));
  }

  void fire(int id) {
    log_.emplace_back(id, sim_.now());
    if (next_id_ >= 80) return;
    const Time now = sim_.now();
    switch (rng_.below(6)) {
      case 0:
        one_shot(now + 10 * rng_.below(3));
        break;
      case 1:
        periodic(now - std::min<Time>(now, 10 * rng_.below(3)));
        break;
      case 2:  // may be the series now firing
        for (auto& handle : series_handles_[rng_.below(series_handles_.size())]) {
          handle.cancel();
        }
        break;
      case 3:
        one_shots_[rng_.below(one_shots_.size())].cancel();
        break;
      default:
        break;
    }
  }

  Simulator sim_;
  bool series_;
  support::Xoshiro256 rng_;
  int next_id_ = 0;
  std::vector<EventHandle> one_shots_;
  std::vector<std::vector<EventHandle>> series_handles_;
  std::vector<std::pair<int, Time>> log_;
};

TEST(Simulator, PeriodicMatchesPreScheduled) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const auto looped = EventMix(/*series=*/false, seed).run();
    const auto series = EventMix(/*series=*/true, seed).run();
    ASSERT_GT(looped.size(), 20u) << "seed " << seed;
    ASSERT_EQ(looped, series) << "seed " << seed;
  }
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
