#include "src/obs/observer.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

namespace rasc::obs {
namespace {

TEST(Observer, EveryKindHasItsOwnJournalName) {
  std::set<std::string> names;
  for (std::size_t k = 0; k < kJournalEventKindCount; ++k) {
    const std::string name(journal_event_kind_name(static_cast<JournalEventKind>(k)));
    EXPECT_NE(name, "?");
    names.insert(name);
  }
  EXPECT_EQ(names.size(), kJournalEventKindCount);
}

TEST(Observer, OneEmitFeedsEveryChannelItsKindNames) {
  TraceSink trace;
  EventJournal journal;
  MetricsRegistry metrics;
  Observer observer(&trace, &journal, &metrics);
  ActorId link_id;
  observer.emit(5, JournalEventKind::kLinkPartitionDrop, {"vrf->prv", &link_id}, {}, 0,
                7, 64);

  ASSERT_EQ(journal.size(), 1u);
  EXPECT_EQ(journal.at(0).time, 5u);
  EXPECT_EQ(journal.actor_name(journal.at(0).actor), "vrf->prv");
  EXPECT_EQ(journal.at(0).session, 0u);
  EXPECT_EQ(journal.at(0).a, 7u);
  EXPECT_EQ(journal.at(0).b, 64u);
  // A partition drop is a drop too; nothing else enters the registry.
  ASSERT_EQ(metrics.counters().size(), 2u);
  EXPECT_EQ(metrics.find_counter("net.dropped")->value(), 1u);
  EXPECT_EQ(metrics.find_counter("net.partition_dropped")->value(), 1u);
  ASSERT_EQ(trace.size(), 1u);
  const TraceEvent& instant = trace.events().front();
  EXPECT_EQ(instant.track, "net");
  EXPECT_EQ(instant.name, "net.partition_drop");
  ASSERT_EQ(instant.args.size(), 1u);
  EXPECT_EQ(instant.args[0].key, "bytes");
  EXPECT_EQ(instant.args[0].value, "64");
}

TEST(Observer, KindRowsDecideInstantsHistogramsAndOutcomeCounters) {
  TraceSink trace;
  MetricsRegistry metrics;
  Observer observer(&trace, nullptr, &metrics);
  // A deadline hit is counted and timed but draws no instant; a miss
  // draws one on the device's own app track.
  observer.emit(1, JournalEventKind::kDeadlineHit, {"prv"}, {}, 0, 2'000'000, 0);
  observer.emit(2, JournalEventKind::kDeadlineMiss, {"prv"}, {}, 0, 4'000'000, 0);
  observer.emit(3, JournalEventKind::kSessionResolved, {"prv"}, {"session/prv"}, 1,
                static_cast<std::uint64_t>(RoundOutcome::kTimeout), 0, {3, 9'000'000});

  EXPECT_EQ(metrics.find_counter("fire_alarm.samples")->value(), 2u);
  EXPECT_EQ(metrics.find_counter("fire_alarm.deadline_miss")->value(), 1u);
  EXPECT_EQ(metrics.find_histogram("fire_alarm.sample_delay_ms")->count(), 2u);
  EXPECT_DOUBLE_EQ(metrics.find_histogram("fire_alarm.sample_delay_ms")->max(), 4.0);
  EXPECT_EQ(metrics.find_counter("session.timeout")->value(), 1u);
  EXPECT_EQ(metrics.find_counter("session.verified"), nullptr);
  EXPECT_DOUBLE_EQ(metrics.find_histogram("session.round_latency_ms")->max(), 9.0);

  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace.events()[0].track, "app/prv");
  EXPECT_EQ(trace.events()[0].name, "fire_alarm.deadline_miss");
  EXPECT_EQ(trace.events()[1].name, "session.resolved");
  ASSERT_EQ(trace.events()[1].args.size(), 2u);
  EXPECT_EQ(trace.events()[1].args[0].value, "timeout");
  EXPECT_EQ(trace.events()[1].args[1].value, "3");
}

}  // namespace
}  // namespace rasc::obs
