#include "src/obs/timeline.hpp"

#include <gtest/gtest.h>

#include "src/obs/health.hpp"

namespace rasc::obs {
namespace {

constexpr std::uint64_t kMs = 1000000;  // ns per ms

/// Two sequential rounds on one device: round 1 verifies first try, round
/// 2 loses a challenge, retries, and times out.  Link events carry no
/// session tag — window containment must attribute them.
EventJournal two_round_journal() {
  EventJournal j;
  const std::uint32_t link = j.intern("vrf->prv");
  const std::uint32_t dev = j.intern("prv-0");
  const std::uint32_t ses = j.intern("session/prv-0");

  j.append(10 * kMs, dev, ses, 1, JournalEventKind::kSessionStart, 3, 60 * kMs);
  j.append(10 * kMs, dev, ses, 1, JournalEventKind::kSessionAttempt, 1, 1);
  j.append(10 * kMs, link, 0, 0, JournalEventKind::kLinkSend, 1, 44);
  j.append(12 * kMs, link, 0, 0, JournalEventKind::kLinkDeliver, 1, 44);
  j.append(30 * kMs, dev, ses, 1, JournalEventKind::kSessionResolved,
           static_cast<std::uint64_t>(RoundOutcome::kVerified), 0);

  j.append(100 * kMs, dev, ses, 2, JournalEventKind::kSessionStart, 3, 60 * kMs);
  j.append(100 * kMs, dev, ses, 2, JournalEventKind::kSessionAttempt, 1, 2);
  j.append(100 * kMs, link, 0, 0, JournalEventKind::kLinkSend, 2, 44);
  j.append(100 * kMs, link, 0, 0, JournalEventKind::kLinkDrop, 2, 44);
  j.append(160 * kMs, dev, ses, 2, JournalEventKind::kSessionAttemptTimeout, 1, 0);
  j.append(160 * kMs, dev, ses, 2, JournalEventKind::kSessionBackoff, 1, 20 * kMs);
  j.append(180 * kMs, dev, ses, 2, JournalEventKind::kSessionAttempt, 2, 3);
  j.append(180 * kMs, link, 0, 0, JournalEventKind::kLinkSend, 3, 44);
  j.append(180 * kMs, link, 0, 0, JournalEventKind::kLinkDrop, 3, 44);
  j.append(240 * kMs, dev, ses, 2, JournalEventKind::kSessionResolved,
           static_cast<std::uint64_t>(RoundOutcome::kTimeout), 5 * kMs);
  return j;
}

TEST(RoundTimeline, ReconstructsRoundsInStartOrder) {
  const EventJournal j = two_round_journal();
  const auto rounds = build_round_timelines(j);
  ASSERT_EQ(rounds.size(), 2u);

  EXPECT_EQ(rounds[0].round, 1u);
  EXPECT_EQ(rounds[0].t_start, 10 * kMs);
  EXPECT_EQ(rounds[0].t_resolved, 30 * kMs);
  EXPECT_EQ(rounds[0].attempts, 1u);
  EXPECT_TRUE(rounds[0].resolved());
  EXPECT_EQ(rounds[0].outcome, static_cast<std::uint64_t>(RoundOutcome::kVerified));

  EXPECT_EQ(rounds[1].round, 2u);
  EXPECT_EQ(rounds[1].attempts, 2u);
  EXPECT_EQ(rounds[1].outcome, static_cast<std::uint64_t>(RoundOutcome::kTimeout));
  EXPECT_EQ(rounds[1].wasted_measure_ns, 5 * kMs);
}

TEST(RoundTimeline, AssignsUntaggedEventsByTimeWindow) {
  const EventJournal j = two_round_journal();
  const auto rounds = build_round_timelines(j);
  ASSERT_EQ(rounds.size(), 2u);
  // Round 1 owns its 2 link events (send + deliver), round 2 its 4.
  const auto count_kind = [](const RoundTimeline& rt, JournalEventKind kind) {
    std::size_t n = 0;
    for (const auto& ev : rt.events) n += ev.kind == kind ? 1 : 0;
    return n;
  };
  EXPECT_EQ(rounds[0].events.size(), 5u);
  EXPECT_EQ(count_kind(rounds[0], JournalEventKind::kLinkDeliver), 1u);
  EXPECT_EQ(rounds[1].events.size(), 10u);
  EXPECT_EQ(count_kind(rounds[1], JournalEventKind::kLinkDrop), 2u);
  // Events are time-ordered within each round.
  for (const auto& rt : rounds) {
    for (std::size_t i = 1; i < rt.events.size(); ++i) {
      EXPECT_LE(rt.events[i - 1].time, rt.events[i].time);
    }
  }
}

TEST(RoundTimeline, UntaggedDeviceEventsStayWithTheirDevice) {
  // Two devices whose rounds overlap in time, as in a fleet: prv-0 on
  // [10, 50] ms, prv-1 on [20, 60] ms.  A device's untagged events join its
  // own round even inside the other device's earlier window.
  EventJournal j;
  const std::uint32_t link = j.intern("vrf->prv");
  const std::uint32_t dev0 = j.intern("prv-0");
  const std::uint32_t dev1 = j.intern("prv-1");
  const std::uint32_t ses0 = j.intern("session/prv-0");
  const std::uint32_t ses1 = j.intern("session/prv-1");
  const std::uint32_t idle = j.intern("prv-2");  // owns no round

  j.append(10 * kMs, dev0, ses0, 1, JournalEventKind::kSessionStart, 3, 60 * kMs);
  j.append(20 * kMs, dev1, ses1, 1, JournalEventKind::kSessionStart, 3, 60 * kMs);
  j.append(25 * kMs, link, 0, 0, JournalEventKind::kLinkSend, 1, 44);
  j.append(30 * kMs, dev1, 0, 0, JournalEventKind::kCacheMiss, 4, 1);
  j.append(35 * kMs, idle, 0, 0, JournalEventKind::kFleetWake, 1, 2);
  j.append(40 * kMs, dev1, 0, 0, JournalEventKind::kVerifierVerdict, 0, 0);
  j.append(50 * kMs, dev0, 0, 0, JournalEventKind::kVerifierVerdict, 0, 0);
  j.append(50 * kMs, dev0, ses0, 1, JournalEventKind::kSessionResolved,
           static_cast<std::uint64_t>(RoundOutcome::kVerified), 0);
  j.append(60 * kMs, dev1, ses1, 1, JournalEventKind::kSessionResolved,
           static_cast<std::uint64_t>(RoundOutcome::kVerified), 0);

  const auto rounds = build_round_timelines(j);
  ASSERT_EQ(rounds.size(), 2u);
  ASSERT_EQ(rounds[0].actor, dev0);
  ASSERT_EQ(rounds[1].actor, dev1);
  const auto untagged = [](const RoundTimeline& rt) {
    std::vector<std::pair<std::uint32_t, JournalEventKind>> out;
    for (const auto& ev : rt.events) {
      if (ev.session == 0) out.emplace_back(ev.actor, ev.kind);
    }
    return out;
  };
  using Pairs = std::vector<std::pair<std::uint32_t, JournalEventKind>>;
  // The link event carries no device, so it joins the first containing window.
  EXPECT_EQ(untagged(rounds[0]),
            (Pairs{{link, JournalEventKind::kLinkSend},
                   {dev0, JournalEventKind::kVerifierVerdict}}));
  EXPECT_EQ(untagged(rounds[1]), (Pairs{{dev1, JournalEventKind::kCacheMiss},
                                        {dev1, JournalEventKind::kVerifierVerdict}}));
}

TEST(RoundTimeline, UnresolvedRoundRendersAsUnresolved) {
  EventJournal j;
  const std::uint32_t dev = j.intern("prv-0");
  const std::uint32_t ses = j.intern("session/prv-0");
  j.append(0, dev, ses, 1, JournalEventKind::kSessionStart, 3, 60 * kMs);
  j.append(0, dev, ses, 1, JournalEventKind::kSessionAttempt, 1, 1);
  const auto rounds = build_round_timelines(j);
  ASSERT_EQ(rounds.size(), 1u);
  EXPECT_FALSE(rounds[0].resolved());
  const std::string text = explain_round(j, rounds[0]);
  EXPECT_NE(text.find("unresolved"), std::string::npos);
}

TEST(Explain, HeaderSummarizesOutcomeAttemptsAndWaste) {
  const EventJournal j = two_round_journal();
  const auto rounds = build_round_timelines(j);
  const std::string text = explain_round(j, rounds[1]);
  EXPECT_NE(text.find("round 2 on prv-0: timeout after 2 attempts"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("5.000 ms wasted MP"), std::string::npos) << text;
  EXPECT_NE(text.find("session.backoff"), std::string::npos);
  EXPECT_NE(text.find("link.drop"), std::string::npos);
  // Offsets are relative to round start: the retry attempt at +80 ms.
  EXPECT_NE(text.find("+80.000 ms"), std::string::npos) << text;
}

TEST(Explain, ProblemFilterSkipsCleanRounds) {
  const EventJournal j = two_round_journal();
  const std::string all = explain(j, /*only_problem_rounds=*/false);
  EXPECT_NE(all.find("round 1"), std::string::npos);
  EXPECT_NE(all.find("round 2"), std::string::npos);
  const std::string problems = explain(j, /*only_problem_rounds=*/true);
  EXPECT_EQ(problems.find("round 1"), std::string::npos) << problems;
  EXPECT_NE(problems.find("round 2"), std::string::npos);
}

TEST(Explain, EmptyJournalRendersNothing) {
  EventJournal j;
  EXPECT_TRUE(build_round_timelines(j).empty());
  EXPECT_TRUE(explain(j).empty());
  EXPECT_TRUE(render_journal_summary(j).empty());
}

TEST(RenderJournalSummary, FlatTranscriptForSessionFreeJournals) {
  EventJournal j;
  const std::uint32_t dev = j.intern("prv-fire");
  j.append(1000 * kMs, dev, 0, 0, JournalEventKind::kDeadlineMiss, 150 * kMs,
           100 * kMs);
  j.append(2000 * kMs, dev, 0, 0, JournalEventKind::kAlarmRaised, 900 * kMs, 0);
  const std::string text = render_journal_summary(j);
  EXPECT_NE(text.find("app.deadline_miss"), std::string::npos);
  EXPECT_NE(text.find("app.alarm_raised"), std::string::npos);
  EXPECT_NE(text.find("latency=900.000 ms"), std::string::npos) << text;
  EXPECT_NE(text.find("[prv-fire]"), std::string::npos);
}

}  // namespace
}  // namespace rasc::obs
