#include "src/attest/session.hpp"

#include <gtest/gtest.h>

#include "tests/support/fleet_fixtures.hpp"

namespace rasc::attest {
namespace {

using support::to_bytes;
using testfx::SessionHarness;
using testfx::fast_session_config;

constexpr sim::Duration kMs = sim::kMillisecond;

TEST(ReliableSession, CleanLinkVerifiesOnFirstAttempt) {
  SessionHarness fx;
  const RoundResult result = fx.run_round();
  EXPECT_TRUE(testfx::resolved_as(result, SessionOutcome::kVerified));
  EXPECT_EQ(result.attempts, 1u);
  EXPECT_EQ(result.attempt_timeouts, 0u);
  EXPECT_EQ(result.backoff_total, 0u);
  EXPECT_EQ(result.wasted_measure_time, 0u);
  EXPECT_GT(result.measure_time, 0u);
  EXPECT_GT(result.t_resolved, result.t_started);
  EXPECT_TRUE(result.verdict.ok());
}

TEST(ReliableSession, TotalLossExhaustsBudgetAndTimesOut) {
  sim::LinkConfig dead;
  dead.drop_probability = 1.0;
  SessionHarness fx(SessionHarness::with_links(dead, {}));
  const RoundResult result = fx.run_round();
  EXPECT_TRUE(testfx::resolved_as(result, SessionOutcome::kTimeout));
  EXPECT_EQ(result.attempts, 3u);
  EXPECT_EQ(result.attempt_timeouts, 3u);
  EXPECT_EQ(fx.session.retries(), 2u);
  // Exponential, jitterless backoff: 5 ms + 10 ms.
  EXPECT_EQ(result.backoff_total, 15 * kMs);
}

TEST(ReliableSession, PartitionDroppedReportIsRetriedToVerification) {
  // The report leg is blacked out for the first 10 ms, so attempt 1's
  // report vanishes; the retry lands after the partition lifts.
  sim::LinkConfig report_leg;
  report_leg.partitions.push_back({0, 10 * kMs});
  SessionHarness fx(SessionHarness::with_links({}, report_leg));
  const RoundResult result = fx.run_round();
  EXPECT_TRUE(testfx::resolved_as(result, SessionOutcome::kVerified));
  EXPECT_EQ(result.attempts, 2u);
  EXPECT_EQ(result.attempt_timeouts, 1u);
  EXPECT_EQ(fx.prv_to_vrf.partition_dropped(), 1u);
  // The first attempt's measurement bought nothing.
  EXPECT_GT(result.wasted_measure_time, 0u);
}

TEST(ReliableSession, CorruptedReportsClassifyAsCorruptReport) {
  sim::LinkConfig garbling;
  garbling.corrupt_probability = 1.0;
  SessionConfig config = fast_session_config();
  config.max_attempts = 2;
  SessionHarness fx(SessionHarness::with_links({}, garbling, config));
  const RoundResult result = fx.run_round();
  EXPECT_TRUE(testfx::resolved_as(result, SessionOutcome::kCorruptReport));
  EXPECT_EQ(result.attempts, 2u);
  EXPECT_EQ(result.corrupt_reports, 2u);
  // Corrupt answers consume the attempt immediately instead of waiting
  // out the response timer.
  EXPECT_EQ(result.attempt_timeouts, 0u);
  EXPECT_EQ(fx.session.corrupt_reports(), 2u);
}

TEST(ReliableSession, DuplicatedWinningReportIsRejectedAsLate) {
  sim::LinkConfig duplicating;
  duplicating.duplicate_probability = 1.0;
  SessionHarness fx(SessionHarness::with_links({}, duplicating));
  const RoundResult result = fx.run_round();
  EXPECT_TRUE(testfx::resolved_as(result, SessionOutcome::kVerified));
  EXPECT_EQ(result.attempts, 1u);
  EXPECT_EQ(fx.session.late_reports(), 1u);
}

TEST(ReliableSession, StaleReportOnlyClassifiesAsReplayRejected) {
  // Attempt 1's report is held back past the response timeout (reorder
  // delay), and attempt 2's challenge dies in a partition.  The only
  // thing the verifier ever hears inside the budget is a stale answer to
  // the superseded challenge.
  sim::LinkConfig challenge_leg;
  challenge_leg.partitions.push_back({10 * kMs, 500 * kMs});
  sim::LinkConfig report_leg;
  report_leg.reorder_probability = 1.0;
  report_leg.reorder_delay = 50 * kMs;
  SessionConfig config = fast_session_config();
  config.response_timeout = 30 * kMs;
  config.max_attempts = 2;
  SessionHarness fx(SessionHarness::with_links(challenge_leg, report_leg, config));
  const RoundResult result = fx.run_round();
  EXPECT_TRUE(testfx::resolved_as(result, SessionOutcome::kReplayRejected));
  EXPECT_EQ(result.attempts, 2u);
  EXPECT_EQ(result.replays_rejected, 1u);
  EXPECT_EQ(fx.session.replays_rejected(), 1u);
}

TEST(ReliableSession, InfectedDeviceIsCompromisedNotRetried) {
  SessionHarness fx;
  fx.infect();
  const RoundResult result = fx.run_round();
  EXPECT_TRUE(testfx::resolved_as(result, SessionOutcome::kCompromised));
  EXPECT_EQ(result.attempts, 1u);
  EXPECT_TRUE(result.verdict.mac_ok);
  EXPECT_FALSE(result.verdict.digest_ok);
}

TEST(ReliableSession, EveryRoundResolvesUnderHeavyFaults) {
  sim::LinkConfig lossy;
  lossy.drop_probability = 0.25;
  lossy.duplicate_probability = 0.2;
  lossy.corrupt_probability = 0.2;
  lossy.reorder_probability = 0.2;
  lossy.seed = 0xbad;
  sim::LinkConfig lossy2 = lossy;
  lossy2.seed = 0xbad2;
  SessionConfig config = fast_session_config();
  config.max_attempts = 4;
  SessionHarness fx(SessionHarness::with_links(lossy, lossy2, config));

  constexpr std::size_t kRounds = 30;
  std::size_t resolved = 0;
  std::function<void()> next = [&] {
    fx.session.run([&](RoundResult) {
      ++resolved;
      if (resolved < kRounds) fx.simulator.schedule_in(kMs, next);
    });
  };
  fx.simulator.schedule_at(0, next);
  fx.simulator.run();
  // The whole point of the session layer: no amount of link misbehavior
  // may leave a round unresolved.
  EXPECT_EQ(resolved, kRounds);
  EXPECT_EQ(fx.session.rounds_resolved(), kRounds);
}

TEST(ReliableSession, BackoffGrowsExponentiallyWithJitterBounded) {
  sim::LinkConfig dead;
  dead.drop_probability = 1.0;
  SessionConfig config = fast_session_config();
  config.max_attempts = 4;
  config.backoff_jitter = 0.5;
  SessionHarness fx(SessionHarness::with_links(dead, {}, config));
  const RoundResult result = fx.run_round();
  EXPECT_EQ(result.attempts, 4u);
  // Three retries at 5/10/20 ms nominal, each stretched by at most 50%.
  EXPECT_GE(result.backoff_total, 35 * kMs);
  EXPECT_LE(result.backoff_total, 35 * kMs + 35 * kMs / 2);
}

TEST(ReliableSession, BackoffSaturatesAtTheConfiguredCap) {
  // Extreme budgets used to push backoff_base * factor^k past what a
  // sim::Duration can hold; the double->uint64 cast of that product is
  // undefined behavior.  The clamp must resolve such a round within
  // attempts * (timeout + backoff_max) instead of hanging for astronomic
  // simulated time (or worse).
  sim::LinkConfig dead;
  dead.drop_probability = 1.0;
  SessionConfig config = fast_session_config();
  config.max_attempts = 6;
  config.backoff_base = sim::Duration{1} << 62;  // ~146 simulated years
  config.backoff_factor = 1e12;
  config.backoff_jitter = 1.0;
  config.backoff_max = 30 * kMs;
  SessionHarness fx(SessionHarness::with_links(dead, {}, config));
  const RoundResult result = fx.run_round();
  EXPECT_TRUE(testfx::resolved_as(result, SessionOutcome::kTimeout));
  EXPECT_EQ(result.attempts, 6u);
  // Five waits, each saturated exactly at the cap.
  EXPECT_EQ(result.backoff_total, 5 * config.backoff_max);
  EXPECT_LE(fx.simulator.now(),
            config.max_attempts * (config.response_timeout + config.backoff_max));
}

TEST(ReliableSession, ModestBackoffIsUntouchedByTheDefaultCap) {
  // The 60 s default cap sits far above any backoff the existing
  // campaigns can produce, so enabling it must not perturb a normal
  // lossy round: same exponential waits as the uncapped formula.
  sim::LinkConfig dead;
  dead.drop_probability = 1.0;
  SessionConfig config = fast_session_config();
  config.max_attempts = 4;
  SessionHarness fx(SessionHarness::with_links(dead, {}, config));
  const RoundResult result = fx.run_round();
  EXPECT_EQ(result.backoff_total, (5 + 10 + 20) * kMs);
}

TEST(ReliableSession, MisuseThrows) {
  SessionHarness fx;
  fx.session.run([](RoundResult) {});
  EXPECT_THROW(fx.session.run([](RoundResult) {}), std::logic_error);
  fx.simulator.run();

  SessionConfig config;
  config.max_attempts = 0;
  SessionHarness broken(SessionHarness::with_session(config));
  EXPECT_THROW(broken.session.run([](RoundResult) {}), std::invalid_argument);
}

TEST(ReliableSession, ReportAfterTerminalOutcomeIsLateNotFatal) {
  // Every report is held back 100 ms — far past the whole retry budget —
  // so the round resolves as kTimeout while three measurements' reports
  // are still in flight.  When they finally land on the resolved (idle)
  // session they must be counted as late and discarded, never re-judged
  // and never crashing; a following round must still work.
  sim::LinkConfig straggling;
  straggling.reorder_probability = 1.0;
  straggling.reorder_delay = 100 * kMs;
  SessionHarness fx(SessionHarness::with_links({}, straggling));
  const RoundResult first = fx.run_round();  // runs sim to full quiescence
  EXPECT_TRUE(testfx::resolved_as(first, SessionOutcome::kTimeout));
  EXPECT_EQ(first.attempts, 3u);
  // All three straggler reports arrived after resolution.
  EXPECT_EQ(fx.session.late_reports(), 3u);
  EXPECT_FALSE(fx.session.busy());
  EXPECT_EQ(fx.session.rounds_resolved(), 1u);

  // The session is reusable after the straggler storm: a second round on
  // the same stack still runs to a terminal outcome (the stragglers'
  // stale state cannot poison the next challenge or wedge the session).
  const RoundResult second = fx.run_round();
  EXPECT_TRUE(testfx::resolved_as(second, SessionOutcome::kTimeout));
  EXPECT_EQ(fx.session.rounds_resolved(), 2u);
  EXPECT_EQ(fx.session.late_reports(), 6u);
}

TEST(ReliableSession, MetricsAccountTerminalOutcomes) {
  sim::LinkConfig dead;
  dead.drop_probability = 1.0;
  SessionHarness fx(SessionHarness::with_links(dead, {}));
  obs::MetricsRegistry metrics;
  obs::Observer observer(nullptr, nullptr, &metrics);
  fx.simulator.set_observer(&observer);
  (void)fx.run_round();
  ASSERT_NE(metrics.find_counter("session.rounds"), nullptr);
  EXPECT_EQ(metrics.find_counter("session.rounds")->value(), 1u);
  ASSERT_NE(metrics.find_counter("session.timeout"), nullptr);
  EXPECT_EQ(metrics.find_counter("session.timeout")->value(), 1u);
  ASSERT_NE(metrics.find_counter("session.retries"), nullptr);
  EXPECT_EQ(metrics.find_counter("session.retries")->value(), 2u);
  ASSERT_NE(metrics.find_histogram("session.round_latency_ms"), nullptr);
  EXPECT_EQ(metrics.find_histogram("session.round_latency_ms")->count(), 1u);
}

}  // namespace
}  // namespace rasc::attest
