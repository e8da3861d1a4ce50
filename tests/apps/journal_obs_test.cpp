/// End-to-end flight-recorder coverage: the network and fire-alarm
/// scenarios populate the journal and health rollup through the real
/// sim/attest/apps plumbing, the journal is deterministic and inert
/// (attaching it changes nothing observable), timelines reconstruct the
/// rounds, and campaign health aggregates are thread-count independent.

#include <gtest/gtest.h>

#include "src/apps/campaign.hpp"
#include "src/apps/scenario.hpp"
#include "src/exp/report.hpp"
#include "src/obs/timeline.hpp"

namespace rasc::apps {
namespace {

NetworkScenarioConfig lossy_config() {
  NetworkScenarioConfig config;
  config.rounds = 4;
  config.drop_probability = 0.3;
  config.duplicate_probability = 0.05;
  config.reorder_probability = 0.05;
  config.corrupt_probability = 0.02;
  config.session.max_attempts = 4;
  config.session.response_timeout = 60 * sim::kMillisecond;
  config.session.backoff_base = 20 * sim::kMillisecond;
  config.seed = 7;
  return config;
}

std::size_t count_kind(const obs::EventJournal& journal,
                       obs::JournalEventKind kind) {
  obs::JournalFilter filter;
  filter.kind = kind;
  return journal.count(filter);
}

TEST(JournalIntegration, NetworkScenarioPopulatesJournalAndHealth) {
  obs::EventJournal journal;
  obs::Observer observer(nullptr, &journal);
  obs::HealthRollup health;
  NetworkScenarioConfig config = lossy_config();
  config.observer = &observer;
  config.health = &health;
  const NetworkScenarioOutcome outcome = run_network_scenario(config);
  ASSERT_TRUE(outcome.all_resolved);
  ASSERT_FALSE(journal.empty());

  // One session.start / session.resolved pair per round, one
  // session.attempt per challenge sent.
  EXPECT_EQ(count_kind(journal, obs::JournalEventKind::kSessionStart),
            outcome.rounds_requested);
  EXPECT_EQ(count_kind(journal, obs::JournalEventKind::kSessionResolved),
            outcome.rounds_resolved);
  EXPECT_EQ(count_kind(journal, obs::JournalEventKind::kSessionAttempt),
            outcome.total_attempts);
  // Link fates recorded per direction under the documented actor names.
  EXPECT_EQ(count_kind(journal, obs::JournalEventKind::kLinkSend),
            outcome.link_sent);
  EXPECT_EQ(count_kind(journal, obs::JournalEventKind::kLinkDrop),
            outcome.link_dropped);
  obs::JournalFilter forward;
  forward.actor = journal.intern("vrf->prv");
  EXPECT_GT(journal.count(forward), 0u);
  obs::JournalFilter reverse;
  reverse.actor = journal.intern("prv->vrf");
  EXPECT_GT(journal.count(reverse), 0u);

  // The health rollup saw exactly the rounds the outcome reports.
  EXPECT_EQ(health.rounds(), outcome.rounds_resolved);
  EXPECT_EQ(health.outcome_count(obs::RoundOutcome::kVerified), outcome.verified);
  EXPECT_EQ(health.outcome_count(obs::RoundOutcome::kTimeout), outcome.timeouts);
  EXPECT_EQ(health.outcome_count(obs::RoundOutcome::kCorruptReport),
            outcome.corrupt_report);
  EXPECT_EQ(health.outcome_count(obs::RoundOutcome::kReplayRejected),
            outcome.replay_rejected);
  EXPECT_DOUBLE_EQ(health.wasted_measure_ms_total(),
                   sim::to_millis(outcome.wasted_measure_time));
}

TEST(JournalIntegration, AttachingJournalChangesNothingObservable) {
  // The flight recorder must be a pure observer: no RNG draws, no timing.
  NetworkScenarioConfig bare = lossy_config();
  const NetworkScenarioOutcome without = run_network_scenario(bare);
  obs::EventJournal journal;
  obs::Observer observer(nullptr, &journal);
  NetworkScenarioConfig observed = lossy_config();
  observed.observer = &observer;
  const NetworkScenarioOutcome with = run_network_scenario(observed);
  EXPECT_EQ(with.verified, without.verified);
  EXPECT_EQ(with.timeouts, without.timeouts);
  EXPECT_EQ(with.total_attempts, without.total_attempts);
  EXPECT_EQ(with.total_round_latency, without.total_round_latency);
  EXPECT_EQ(with.link_sent, without.link_sent);
  EXPECT_EQ(with.link_dropped, without.link_dropped);
  EXPECT_EQ(with.link_duplicated, without.link_duplicated);
  EXPECT_EQ(with.wasted_measure_time, without.wasted_measure_time);
}

TEST(JournalIntegration, NdjsonIsByteIdenticalAcrossReruns) {
  const auto capture = [] {
    obs::EventJournal journal;
    obs::Observer observer(nullptr, &journal);
    NetworkScenarioConfig config = lossy_config();
    config.observer = &observer;
    (void)run_network_scenario(config);
    return journal.to_ndjson();
  };
  const std::string first = capture();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(capture(), first);
}

TEST(JournalIntegration, TimelinesReconstructEveryRound) {
  obs::EventJournal journal;
  obs::Observer observer(nullptr, &journal);
  NetworkScenarioConfig config = lossy_config();
  config.observer = &observer;
  const NetworkScenarioOutcome outcome = run_network_scenario(config);
  const auto rounds = obs::build_round_timelines(journal);
  ASSERT_EQ(rounds.size(), outcome.rounds_resolved);
  std::uint64_t attempts = 0;
  std::uint64_t wasted = 0;
  for (const auto& rt : rounds) {
    EXPECT_TRUE(rt.resolved());
    EXPECT_GE(rt.t_resolved, rt.t_start);
    attempts += rt.attempts;
    wasted += rt.wasted_measure_ns;
  }
  EXPECT_EQ(attempts, outcome.total_attempts);
  EXPECT_EQ(wasted, outcome.wasted_measure_time);
  // The transcript renders every round and names the prover.
  const std::string text = obs::explain(journal);
  EXPECT_NE(text.find("round 1 on prv-net"), std::string::npos) << text;
}

TEST(JournalIntegration, ProtocolEmitsMatchedChallengeAndReportFlows) {
  // Every clean round produces one challenge flow (vrf -> prover track)
  // and one report flow back, each a matched s/f pair in the Chrome
  // export so Perfetto draws the arrows across tracks.
  obs::TraceSink trace;
  obs::Observer observer(&trace);
  NetworkScenarioConfig config;
  config.rounds = 2;
  config.observer = &observer;
  const NetworkScenarioOutcome outcome = run_network_scenario(config);
  ASSERT_EQ(outcome.verified, 2u);
  const std::string json = trace.to_chrome_json();
  const auto count = [&json](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t pos = json.find(needle); pos != std::string::npos;
         pos = json.find(needle, pos + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count("\"name\":\"ra.challenge\",\"cat\":\"flow\",\"ph\":\"s\""), 2u)
      << json;
  EXPECT_EQ(count("\"name\":\"ra.challenge\",\"cat\":\"flow\",\"ph\":\"f\""), 2u);
  EXPECT_EQ(count("\"name\":\"ra.report\",\"cat\":\"flow\",\"ph\":\"s\""), 2u);
  EXPECT_EQ(count("\"name\":\"ra.report\",\"cat\":\"flow\",\"ph\":\"f\""), 2u);
}

TEST(JournalIntegration, FireAlarmJournalRecordsDeadlinesAndAlarm) {
  obs::EventJournal journal;
  obs::Observer observer(nullptr, &journal);
  FireAlarmScenarioConfig config;
  config.modeled_memory_bytes = 64ull << 20;
  config.real_blocks = 64;
  config.mode = attest::ExecutionMode::kAtomic;
  config.observer = &observer;
  const FireAlarmScenarioOutcome outcome = run_fire_alarm_scenario(config);
  EXPECT_EQ(count_kind(journal, obs::JournalEventKind::kDeadlineHit) +
                count_kind(journal, obs::JournalEventKind::kDeadlineMiss),
            outcome.samples_taken);
  EXPECT_EQ(count_kind(journal, obs::JournalEventKind::kDeadlineMiss),
            outcome.deadline_misses);
  EXPECT_EQ(count_kind(journal, obs::JournalEventKind::kAlarmRaised), 1u);
  obs::JournalFilter alarm;
  alarm.kind = obs::JournalEventKind::kAlarmRaised;
  EXPECT_EQ(journal.first(alarm)->a, outcome.alarm_latency);
}

TEST(JournalIntegration, CampaignHealthIsThreadCountIndependent) {
  const auto run = [](std::size_t threads) {
    exp::CampaignSpec spec = make_network_reliability_campaign();
    spec.trials_per_point = 8;
    spec.base_seed = 3;
    spec.threads = threads;
    // One lossy cell keeps the test fast while exercising retries.
    spec.grid.set_axis("drop_pct", {std::int64_t{30}});
    spec.grid.set_axis("max_attempts", {std::int64_t{3}});
    spec.grid.set_axis("timeout_ms", {std::int64_t{60}});
    return exp::run_campaign(spec);
  };
  const exp::CampaignResult serial = run(1);
  const exp::CampaignResult parallel = run(4);
  ASSERT_EQ(serial.cells.size(), 1u);
  // The health rollup is part of the cell and folded across trials.
  EXPECT_EQ(serial.cells[0].health.rounds(), 8u * 4u);
  EXPECT_FALSE(serial.cells[0].health.empty());
  // The whole artifact — including the embedded health block — is
  // byte-identical for any thread count.
  EXPECT_EQ(exp::campaign_json(serial), exp::campaign_json(parallel));
  EXPECT_NE(exp::campaign_json(serial).find("\"health\""), std::string::npos);
}

}  // namespace
}  // namespace rasc::apps
