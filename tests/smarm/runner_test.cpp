#include "src/smarm/runner.hpp"

#include <gtest/gtest.h>

#include "src/smarm/escape.hpp"

namespace rasc::smarm {
namespace {

TEST(Runner, CompletesConfiguredRounds) {
  RunnerConfig config;
  config.blocks = 16;
  config.block_size = 256;
  config.rounds = 3;
  const auto outcome = run_rounds(config);
  EXPECT_EQ(outcome.rounds_run, 3u);
}

TEST(Runner, RovingMalwareRelocatesThroughoutMeasurement) {
  RunnerConfig config;
  config.blocks = 16;
  config.block_size = 256;
  config.rounds = 1;
  const auto outcome = run_rounds(config);
  // The roving adversary moves once per measured block (minus the caught
  // tail if detection happened).
  EXPECT_GE(outcome.malware_relocations, 1u);
}

TEST(Runner, AtomicModeAlwaysDetects) {
  // Without interrupts the malware cannot move: caught every round.
  RunnerConfig config;
  config.blocks = 16;
  config.block_size = 256;
  config.mode = attest::ExecutionMode::kAtomic;
  config.rounds = 4;
  const auto outcome = run_rounds(config);
  EXPECT_EQ(outcome.detections, 4u);
  EXPECT_EQ(outcome.malware_relocations, 0u);
}

TEST(Runner, MultiRoundDetectionIsNearCertain) {
  // Escape of 10 shuffled rounds at n=16: (1-1/16)^160 ~ 3e-5.
  RunnerConfig config;
  config.blocks = 16;
  config.block_size = 128;
  config.rounds = 10;
  config.seed = 11;
  const auto outcome = run_rounds(config);
  EXPECT_TRUE(outcome.ever_detected);
}

TEST(Runner, FullStackEscapeRateMatchesAnalyticModel) {
  // The end-to-end pipeline (real permutation, real relocation writes,
  // real verifier) should reproduce the abstract game's escape rate.
  RunnerConfig config;
  config.blocks = 12;
  config.block_size = 128;
  const double analytic = single_round_escape(12);  // ~0.352
  const double measured = full_stack_single_round_escape(config, 300);
  EXPECT_NEAR(measured, analytic, 0.09);
}

TEST(Runner, SequentialInterruptibleAlsoCatchesBlindRover) {
  // A rover that cannot see the order gains nothing from a sequential
  // sweep being public (it does not use that information).
  RunnerConfig config;
  config.blocks = 16;
  config.block_size = 128;
  config.order = attest::TraversalOrder::kSequential;
  config.rounds = 8;
  const auto outcome = run_rounds(config);
  EXPECT_GT(outcome.detections, 0u);
}

TEST(Runner, DeterministicPerSeed) {
  RunnerConfig config;
  config.blocks = 16;
  config.block_size = 128;
  config.rounds = 5;
  config.seed = 99;
  const auto a = run_rounds(config);
  const auto b = run_rounds(config);
  EXPECT_EQ(a.detections, b.detections);
  EXPECT_EQ(a.malware_relocations, b.malware_relocations);
}

TEST(Runner, EachRoundEmitsAVerdictAndARoundFact) {
  obs::EventJournal journal;
  obs::MetricsRegistry metrics;
  obs::Observer observer(nullptr, &journal, &metrics);
  RunnerConfig config;
  config.blocks = 16;
  config.block_size = 256;
  config.rounds = 4;
  config.observer = &observer;
  const auto outcome = run_rounds(config);
  ASSERT_EQ(outcome.rounds_run, 4u);

  obs::JournalFilter rounds;
  rounds.kind = obs::JournalEventKind::kSmarmRound;
  const std::vector<obs::JournalEvent> facts = journal.select(rounds);
  ASSERT_EQ(facts.size(), 4u);
  std::size_t detected = 0;
  for (const obs::JournalEvent& fact : facts) {
    detected += fact.a;
    EXPECT_GT(fact.b, 0u);  // measurement duration
  }
  EXPECT_EQ(detected, outcome.detections);
  EXPECT_EQ(metrics.find_counter("smarm.rounds")->value(), 4u);
  EXPECT_EQ(metrics.find_counter("verifier.verify_total")->value(), 4u);
  EXPECT_EQ(metrics.find_histogram("smarm.round_duration_ms")->count(), 4u);
  const obs::Counter* detections = metrics.find_counter("smarm.detections");
  EXPECT_EQ(detections == nullptr ? 0u : detections->value(), outcome.detections);
  const obs::Counter* failures = metrics.find_counter("verifier.verify_fail");
  EXPECT_EQ(failures == nullptr ? 0u : failures->value(), outcome.detections);
}

}  // namespace
}  // namespace rasc::smarm
