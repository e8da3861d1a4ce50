#include "src/apps/scenario.hpp"

#include <gtest/gtest.h>

namespace rasc::apps {
namespace {

using locking::LockMechanism;

LockScenarioConfig base_config() {
  LockScenarioConfig config;
  config.blocks = 32;
  config.block_size = 512;
  config.mode = attest::ExecutionMode::kInterruptible;
  return config;
}

// ---- benign rounds ---------------------------------------------------------

TEST(Scenario, BenignDevicePassesUnderEveryMechanism) {
  for (LockMechanism lock : locking::kAllLockMechanisms) {
    LockScenarioConfig config = base_config();
    config.lock = lock;
    config.release_delay = 5 * sim::kMillisecond;
    const auto outcome = run_lock_scenario(config);
    EXPECT_TRUE(outcome.completed) << lock_mechanism_name(lock);
    EXPECT_FALSE(outcome.detected) << lock_mechanism_name(lock);
  }
}

TEST(Scenario, LocksAreReleasedAfterRound) {
  // Indirect check: a second benign round under the same config passes.
  LockScenarioConfig config = base_config();
  config.lock = LockMechanism::kAllLockExt;
  config.release_delay = sim::kMillisecond;
  EXPECT_FALSE(run_lock_scenario(config).detected);
}

// ---- Table 1: self-relocating malware (chase attack) -----------------------

TEST(Scenario, ChaseAttackEvadesNoLockInterruptible) {
  // Section 3.1: with interrupts and no locking, malware in the second
  // half interrupts MP, copies into the measured first half and scrubs
  // itself -> all locations measured, nothing detected.
  LockScenarioConfig config = base_config();
  config.lock = LockMechanism::kNoLock;
  config.adversary = AdversaryKind::kRelocChase;
  const auto outcome = run_lock_scenario(config);
  ASSERT_TRUE(outcome.completed);
  EXPECT_FALSE(outcome.detected);
  EXPECT_TRUE(outcome.malware_escaped);
}

TEST(Scenario, ChaseAttackFailsUnderAtomicSmart) {
  // SMART: no interrupts, malware never gets the CPU mid-measurement.
  LockScenarioConfig config = base_config();
  config.lock = LockMechanism::kNoLock;
  config.mode = attest::ExecutionMode::kAtomic;
  config.adversary = AdversaryKind::kRelocChase;
  const auto outcome = run_lock_scenario(config);
  ASSERT_TRUE(outcome.completed);
  EXPECT_TRUE(outcome.detected);
}

TEST(Scenario, ChaseAttackDetectedUnderAllLock) {
  LockScenarioConfig config = base_config();
  config.lock = LockMechanism::kAllLock;
  config.adversary = AdversaryKind::kRelocChase;
  const auto outcome = run_lock_scenario(config);
  ASSERT_TRUE(outcome.completed);
  EXPECT_TRUE(outcome.detected);
  EXPECT_GE(outcome.malware_blocked_actions, 1u);
}

TEST(Scenario, ChaseAttackDetectedUnderIncLock) {
  // Inc-Lock: already-measured blocks are locked, so the copy into the
  // measured region faults.
  LockScenarioConfig config = base_config();
  config.lock = LockMechanism::kIncLock;
  config.adversary = AdversaryKind::kRelocChase;
  const auto outcome = run_lock_scenario(config);
  ASSERT_TRUE(outcome.completed);
  EXPECT_TRUE(outcome.detected);
  EXPECT_GE(outcome.malware_blocked_actions, 1u);
}

TEST(Scenario, ChaseAttackDetectedUnderDecLock) {
  // Dec-Lock: measured blocks are unlocked (the copy may land), but the
  // malware's own block is still locked, so the scrub fails and the stale
  // body is measured.
  LockScenarioConfig config = base_config();
  config.lock = LockMechanism::kDecLock;
  config.adversary = AdversaryKind::kRelocChase;
  const auto outcome = run_lock_scenario(config);
  ASSERT_TRUE(outcome.completed);
  EXPECT_TRUE(outcome.detected);
}

// ---- Table 1: transient malware --------------------------------------------

TEST(Scenario, TransientEvadesNoLockInterruptible) {
  LockScenarioConfig config = base_config();
  config.lock = LockMechanism::kNoLock;
  config.adversary = AdversaryKind::kTransientLeaver;
  const auto outcome = run_lock_scenario(config);
  ASSERT_TRUE(outcome.completed);
  EXPECT_FALSE(outcome.detected);
  EXPECT_TRUE(outcome.malware_escaped);
}

TEST(Scenario, TransientEvadesIncLock) {
  // Inc-Lock is consistent at t_e only: malware that erases itself before
  // its block is visited (and before that block gets locked) escapes.
  LockScenarioConfig config = base_config();
  config.lock = LockMechanism::kIncLock;
  config.adversary = AdversaryKind::kTransientLeaver;
  const auto outcome = run_lock_scenario(config);
  ASSERT_TRUE(outcome.completed);
  EXPECT_FALSE(outcome.detected);
}

TEST(Scenario, TransientDetectedUnderDecLock) {
  // Dec-Lock is consistent at t_s: anything present at t_s is measured
  // before it can erase itself (the erase faults on the lock).
  LockScenarioConfig config = base_config();
  config.lock = LockMechanism::kDecLock;
  config.adversary = AdversaryKind::kTransientLeaver;
  const auto outcome = run_lock_scenario(config);
  ASSERT_TRUE(outcome.completed);
  EXPECT_TRUE(outcome.detected);
  EXPECT_GE(outcome.malware_blocked_actions, 1u);
}

TEST(Scenario, TransientDetectedUnderAllLock) {
  LockScenarioConfig config = base_config();
  config.lock = LockMechanism::kAllLock;
  config.adversary = AdversaryKind::kTransientLeaver;
  const auto outcome = run_lock_scenario(config);
  ASSERT_TRUE(outcome.completed);
  EXPECT_TRUE(outcome.detected);
}

TEST(Scenario, TransientDetectedUnderAtomic) {
  LockScenarioConfig config = base_config();
  config.lock = LockMechanism::kNoLock;
  config.mode = attest::ExecutionMode::kAtomic;
  config.adversary = AdversaryKind::kTransientLeaver;
  const auto outcome = run_lock_scenario(config);
  ASSERT_TRUE(outcome.completed);
  EXPECT_TRUE(outcome.detected);
}

// ---- Table 1: consistency guarantees ----------------------------------------

TEST(Scenario, ConsistencyColumnsMatchTable1) {
  // Run each mechanism with an active writer and compare the analyzer's
  // verdict to the paper's claims.
  auto run = [&](LockMechanism lock) {
    LockScenarioConfig config = base_config();
    config.lock = lock;
    config.writer_enabled = true;
    config.release_delay = 2 * sim::kMillisecond;
    return run_lock_scenario(config);
  };

  const auto all = run(LockMechanism::kAllLock);
  EXPECT_TRUE(all.consistency.at_ts);
  EXPECT_TRUE(all.consistency.at_te);

  const auto dec = run(LockMechanism::kDecLock);
  EXPECT_TRUE(dec.consistency.at_ts);  // consistent with M at t_s only

  const auto inc = run(LockMechanism::kIncLock);
  EXPECT_TRUE(inc.consistency.at_te);  // consistent with M at t_e only

  const auto inc_ext = run(LockMechanism::kIncLockExt);
  EXPECT_TRUE(inc_ext.consistency.at_te);
  EXPECT_TRUE(inc_ext.consistency.at_tr);  // constant on [t_e, t_r]

  const auto all_ext = run(LockMechanism::kAllLockExt);
  EXPECT_TRUE(all_ext.consistency.at_ts);
  EXPECT_TRUE(all_ext.consistency.at_tr);
}

TEST(Scenario, NoLockWithWriterIsInconsistent) {
  // With a busy writer and no locking, the report reflects a state that
  // never existed: inconsistent at every canonical instant.
  LockScenarioConfig config = base_config();
  config.lock = LockMechanism::kNoLock;
  config.writer_enabled = true;
  // Make the measurement long enough for several writer periods.
  config.blocks = 64;
  const auto outcome = run_lock_scenario(config);
  ASSERT_TRUE(outcome.completed);
  EXPECT_FALSE(outcome.consistency.at_ts);
  EXPECT_FALSE(outcome.consistency.at_te);
}

// ---- Table 1: writable-memory availability ----------------------------------

TEST(Scenario, AvailabilityOrderingMatchesTable1) {
  auto availability = [&](LockMechanism lock) {
    LockScenarioConfig config = base_config();
    config.lock = lock;
    config.writer_enabled = true;
    config.blocks = 64;
    const auto outcome = run_lock_scenario(config);
    EXPECT_GT(outcome.writer_attempts_during, 0u) << lock_mechanism_name(lock);
    return outcome.writer_availability;
  };

  const double no_lock = availability(LockMechanism::kNoLock);
  const double all_lock = availability(LockMechanism::kAllLock);
  const double dec_lock = availability(LockMechanism::kDecLock);
  const double inc_lock = availability(LockMechanism::kIncLock);

  EXPECT_DOUBLE_EQ(no_lock, 1.0);
  EXPECT_LT(all_lock, 0.2);          // X in Table 1: essentially unavailable
  EXPECT_GT(dec_lock, all_lock);     // "to some degree"
  EXPECT_GT(inc_lock, all_lock);     // "to some degree"
  EXPECT_LT(dec_lock, 1.0);
  EXPECT_LT(inc_lock, 1.0);
}

// ---- when a round ends -------------------------------------------------------

// A round returns once the attestation has completed and the writer's series
// is the only event left.  Events still queued at t_e (the transient's
// blocked-erase retries until an extended lock releases, relocations, lock
// releases) must fire as before, in the same order against the writer, so
// these outcomes are pinned exactly.
struct PinnedRound {
  LockMechanism lock;
  AdversaryKind adversary;
  std::size_t malware_blocked_actions;
  std::size_t writer_attempts_during;
  sim::Duration measurement_duration;
};

TEST(Scenario, WriterRoundOutcomesArePinned) {
  const PinnedRound pinned[] = {
      // The erase retries until the extended lock releases at t_e + 2 ms.
      {LockMechanism::kAllLockExt, AdversaryKind::kTransientLeaver, 3, 6, 317265},
      {LockMechanism::kIncLockExt, AdversaryKind::kTransientLeaver, 0, 6, 317265},
      {LockMechanism::kDecLock, AdversaryKind::kRelocChase, 0, 6, 317265},
  };
  for (const PinnedRound& round : pinned) {
    LockScenarioConfig config = base_config();
    config.lock = round.lock;
    config.adversary = round.adversary;
    config.writer_enabled = true;
    config.release_delay = 2 * sim::kMillisecond;
    const auto outcome = run_lock_scenario(config);
    const std::string label = lock_mechanism_name(round.lock) + " / " +
                              adversary_name(round.adversary);
    ASSERT_TRUE(outcome.completed) << label;
    EXPECT_EQ(outcome.malware_blocked_actions, round.malware_blocked_actions) << label;
    EXPECT_EQ(outcome.writer_attempts_during, round.writer_attempts_during) << label;
    EXPECT_EQ(outcome.measurement_duration, round.measurement_duration) << label;
  }
}

// ---- lossy-link reliable sessions ------------------------------------------

TEST(Scenario, NetworkScenarioCleanLinkVerifiesEveryRound) {
  NetworkScenarioConfig config;
  config.rounds = 3;
  const NetworkScenarioOutcome outcome = run_network_scenario(config);
  EXPECT_TRUE(outcome.all_resolved);
  EXPECT_EQ(outcome.rounds_resolved, 3u);
  EXPECT_EQ(outcome.verified, 3u);
  EXPECT_EQ(outcome.total_attempts, 3u);
  EXPECT_EQ(outcome.retries, 0u);
  EXPECT_EQ(outcome.wasted_measure_time, 0u);
  EXPECT_EQ(outcome.link_dropped, 0u);
}

TEST(Scenario, NetworkScenarioResolvesEveryRoundOnVeryLossyLink) {
  NetworkScenarioConfig config;
  config.rounds = 6;
  config.drop_probability = 0.4;
  config.duplicate_probability = 0.2;
  config.corrupt_probability = 0.1;
  config.reorder_probability = 0.2;
  config.session.max_attempts = 5;
  config.session.response_timeout = 100 * sim::kMillisecond;
  const NetworkScenarioOutcome outcome = run_network_scenario(config);
  EXPECT_TRUE(outcome.all_resolved);
  EXPECT_EQ(outcome.rounds_resolved, 6u);
  EXPECT_GT(outcome.link_dropped, 0u);
  // Every terminal outcome is accounted for exactly once.
  EXPECT_EQ(outcome.verified + outcome.compromised + outcome.timeouts +
                outcome.corrupt_report + outcome.replay_rejected,
            outcome.rounds_resolved);
}

TEST(Scenario, NetworkScenarioDetectsInfectionDespiteLoss) {
  NetworkScenarioConfig config;
  config.rounds = 4;
  config.infected = true;
  config.drop_probability = 0.2;
  config.session.max_attempts = 6;
  const NetworkScenarioOutcome outcome = run_network_scenario(config);
  EXPECT_TRUE(outcome.all_resolved);
  EXPECT_GT(outcome.compromised, 0u);
  EXPECT_EQ(outcome.verified, 0u);  // never misjudged healthy
}

TEST(Scenario, NetworkScenarioIsDeterministic) {
  NetworkScenarioConfig config;
  config.rounds = 4;
  config.drop_probability = 0.3;
  config.duplicate_probability = 0.1;
  const NetworkScenarioOutcome a = run_network_scenario(config);
  const NetworkScenarioOutcome b = run_network_scenario(config);
  EXPECT_EQ(a.verified, b.verified);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.total_attempts, b.total_attempts);
  EXPECT_EQ(a.total_round_latency, b.total_round_latency);
  EXPECT_EQ(a.link_dropped, b.link_dropped);
  EXPECT_EQ(a.wasted_measure_time, b.wasted_measure_time);
}

TEST(Scenario, AdversaryNamesAreStable) {
  EXPECT_EQ(adversary_name(AdversaryKind::kNone), "none");
  EXPECT_EQ(adversary_name(AdversaryKind::kTransientLeaver), "transient");
  EXPECT_NE(adversary_name(AdversaryKind::kRelocChase),
            adversary_name(AdversaryKind::kRelocRoving));
}

}  // namespace
}  // namespace rasc::apps
