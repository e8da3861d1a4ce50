/// Integration tests exercising several modules together: the on-demand
/// protocol over a lossy network against live adversaries, attestation
/// coexisting with the safety-critical application, and cross-mechanism
/// sanity sweeps.

#include <gtest/gtest.h>

#include "src/apps/fire_alarm.hpp"
#include "src/apps/scenario.hpp"
#include "src/attest/protocol.hpp"
#include "src/locking/policies.hpp"
#include "src/malware/relocating.hpp"
#include "src/selfmeasure/erasmus.hpp"
#include "src/support/rng.hpp"

namespace rasc {
namespace {

using support::to_bytes;

TEST(FullStack, OnDemandProtocolWithLockingAndChaseMalware) {
  // Chase malware vs Inc-Lock over the full network protocol: blocked and
  // detected end-to-end.
  sim::Simulator simulator;
  sim::Device device(simulator,
                     sim::DeviceConfig{"prv-it", 32 * 512, 512, to_bytes("it-key")});
  device.memory().load(support::random_bytes(32 * 512, 77));
  attest::Verifier verifier(crypto::HashKind::kSha256, to_bytes("it-key"),
                            device.memory().snapshot(), 512);

  auto policy = locking::make_lock_policy(locking::LockMechanism::kIncLock);
  attest::ProverConfig pc;
  pc.mode = attest::ExecutionMode::kInterruptible;
  attest::AttestationProcess mp(device, pc, policy.get());

  malware::RelocatingConfig mc;
  mc.initial_block = 16;
  mc.strategy = malware::RelocationStrategy::kChaseMeasured;
  malware::SelfRelocatingMalware malware(device, mc);
  malware.infect_initial();
  mp.set_observer([&](std::size_t done, std::size_t total) {
    malware.on_measurement_progress(done, total);
  });

  sim::Link up(simulator, {});
  sim::Link down(simulator, {});
  attest::OnDemandProtocol protocol(device, verifier, mp, up, down);

  bool done = false;
  attest::VerifyOutcome outcome;
  malware.on_measurement_start();
  protocol.run(1, [&](attest::OnDemandTimings t) {
    outcome = t.outcome;
    done = true;
  });
  simulator.run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(outcome.mac_ok);
  EXPECT_FALSE(outcome.digest_ok);
  EXPECT_GE(malware.blocked_relocations(), 1u);
}

TEST(FullStack, SmarmOverProtocolDetectsWithinRounds) {
  // Shuffled interruptible measurement vs roving malware, repeated rounds
  // over the protocol until detection; expected geometric with p ~ 0.65.
  sim::Simulator simulator;
  sim::Device device(simulator,
                     sim::DeviceConfig{"prv-sm", 16 * 512, 512, to_bytes("sm-key")});
  device.memory().load(support::random_bytes(16 * 512, 88));
  attest::Verifier verifier(crypto::HashKind::kSha256, to_bytes("sm-key"),
                            device.memory().snapshot(), 512);

  attest::ProverConfig pc;
  pc.mode = attest::ExecutionMode::kInterruptible;
  pc.order = attest::TraversalOrder::kShuffledSecret;
  attest::AttestationProcess mp(device, pc);

  malware::RelocatingConfig mc;
  mc.strategy = malware::RelocationStrategy::kRovingUniform;
  mc.seed = 0x9a9a;
  malware::SelfRelocatingMalware malware(device, mc);
  malware.infect_initial();
  mp.set_observer([&](std::size_t done, std::size_t total) {
    malware.on_measurement_progress(done, total);
  });

  sim::Link up(simulator, {});
  sim::Link down(simulator, {});
  attest::OnDemandProtocol protocol(device, verifier, mp, up, down);

  int detected_round = -1;
  std::function<void(int)> round = [&](int k) {
    if (k > 30) return;
    malware.on_measurement_start();
    protocol.run(static_cast<std::uint64_t>(k), [&, k](attest::OnDemandTimings t) {
      if (!t.outcome.digest_ok && detected_round < 0) {
        detected_round = k;
        return;
      }
      if (detected_round < 0) round(k + 1);
    });
  };
  round(1);
  simulator.run();
  ASSERT_GT(detected_round, 0);
  EXPECT_LE(detected_round, 30);
}

TEST(FullStack, ErasmusRunsAlongsideFireAlarmWithoutHarm) {
  // Self-measurement at low priority + interruptible mode: the critical
  // app's sampling jitter stays tiny while attestation still completes.
  sim::Simulator simulator;
  sim::Device device(simulator,
                     sim::DeviceConfig{"prv-fa", 64 * 1024, 1024, to_bytes("fa-key")});
  device.memory().load(support::random_bytes(64 * 1024, 99));
  attest::Verifier verifier(crypto::HashKind::kSha256, to_bytes("fa-key"),
                            device.memory().snapshot(), 1024);

  apps::FireAlarmConfig fa;
  fa.period = 100 * sim::kMillisecond;
  apps::FireAlarmTask alarm(device, fa);
  alarm.set_fire_time(sim::from_seconds(2.05));
  alarm.arm(sim::from_seconds(5));

  selfm::ErasmusConfig ec;
  ec.period = 500 * sim::kMillisecond;
  ec.mode = attest::ExecutionMode::kInterruptible;
  selfm::ErasmusProver prover(device, ec);
  prover.start(sim::from_seconds(5));

  simulator.run();
  ASSERT_TRUE(alarm.alarm_latency().has_value());
  EXPECT_LT(sim::to_seconds(*alarm.alarm_latency()), 0.2);
  EXPECT_GE(prover.measurements_taken(), 9u);
  for (const auto& report : prover.history()) {
    EXPECT_TRUE(verifier.verify(report, false).ok());
  }
}

TEST(FullStack, AtomicErasmusStarvesFireAlarm) {
  // Same setup but atomic self-measurement on a big (scaled) memory: the
  // app's jitter explodes — the paper's core conflict, now via ERASMUS.
  sim::Simulator simulator;
  sim::Device device(simulator,
                     sim::DeviceConfig{"prv-fb", 64 * 1024, 1024, to_bytes("fb-key")});
  device.memory().load(support::random_bytes(64 * 1024, 100));
  device.model().set_hash_time_scale(1000.0);  // model ~64 MB -> seconds

  apps::FireAlarmConfig fa;
  fa.period = 100 * sim::kMillisecond;
  apps::FireAlarmTask alarm(device, fa);
  alarm.arm(sim::from_seconds(5));

  selfm::ErasmusConfig ec;
  ec.period = 2 * sim::kSecond;
  ec.mode = attest::ExecutionMode::kAtomic;
  selfm::ErasmusProver prover(device, ec);
  prover.start(sim::from_seconds(4));

  simulator.run();
  EXPECT_GT(sim::to_seconds(alarm.max_sample_delay()), 0.2);
}

TEST(FullStack, RovingMalwareUnderAllLockCannotMoveAndIsDetected) {
  apps::LockScenarioConfig config;
  config.blocks = 32;
  config.block_size = 512;
  config.mode = attest::ExecutionMode::kInterruptible;
  config.lock = locking::LockMechanism::kAllLock;
  config.adversary = apps::AdversaryKind::kRelocRoving;
  const auto outcome = run_lock_scenario(config);
  ASSERT_TRUE(outcome.completed);
  EXPECT_TRUE(outcome.detected);
}

TEST(FullStack, MechanismSweepBenignAndAdversarial) {
  // Smoke-sweep every mechanism x adversary; benign rounds pass, and the
  // detection matrix matches Table 1 where deterministic.
  for (locking::LockMechanism lock : locking::kAllLockMechanisms) {
    for (apps::AdversaryKind adv :
         {apps::AdversaryKind::kNone, apps::AdversaryKind::kTransientLeaver,
          apps::AdversaryKind::kRelocChase}) {
      apps::LockScenarioConfig config;
      config.blocks = 32;
      config.block_size = 512;
      config.mode = attest::ExecutionMode::kInterruptible;
      config.lock = lock;
      config.release_delay = sim::kMillisecond;
      config.adversary = adv;
      const auto outcome = run_lock_scenario(config);
      ASSERT_TRUE(outcome.completed)
          << lock_mechanism_name(lock) << " / " << apps::adversary_name(adv);
      if (adv == apps::AdversaryKind::kNone) {
        EXPECT_FALSE(outcome.detected) << lock_mechanism_name(lock);
      }
    }
  }
}

}  // namespace
}  // namespace rasc
