/// Cross-feature integration: combinations the paper implies but no single
/// module owns — self-measurement under a locking policy, signed reports
/// over the full protocol, shuffled measurement with CBC-MAC, and Cpy-Lock
/// keeping the fire alarm prompt during a measurement.

#include <gtest/gtest.h>

#include "src/apps/scenario.hpp"
#include "src/attest/protocol.hpp"
#include "src/locking/consistency.hpp"
#include "src/locking/policies.hpp"
#include "src/malware/transient.hpp"
#include "src/selfmeasure/erasmus.hpp"
#include "src/support/rng.hpp"

namespace rasc {
namespace {

using support::to_bytes;

TEST(CrossFeature, ErasmusWithDecLockConvictsTransientAtTs) {
  // Self-measurement + Dec-Lock: the transient adversary present at a
  // measurement's t_s cannot erase itself even between self-measurements'
  // block segments.
  sim::Simulator simulator;
  sim::Device device(simulator,
                     sim::DeviceConfig{"prv-el", 32 * 512, 512, to_bytes("el-key")});
  device.memory().load(support::random_bytes(32 * 512, 3));
  attest::Verifier verifier(crypto::HashKind::kSha256, to_bytes("el-key"),
                            device.memory().snapshot(), 512);

  auto policy = locking::make_lock_policy(locking::LockMechanism::kDecLock);
  selfm::ErasmusConfig config;
  config.period = 100 * sim::kMillisecond;
  config.mode = attest::ExecutionMode::kInterruptible;
  selfm::ErasmusProver prover(device, config, policy.get());

  // Infect just before a scheduled measurement; try to erase right after
  // it begins (the block is late in the sequential order).
  malware::TransientConfig mc;
  mc.block = 30;
  mc.infect_at = 195 * sim::kMillisecond;
  // Erase attempt lands mid-measurement: the t=200 ms measurement sweeps
  // 32 blocks in ~280 us, and block 30 is visited near the end.
  mc.dwell = 5 * sim::kMillisecond + 150 * sim::kMicrosecond;
  malware::TransientMalware malware(device, mc);
  malware.arm();

  prover.start(sim::from_seconds(0.5));
  simulator.run();

  bool any_bad = false;
  for (const auto& report : prover.history()) {
    if (!verifier.verify(report, /*expect_challenge=*/false).ok()) any_bad = true;
  }
  EXPECT_TRUE(any_bad);
  EXPECT_GE(malware.failed_erase_attempts(), 1u);
}

TEST(CrossFeature, SignedReportsOverProtocolProvideNonRepudiation) {
  sim::Simulator simulator;
  sim::Device device(simulator,
                     sim::DeviceConfig{"prv-sg", 16 * 512, 512, to_bytes("sg-key")});
  device.memory().load(support::random_bytes(16 * 512, 4));
  attest::Verifier verifier(crypto::HashKind::kSha256, to_bytes("sg-key"),
                            device.memory().snapshot(), 512);

  crypto::HmacDrbg drbg(to_bytes("device-signing-key"));
  auto signer = crypto::make_signer(crypto::SigKind::kEcdsa256, drbg);
  attest::ProverConfig config;
  config.signature = crypto::SigKind::kEcdsa256;
  attest::AttestationProcess mp(device, config);
  mp.set_signer(signer.get());

  sim::Link up(simulator, {}), down(simulator, {});
  attest::OnDemandProtocol protocol(device, verifier, mp, up, down);
  bool checked = false;
  protocol.run(1, [&](attest::OnDemandTimings t) {
    EXPECT_TRUE(t.outcome.ok());
    // Anyone holding only the *public* key can audit the report.
    EXPECT_TRUE(report_signature_valid(t.attestation.report, *signer));
    attest::Report tampered = t.attestation.report;
    tampered.counter ^= 1;
    EXPECT_FALSE(report_signature_valid(tampered, *signer));
    checked = true;
  });
  simulator.run();
  EXPECT_TRUE(checked);
}

TEST(CrossFeature, ShuffledCbcMacMeasurementVerifies) {
  sim::Simulator simulator;
  sim::Device device(simulator,
                     sim::DeviceConfig{"prv-sc", 16 * 512, 512, support::Bytes(16, 0x5c)});
  device.memory().load(support::random_bytes(16 * 512, 5));
  attest::Verifier verifier(crypto::HashKind::kSha256, support::Bytes(16, 0x5c),
                            device.memory().snapshot(), 512, 0xc0ffee,
                            attest::MacKind::kCbcMac);
  attest::ProverConfig config;
  config.mac = attest::MacKind::kCbcMac;
  config.order = attest::TraversalOrder::kShuffledSecret;
  config.mode = attest::ExecutionMode::kInterruptible;
  attest::AttestationProcess mp(device, config);
  bool ok = false;
  mp.start(attest::MeasurementContext{device.id(), verifier.issue_challenge(), 1},
           [&](attest::AttestationResult result) {
             ok = verifier.verify(result.report).ok();
           });
  simulator.run();
  EXPECT_TRUE(ok);
}

TEST(CrossFeature, CpyLockKeepsFireAlarmPromptDuringMeasurement) {
  // Snapshot-based consistency + interruptible MP: the critical task sees
  // microsecond jitter while the measurement stays t_s-consistent.
  apps::LockScenarioConfig config;
  config.blocks = 64;
  config.block_size = 1024;
  config.mode = attest::ExecutionMode::kInterruptible;
  config.lock = locking::LockMechanism::kCpyLock;
  config.writer_enabled = true;
  const auto outcome = apps::run_lock_scenario(config);
  ASSERT_TRUE(outcome.completed);
  EXPECT_DOUBLE_EQ(outcome.writer_availability, 1.0);
  EXPECT_TRUE(outcome.consistency.at_ts);
}

}  // namespace
}  // namespace rasc
