#include "src/smarm/runner.hpp"

#include "src/support/rng.hpp"

namespace rasc::smarm {

RunnerOutcome run_rounds(const RunnerConfig& config) {
  sim::Simulator simulator;
  sim::DeviceConfig dev_config;
  dev_config.id = "prv-smarm";
  dev_config.memory_size = config.blocks * config.block_size;
  dev_config.block_size = config.block_size;
  dev_config.attestation_key = support::to_bytes("smarm-shared-key");
  sim::Device device(simulator, dev_config);
  const std::uint64_t provision_seed =
      config.provision_seed.value_or(0xf1f0 + config.seed);
  device.memory().load(support::random_bytes(device.memory().size(), provision_seed));

  // Challenge stream decorrelated from the trial seed so Monte-Carlo
  // trials exercise independent challenges, not one replayed sequence.
  std::uint64_t challenge_state = config.seed ^ 0xc0ffee;
  attest::Verifier verifier =
      config.golden != nullptr
          ? attest::Verifier(config.golden, dev_config.attestation_key,
                             support::splitmix64(challenge_state))
          : attest::Verifier(config.hash, dev_config.attestation_key,
                             device.memory().snapshot(), config.block_size,
                             support::splitmix64(challenge_state));

  attest::ProverConfig prover_config;
  prover_config.hash = config.hash;
  prover_config.mode = config.mode;
  prover_config.order = config.order;
  prover_config.priority = 10;
  attest::AttestationProcess mp(device, prover_config);

  malware::RelocatingConfig mal_config;
  mal_config.initial_block = config.seed % config.blocks;
  mal_config.strategy = config.strategy;
  mal_config.priority = 50;  // can interrupt the measurement
  mal_config.seed = 0x5eed0000 + config.seed;
  malware::SelfRelocatingMalware malware(device, mal_config);
  malware.infect_initial();
  mp.set_observer([&malware](std::size_t done, std::size_t total) {
    malware.on_measurement_progress(done, total);
  });

  simulator.set_observer(config.observer);

  RunnerOutcome outcome;
  for (std::size_t round = 0; round < config.rounds; ++round) {
    malware.on_measurement_start();
    const support::Bytes challenge = verifier.issue_challenge();
    attest::MeasurementContext context{device.id(), challenge, round + 1};
    bool done = false;
    attest::VerifyOutcome verdict;
    sim::Time t_s = 0;
    sim::Time t_e = 0;
    if (auto* sink = simulator.trace_sink()) {
      sink->begin(simulator.now(), "smarm", "smarm.round",
                  {obs::arg("round", static_cast<std::uint64_t>(round + 1))});
    }
    mp.start(std::move(context), [&](attest::AttestationResult result) {
      verdict = verifier.verify(result.report, /*expect_challenge=*/true);
      simulator.emit(obs::JournalEventKind::kVerifierVerdict, {device.id()}, {}, 0,
                     verdict.failed_checks(), verdict.localized.size());
      t_s = result.t_s;
      t_e = result.t_e;
      done = true;
    });
    simulator.run();
    if (auto* sink = simulator.trace_sink()) {
      sink->end(simulator.now(), "smarm",
                {obs::arg("detected", std::string(done && !verdict.ok() ? "yes" : "no"))});
    }
    if (!done) break;  // should not happen: the simulation quiesced early
    ++outcome.rounds_run;
    simulator.emit(obs::JournalEventKind::kSmarmRound, {device.id()}, {}, round + 1,
                   verdict.ok() ? 0 : 1, t_e - t_s);
    if (!verdict.ok()) {
      ++outcome.detections;
      outcome.ever_detected = true;
    }
  }
  outcome.malware_relocations = malware.relocations();
  outcome.malware_blocked_relocations = malware.blocked_relocations();
  return outcome;
}

double full_stack_single_round_escape(const RunnerConfig& base, std::size_t trials) {
  std::size_t escapes = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    RunnerConfig config = base;
    config.rounds = 1;
    config.seed = base.seed * 1000003 + t;
    const RunnerOutcome outcome = run_rounds(config);
    if (outcome.rounds_run == 1 && outcome.detections == 0) ++escapes;
  }
  return static_cast<double>(escapes) / static_cast<double>(trials);
}

}  // namespace rasc::smarm
