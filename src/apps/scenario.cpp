#include "src/apps/scenario.hpp"

#include "src/apps/fire_alarm.hpp"
#include "src/apps/writer_task.hpp"
#include "src/support/rng.hpp"

namespace rasc::apps {

namespace {

void provision(sim::Device& device, std::uint64_t seed) {
  device.memory().load(provision_image(device.memory().size(), seed));
}

/// Decorrelate the verifier's challenge stream from the scenario seed so
/// independent Monte-Carlo trials issue independent challenges.
std::uint64_t challenge_seed_for(std::uint64_t scenario_seed) {
  std::uint64_t state = scenario_seed ^ 0xc0ffee;
  return support::splitmix64(state);
}

}  // namespace

std::string adversary_name(AdversaryKind kind) {
  switch (kind) {
    case AdversaryKind::kNone: return "none";
    case AdversaryKind::kTransientLeaver: return "transient";
    case AdversaryKind::kRelocChase: return "self-relocating (chase)";
    case AdversaryKind::kRelocRoving: return "self-relocating (roving)";
  }
  return "?";
}

LockScenarioOutcome run_lock_scenario(const LockScenarioConfig& config) {
  sim::Simulator simulator;
  sim::DeviceConfig dev_config;
  dev_config.id = "prv-lock";
  dev_config.memory_size = config.blocks * config.block_size;
  dev_config.block_size = config.block_size;
  dev_config.attestation_key = support::to_bytes("table1-shared-key");
  sim::Device device(simulator, dev_config);
  provision(device, 0xface + config.seed);

  attest::Verifier verifier(config.hash, dev_config.attestation_key,
                            device.memory().snapshot(), config.block_size,
                            challenge_seed_for(config.seed));

  auto policy = locking::make_lock_policy(config.lock, config.release_delay);
  attest::ProverConfig prover_config;
  prover_config.hash = config.hash;
  prover_config.mode = config.mode;
  prover_config.order = config.order;
  prover_config.priority = 10;
  attest::AttestationProcess mp(device, prover_config, policy.get());

  // Adversaries.
  std::optional<malware::TransientMalware> transient;
  std::optional<malware::SelfRelocatingMalware> reloc;
  const sim::Time t_mp = 10 * sim::kMillisecond;
  const sim::Duration block_cost = mp.block_cost();

  switch (config.adversary) {
    case AdversaryKind::kNone:
      break;
    case AdversaryKind::kTransientLeaver: {
      malware::TransientConfig mc;
      mc.block = config.blocks - 2;  // measured late under sequential order
      mc.infect_at = sim::kMillisecond;
      // Erase attempt lands a few blocks into the measurement: after t_s
      // but (for sequential order) well before its block is visited.
      mc.dwell = (t_mp - mc.infect_at) + 3 * block_cost;
      transient.emplace(device, mc);
      transient->arm();
      break;
    }
    case AdversaryKind::kRelocChase:
    case AdversaryKind::kRelocRoving: {
      malware::RelocatingConfig mc;
      mc.initial_block = config.blocks / 2;  // second half: chase textbook setup
      mc.strategy = config.adversary == AdversaryKind::kRelocChase
                        ? malware::RelocationStrategy::kChaseMeasured
                        : malware::RelocationStrategy::kRovingUniform;
      mc.priority = 50;
      mc.seed = 0x3100 + config.seed;
      reloc.emplace(device, mc);
      reloc->infect_initial();
      mp.set_observer([&reloc](std::size_t done, std::size_t total) {
        reloc->on_measurement_progress(done, total);
      });
      break;
    }
  }

  // Application workload (availability probe).
  std::optional<WriterTask> writer;
  if (config.writer_enabled) {
    WriterConfig wc;
    // Fast enough that a measurement of `blocks` blocks sees many writes.
    wc.period = 50 * sim::kMicrosecond;
    wc.seed = 0xd09 + config.seed;
    writer.emplace(device, wc);
    // Arm well past the longest plausible measurement.
    writer->arm(t_mp + 2 * block_cost * config.blocks + sim::kSecond);
  }

  LockScenarioOutcome outcome;
  outcome.malware_present_at_ts = config.adversary != AdversaryKind::kNone;

  simulator.schedule_at(t_mp, [&] {
    if (reloc) reloc->on_measurement_start();
    const support::Bytes challenge = verifier.issue_challenge();
    attest::MeasurementContext context{device.id(), challenge, 1};
    mp.start(std::move(context), [&](attest::AttestationResult result) {
      outcome.completed = true;
      outcome.verdict = verifier.verify(result.report, /*expect_challenge=*/true);
      outcome.detected = !outcome.verdict.ok();
      outcome.measurement_duration = result.t_e - result.t_s;
      locking::ConsistencyAnalyzer analyzer(result, device.memory().write_log(),
                                            /*first_block=*/0);
      outcome.consistency = analyzer.verdict();

      // Availability during [t_s, t_r].
      for (const auto& rec : device.memory().write_log()) {
        if (rec.actor != sim::Actor::kApplication) continue;
        if (rec.time >= result.t_s && rec.time <= result.t_r) {
          ++outcome.writer_attempts_during;
          if (rec.blocked) ++outcome.writer_blocked_during;
        }
      }
      outcome.writer_availability =
          outcome.writer_attempts_during == 0
              ? 1.0
              : 1.0 - static_cast<double>(outcome.writer_blocked_during) /
                          static_cast<double>(outcome.writer_attempts_during);
    });
  });

  // The round is settled once the attestation has completed and the
  // writer's series is the only queue entry left: later ticks only write
  // memory that nothing reads any more.  Every other event (malware
  // retries, lock releases) still fires, in its order against the writer.
  const auto settled = [&] {
    return outcome.completed && writer && writer->armed() &&
           simulator.pending_events() == 1;
  };
  while (!settled() && simulator.run(1) == 1) {
  }
  if (writer) writer->disarm();

  if (transient) outcome.malware_blocked_actions = transient->failed_erase_attempts();
  if (reloc) outcome.malware_blocked_actions = reloc->blocked_relocations();
  outcome.malware_escaped = outcome.malware_present_at_ts && outcome.completed &&
                            outcome.verdict.ok();
  return outcome;
}

NetworkScenarioOutcome run_network_scenario(const NetworkScenarioConfig& config) {
  sim::Simulator simulator;
  simulator.set_observer(config.observer);
  sim::DeviceConfig dev_config;
  dev_config.id = "prv-net";
  dev_config.memory_size = config.blocks * config.block_size;
  dev_config.block_size = config.block_size;
  dev_config.attestation_key = support::to_bytes("network-scenario-key");
  sim::Device device(simulator, dev_config);
  provision(device, 0x4e7 + config.seed);

  attest::Verifier verifier(config.hash, dev_config.attestation_key,
                            device.memory().snapshot(), config.block_size,
                            challenge_seed_for(config.seed));

  if (config.infected) {
    // Ground truth: one malware byte in the middle of memory, planted
    // before any round, so the correct terminal outcome is kCompromised.
    const std::size_t addr = device.memory().size() / 2;
    const std::size_t block = addr / device.memory().block_size();
    const std::uint8_t original =
        device.memory().block_view(block)[addr % device.memory().block_size()];
    const support::Bytes patch = {static_cast<std::uint8_t>(original ^ 0xff)};
    device.memory().write(addr, patch, 0, sim::Actor::kMalware);
  }

  attest::ProverConfig prover_config;
  prover_config.hash = config.hash;
  prover_config.mode = config.mode;
  prover_config.priority = 10;
  attest::AttestationProcess mp(device, prover_config);

  // One LinkConfig per direction: same fault model, decorrelated seeds.
  sim::LinkConfig link_config;
  link_config.base_latency = config.link_latency;
  link_config.jitter = config.link_jitter;
  link_config.drop_probability = config.drop_probability;
  link_config.duplicate_probability = config.duplicate_probability;
  link_config.corrupt_probability = config.corrupt_probability;
  link_config.reorder_probability = config.reorder_probability;
  link_config.partitions = config.partitions;
  std::uint64_t link_seed_state = config.seed ^ 0x11c4;
  link_config.name = "vrf->prv";
  link_config.seed = support::splitmix64(link_seed_state);
  sim::Link vrf_to_prv(simulator, link_config);
  link_config.name = "prv->vrf";
  link_config.seed = support::splitmix64(link_seed_state);
  sim::Link prv_to_vrf(simulator, link_config);

  attest::SessionConfig session_config = config.session;
  std::uint64_t session_seed_state = config.seed ^ 0x5e5510;
  session_config.seed = support::splitmix64(session_seed_state);
  attest::ReliableSession session(device, verifier, mp, vrf_to_prv, prv_to_vrf,
                                  session_config);

  NetworkScenarioOutcome outcome;
  outcome.rounds_requested = config.rounds;

  // Chain rounds through the done callback: each terminal result starts
  // the next round after a gap, so a hung round would leave the chain —
  // and rounds_resolved — visibly short.
  std::function<void()> start_round = [&] {
    session.run([&](attest::RoundResult result) {
      if (config.health != nullptr) attest::record_round(*config.health, result);
      ++outcome.rounds_resolved;
      switch (result.outcome) {
        case attest::SessionOutcome::kVerified: ++outcome.verified; break;
        case attest::SessionOutcome::kCompromised: ++outcome.compromised; break;
        case attest::SessionOutcome::kTimeout: ++outcome.timeouts; break;
        case attest::SessionOutcome::kCorruptReport: ++outcome.corrupt_report; break;
        case attest::SessionOutcome::kReplayRejected: ++outcome.replay_rejected; break;
      }
      outcome.total_attempts += result.attempts;
      outcome.replays_rejected += result.replays_rejected;
      const sim::Duration latency = result.t_resolved - result.t_started;
      outcome.total_round_latency += latency;
      if (latency > outcome.max_round_latency) outcome.max_round_latency = latency;
      outcome.total_backoff += result.backoff_total;
      outcome.total_measure_time += result.measure_time;
      outcome.wasted_measure_time += result.wasted_measure_time;
      if (outcome.rounds_resolved < config.rounds) {
        simulator.schedule_in(config.inter_round_gap, start_round);
      }
    });
  };
  simulator.schedule_at(sim::kMillisecond, start_round);
  simulator.run();

  outcome.all_resolved = outcome.rounds_resolved == config.rounds;
  outcome.retries = session.retries();
  outcome.late_reports = session.late_reports();
  for (const sim::Link* link : {&vrf_to_prv, &prv_to_vrf}) {
    outcome.link_sent += link->sent();
    outcome.link_delivered += link->delivered();
    outcome.link_dropped += link->dropped();
    outcome.link_duplicated += link->duplicated();
    outcome.link_corrupted += link->corrupted();
    outcome.link_reordered += link->reordered();
    outcome.link_partition_dropped += link->partition_dropped();
  }
  return outcome;
}

FireAlarmScenarioOutcome run_fire_alarm_scenario(const FireAlarmScenarioConfig& config) {
  sim::Simulator simulator;
  sim::DeviceConfig dev_config;
  dev_config.id = "prv-fire";
  // Back the modeled memory with a small real buffer and scale hash time.
  const std::size_t real_block_size = kFireAlarmBlockSize;
  dev_config.memory_size = config.real_blocks * real_block_size;
  dev_config.block_size = real_block_size;
  dev_config.attestation_key = support::to_bytes("fire-alarm-key");
  sim::Device device(simulator, dev_config);
  simulator.set_observer(config.observer);
  provision(device, config.provision_seed.value_or(0xf12e + config.seed));
  device.model().set_hash_time_scale(static_cast<double>(config.modeled_memory_bytes) /
                                     static_cast<double>(dev_config.memory_size));

  attest::Verifier verifier =
      config.golden != nullptr
          ? attest::Verifier(config.golden, dev_config.attestation_key,
                             challenge_seed_for(config.seed))
          : attest::Verifier(config.hash, dev_config.attestation_key,
                             device.memory().snapshot(), real_block_size,
                             challenge_seed_for(config.seed));

  attest::ProverConfig prover_config;
  prover_config.hash = config.hash;
  prover_config.mode = config.mode;
  prover_config.priority = 10;  // below the safety-critical task
  attest::AttestationProcess mp(device, prover_config);

  FireAlarmConfig fa_config;
  fa_config.period = config.sensor_period;
  fa_config.deadline = config.sample_deadline;
  FireAlarmTask alarm(device, fa_config);

  FireAlarmScenarioOutcome outcome;
  const sim::Time t_mp = 2 * sim::kSecond;

  simulator.schedule_at(t_mp, [&] {
    const support::Bytes challenge = verifier.issue_challenge();
    attest::MeasurementContext context{device.id(), challenge, 1};
    mp.start(std::move(context), [&](attest::AttestationResult result) {
      outcome.measurement_duration = result.t_e - result.t_s;
      outcome.attestation_ok =
          verifier.verify(result.report, /*expect_challenge=*/true).ok();
    });
  });
  alarm.set_fire_time(t_mp + config.fire_after_mp_start);

  // Arm the sensor far enough to outlast the slowest atomic measurement.
  const sim::Duration horizon =
      t_mp + mp.block_cost() * config.real_blocks + mp.finalize_cost() + 30 * sim::kSecond;
  alarm.arm(horizon);
  simulator.run();

  outcome.alarm_latency = alarm.alarm_latency().value_or(0);
  outcome.max_sample_delay = alarm.max_sample_delay();
  outcome.samples_taken = alarm.samples_taken();
  outcome.deadline_misses = alarm.deadline_misses();
  return outcome;
}

}  // namespace rasc::apps
