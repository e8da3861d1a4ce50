/// google-benchmark microbenchmarks of the device simulator and the
/// end-to-end attestation scenarios (events/second, rounds/second).

#include <benchmark/benchmark.h>

#include "src/apps/scenario.hpp"
#include "src/obs/journal.hpp"
#include "src/smarm/escape.hpp"
#include "src/smarm/runner.hpp"
#include "src/support/rng.hpp"

namespace {

using namespace rasc;

void BM_EventQueueThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator simulator;
    support::Xoshiro256 rng(1);
    for (int i = 0; i < 10000; ++i) {
      simulator.schedule_at(rng.below(1000000), [] {});
    }
    benchmark::DoNotOptimize(simulator.run());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EventQueueThroughput);

void BM_PeriodicSeries(benchmark::State& state) {
  // The writer's shape: a 50 us tick over 1 s, here with a second
  // overlapping series.  Arg 0 pre-schedules every tick with schedule_at
  // (a 20k-deep queue); arg 1 queues each series as one schedule_every
  // entry.  Both fire the same 20 000 events in the same order.
  const bool series = state.range(0) != 0;
  constexpr std::uint64_t kTicks = 10000;
  constexpr sim::Duration kPeriod = 100 * sim::kMicrosecond;
  for (auto _ : state) {
    sim::Simulator simulator;
    std::uint64_t fired = 0;
    for (const sim::Time first : {kPeriod, kPeriod / 2}) {
      if (series) {
        simulator.schedule_every(first, kPeriod, kTicks, [&fired] { ++fired; });
      } else {
        for (std::uint64_t k = 0; k < kTicks; ++k) {
          simulator.schedule_at(first + k * kPeriod, [&fired] { ++fired; });
        }
      }
    }
    simulator.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 2 * kTicks);
  state.SetLabel(series ? "schedule_every" : "schedule_at loop");
}
BENCHMARK(BM_PeriodicSeries)->Arg(0)->Arg(1);

void BM_MemoryWriteLogged(benchmark::State& state) {
  sim::DeviceMemory memory(1 << 20, 4096);
  const support::Bytes data(64, 0xab);
  sim::Time t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(memory.write((t * 64) % (1 << 19), data, t,
                                          sim::Actor::kApplication));
    ++t;
    if (memory.write_log().size() > 1u << 16) memory.clear_write_log();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemoryWriteLogged);

void BM_AttestationRound(benchmark::State& state) {
  const auto mode = static_cast<attest::ExecutionMode>(state.range(0));
  for (auto _ : state) {
    apps::LockScenarioConfig config;
    config.blocks = 64;
    config.block_size = 1024;
    config.mode = mode;
    benchmark::DoNotOptimize(apps::run_lock_scenario(config));
  }
  state.SetLabel(attest::execution_mode_name(mode));
}
BENCHMARK(BM_AttestationRound)->Arg(0)->Arg(1);

void BM_LockScenarioWithAdversary(benchmark::State& state) {
  for (auto _ : state) {
    apps::LockScenarioConfig config;
    config.blocks = 64;
    config.block_size = 1024;
    config.mode = attest::ExecutionMode::kInterruptible;
    config.lock = locking::LockMechanism::kIncLock;
    config.adversary = apps::AdversaryKind::kRelocChase;
    benchmark::DoNotOptimize(apps::run_lock_scenario(config));
  }
}
BENCHMARK(BM_LockScenarioWithAdversary);

void BM_SmarmRound(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    smarm::RunnerConfig config;
    config.blocks = static_cast<std::size_t>(state.range(0));
    config.block_size = 512;
    config.rounds = 1;
    config.seed = seed++;
    benchmark::DoNotOptimize(smarm::run_rounds(config));
  }
}
BENCHMARK(BM_SmarmRound)->Arg(16)->Arg(64);

void BM_JournalAppend(benchmark::State& state) {
  obs::EventJournal journal;
  const std::uint32_t actor = journal.intern("bench");
  obs::TimeNs t = 0;
  for (auto _ : state) {
    ++t;
    journal.append(t, actor, 1, t, obs::JournalEventKind::kLinkSend, t, 64);
  }
  benchmark::DoNotOptimize(journal);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_JournalAppend);

void BM_EmitDisabledGate(benchmark::State& state) {
  // The per-fact cost with no observer attached: what every emitting
  // site in sim/attest/apps pays when observability is off.
  sim::Simulator simulator;
  for (auto _ : state) {
    simulator.emit(obs::JournalEventKind::kLinkSend, {}, {}, 0, 0, 0);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EmitDisabledGate);

void BM_NetworkScenario(benchmark::State& state) {
  // Arg toggles the flight recorder so its end-to-end overhead (append
  // per link/session event) is directly comparable to the bare run.
  const bool journaled = state.range(0) != 0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    obs::EventJournal journal;
    obs::Observer observer(nullptr, &journal);
    apps::NetworkScenarioConfig config;
    config.rounds = 2;
    config.drop_probability = 0.1;
    config.seed = seed++;
    if (journaled) config.observer = &observer;
    benchmark::DoNotOptimize(apps::run_network_scenario(config));
  }
  state.SetLabel(journaled ? "journal" : "no-journal");
}
BENCHMARK(BM_NetworkScenario)->Arg(0)->Arg(1);

void BM_SmarmAbstractGame(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        smarm::simulate_single_round_escape(static_cast<std::size_t>(state.range(0)),
                                            1000, seed++));
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SmarmAbstractGame)->Arg(64)->Arg(1024);

}  // namespace
