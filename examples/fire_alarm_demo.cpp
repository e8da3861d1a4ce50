/// The paper's Section 2.5 motivating scenario as a runnable demo: a fire
/// alarm sampling its sensor every second while the verifier attests 1 GB
/// of prover memory — first atomically (SMART), then interruptibly.
///
/// Build & run:  ./build/examples/fire_alarm_demo
///
/// Pass `--trace-out FILE` to capture the SMART-style atomic run as a
/// Chrome trace_event JSON file; open it in chrome://tracing or Perfetto
/// to see the fire-alarm CPU segments stall behind the nested
/// attest.session > attest.measure span while the building burns.
///
/// Pass `--journal-out FILE` to capture the same run in the flight
/// recorder (deadline hits/misses, the alarm raise) as NDJSON; a short
/// event transcript is printed too.

#include <cstdio>
#include <cstring>
#include <string>

#include "src/apps/scenario.hpp"
#include "src/obs/timeline.hpp"

using namespace rasc;

namespace {

void run(const char* label, attest::ExecutionMode mode, obs::Observer* observer) {
  apps::FireAlarmScenarioConfig config;
  config.modeled_memory_bytes = 1ull << 30;  // the paper's 1 GB prover
  config.mode = mode;
  config.fire_after_mp_start = 100 * sim::kMillisecond;
  config.observer = observer;

  const auto outcome = apps::run_fire_alarm_scenario(config);
  std::printf("--- %s ---\n", label);
  std::printf("  measurement duration : %s\n",
              sim::format_duration(outcome.measurement_duration).c_str());
  std::printf("  fire -> alarm latency: %s\n",
              sim::format_duration(outcome.alarm_latency).c_str());
  std::printf("  worst sensor jitter  : %s\n",
              sim::format_duration(outcome.max_sample_delay).c_str());
  std::printf("  deadline misses      : %zu\n", outcome.deadline_misses);
  std::printf("  attestation verdict  : %s\n\n",
              outcome.attestation_ok ? "TRUSTED" : "COMPROMISED");
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_out;
  std::string journal_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (std::strcmp(argv[i], "--journal-out") == 0 && i + 1 < argc) {
      journal_out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--trace-out FILE] [--journal-out FILE]\n",
                   argv[0]);
      return 2;
    }
  }

  std::printf("Fire alarm on an ODROID-class prover; 1 GB attested memory;\n");
  std::printf("the fire starts 100 ms after the measurement begins.\n\n");

  obs::TraceSink sink;
  obs::EventJournal journal;
  obs::Observer observer(trace_out.empty() ? nullptr : &sink,
                         journal_out.empty() ? nullptr : &journal);
  run("SMART-style atomic MP (uninterruptible)", attest::ExecutionMode::kAtomic,
      &observer);
  run("Interruptible MP (block-granular preemption)",
      attest::ExecutionMode::kInterruptible, nullptr);

  if (!journal_out.empty()) {
    if (journal.write_ndjson(journal_out)) {
      std::printf("Flight-recorder journal of the atomic run written to %s\n",
                  journal_out.c_str());
      std::printf("%s\n", obs::render_journal_summary(journal).c_str());
    } else {
      std::fprintf(stderr, "failed to write journal to %s\n", journal_out.c_str());
      return 1;
    }
  }

  if (!trace_out.empty()) {
    if (sink.write_chrome_json(trace_out)) {
      std::printf("Chrome trace of the atomic run written to %s\n", trace_out.c_str());
      std::printf("(load it in chrome://tracing or https://ui.perfetto.dev)\n\n");
    } else {
      std::fprintf(stderr, "failed to write trace to %s\n", trace_out.c_str());
      return 1;
    }
  }

  std::printf("Atomic attestation keeps the device 'safe' from roving malware but\n");
  std::printf("leaves the building to burn for ~7 seconds; interruptible attestation\n");
  std::printf("keeps the alarm prompt but — without further measures — opens the\n");
  std::printf("door to the evasion games explored in the other examples.\n");
  return 0;
}
