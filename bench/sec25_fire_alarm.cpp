/// Section 2.5 reproduction: the fire-alarm worked example, as a
/// Monte-Carlo campaign (src/exp).  A bare-metal sensor-actuator
/// application samples a temperature sensor every second; attestation of
/// ~1 GB takes ~7 s on the calibrated prover.  Each trial drops the fire
/// at a uniformly random offset inside the measurement window:
///  * under SMART-style atomic MP the alarm waits for t_e — seconds of
///    latency and a deadline-miss rate that grows with memory size;
///  * interruptible MP holds the per-sample deadline-miss rate at zero
///    and bounds alarm latency by one sensor period + one block.
/// The per-cell miss rates carry Wilson 95% intervals; exits non-zero if
/// the interruptible cells ever miss a deadline or the atomic 1 GB cell
/// fails to show the paper's conflict.

#include <cstdio>
#include <string>

#include "src/apps/campaign.hpp"
#include "src/exp/report.hpp"
#include "src/support/table.hpp"

using namespace rasc;

namespace {

bool expect(bool condition, const char* what) {
  std::printf("  [%s] %s\n", condition ? "ok" : "FAIL", what);
  return condition;
}

}  // namespace

int main() {
  std::printf("=== Section 2.5: fire alarm vs. attestation (campaign) ===\n");
  std::printf("Sensor period 1 s; fire at a uniform offset inside the MP window.\n\n");

  exp::CampaignSpec spec = apps::make_fire_alarm_campaign();
  spec.trials_per_point = 40;
  std::printf("--- campaign: %zu cells x %zu trials ---\n", spec.grid.size(),
              spec.trials_per_point);
  const exp::CampaignResult result = exp::run_campaign(spec);

  support::Table table({"mode", "memory", "miss rate", "wilson 95% CI",
                        "alarm latency ms (mean/max)", "MP ms (mean)"});
  for (const auto& cell : result.cells) {
    const auto& latency = cell.values.at("alarm_latency_ms");
    const auto& mp = cell.values.at("mp_duration_ms");
    table.add_row({cell.point.str("mode"), std::to_string(cell.point.i64("memory_mb")) + " MB",
                   support::fmt_sci(cell.success_rate, 2),
                   "[" + support::fmt_sci(cell.ci.lower, 2) + ", " +
                       support::fmt_sci(cell.ci.upper, 2) + "]",
                   support::fmt_double(latency.mean(), 1) + " / " +
                       support::fmt_double(latency.max(), 1),
                   support::fmt_double(mp.mean(), 1)});
  }
  std::printf("%s", table.render().c_str());
  std::printf("(ran on %zu thread(s) in %.2f s)\n\n", result.threads_used,
              result.wall_seconds);

  std::printf("--- paper claims vs. campaign aggregates ---\n");
  bool ok = true;
  for (const auto& cell : result.cells) {
    const bool interruptible = cell.point.str("mode") == "interruptible";
    char label[112];
    if (interruptible) {
      std::snprintf(label, sizeof(label),
                    "interruptible @ %lld MB: zero deadline misses (%llu/%llu)",
                    static_cast<long long>(cell.point.i64("memory_mb")),
                    static_cast<unsigned long long>(cell.successes),
                    static_cast<unsigned long long>(cell.attempts));
      ok &= expect(cell.successes == 0, label);
      const auto& latency = cell.values.at("alarm_latency_ms");
      std::snprintf(label, sizeof(label),
                    "interruptible @ %lld MB: alarm latency bounded by ~1 sensor period",
                    static_cast<long long>(cell.point.i64("memory_mb")));
      ok &= expect(latency.max() < 1100.0, label);
    } else {
      const auto& latency = cell.values.at("alarm_latency_ms");
      const auto& mp = cell.values.at("mp_duration_ms");
      // The paper's conflict needs the atomic measurement to outlast the
      // sensor period; below that (100 MB ~ 0.7 s) every sample can still
      // land between measurements.
      if (mp.mean() > 1100.0) {
        std::snprintf(label, sizeof(label),
                      "atomic @ %lld MB: misses occur (rate %.3g) and alarm can wait for t_e",
                      static_cast<long long>(cell.point.i64("memory_mb")), cell.success_rate);
        ok &= expect(cell.successes > 0 && latency.max() > 1000.0, label);
      }
      std::snprintf(label, sizeof(label),
                    "atomic @ %lld MB: alarm latency bounded by the measurement tail",
                    static_cast<long long>(cell.point.i64("memory_mb")));
      ok &= expect(latency.max() < mp.max() + 1100.0, label);
    }
    const auto& attested = cell.values.at("attestation_ok");
    char label2[96];
    std::snprintf(label2, sizeof(label2), "%s @ %lld MB: every measurement verifies",
                  cell.point.str("mode").c_str(),
                  static_cast<long long>(cell.point.i64("memory_mb")));
    ok &= expect(attested.mean() == 1.0 && attested.min() == 1.0, label2);
  }

  const std::string json_path = exp::write_campaign_json(result);
  if (!json_path.empty()) std::printf("\nmachine-readable results: %s\n", json_path.c_str());

  std::printf("\nPaper claims reproduced:\n");
  std::printf(" * atomic MP over 1 GB runs ~7 s; a fire during MP waits for t_e,\n");
  std::printf("   so the alarm is seconds late (\"disastrous consequences\");\n");
  std::printf(" * interruptible MP keeps the alarm latency at the sensor period\n");
  std::printf("   (1 s) plus one block measurement, at any memory size;\n");
  std::printf(" * the measurement itself still completes and verifies.\n");

  if (!ok) {
    std::fprintf(stderr, "FAIL: campaign aggregates disagree with the paper claims\n");
    return 1;
  }
  return 0;
}
