/// Section 3.2 reproduction: SMARM escape probabilities, as a parallel
/// Monte-Carlo campaign (src/exp).
///  * single-round escape (1-1/n)^n -> e^-1 ~ 0.37 — analytic vs. the
///    campaign's empirical rate with Wilson confidence intervals;
///  * multi-round escape decays exponentially; ~13 independent checks
///    push it below 10^-6 — asserted against the campaign aggregates;
///  * full-stack spot check (real permutation, real relocation writes,
///    real verifier) through the same campaign engine.
/// Exits non-zero if any paper claim falls outside its interval, so CI
/// catches statistical regressions, not just crashes.

#include <cmath>
#include <cstdio>

#include "src/exp/report.hpp"
#include "src/smarm/campaign.hpp"
#include "src/smarm/escape.hpp"
#include "src/support/plot.hpp"
#include "src/support/table.hpp"

using namespace rasc;

namespace {

bool expect(bool condition, const char* what) {
  std::printf("  [%s] %s\n", condition ? "ok" : "FAIL", what);
  return condition;
}

}  // namespace

int main() {
  std::printf("=== SMARM: shuffled measurements vs. roving malware ===\n\n");

  std::printf("--- analytic single-round escape probability ---\n");
  support::Table single({"blocks n", "analytic (1-1/n)^n", "e^-1 reference"});
  for (std::size_t n : {4u, 16u, 64u, 256u, 1024u, 4096u}) {
    single.add_row({std::to_string(n),
                    support::fmt_double(smarm::single_round_escape(n), 4),
                    support::fmt_double(std::exp(-1.0), 4)});
  }
  std::printf("%s\n", single.render().c_str());

  // Abstract-game campaign: rounds x blocks sweep, 50k trials per cell.
  exp::CampaignSpec spec = smarm::make_escape_campaign();
  spec.trials_per_point = 50000;
  std::printf("--- campaign: %zu cells x %zu trials ---\n", spec.grid.size(),
              spec.trials_per_point);
  const exp::CampaignResult result = exp::run_campaign(spec);
  std::printf("%s", exp::campaign_table(result).render().c_str());
  std::printf("(ran on %zu thread(s) in %.2f s)\n\n", result.threads_used,
              result.wall_seconds);

  // Paper-claim assertions against the campaign aggregates.
  std::printf("--- paper claims vs. campaign aggregates ---\n");
  bool ok = true;
  for (const auto& cell : result.cells) {
    const auto rounds = static_cast<std::size_t>(cell.point.i64("rounds"));
    const auto blocks = static_cast<std::size_t>(cell.point.i64("blocks"));
    const double analytic = smarm::multi_round_escape(blocks, rounds);
    // 99.9% interval: ~24 simultaneous cells at 95% would flag a cell in
    // most sweeps purely by chance.
    const exp::WilsonInterval wide =
        exp::wilson_interval(cell.successes, cell.attempts, 3.290526731491926);
    char label[96];
    std::snprintf(label, sizeof(label), "%-24s empirical %.3g vs analytic %.3g",
                  cell.point.label().c_str(), cell.success_rate, analytic);
    ok &= expect(wide.contains(analytic), label);
  }

  const auto* one_round = result.find_cell("rounds=1 blocks=1024");
  const auto* thirteen = result.find_cell("rounds=13 blocks=8");
  ok &= expect(one_round != nullptr && std::abs(one_round->success_rate - std::exp(-1.0)) < 0.02,
               "1 round @ n=1024: escape rate ~ e^-1 ~ 0.37");
  ok &= expect(smarm::multi_round_escape(8, 13) < 1e-6,
               "13 rounds @ n=8: closed form below 1e-6");
  ok &= expect(thirteen != nullptr && thirteen->success_rate <= 1e-6 &&
                   thirteen->ci.lower <= 1e-6,
               "13 rounds @ n=8: empirical escape below 1e-6 within its CI");

  // Full-stack spot check through the same campaign engine: real
  // permutation, real relocation writes, real verifier.
  std::printf("\n--- full-stack campaign (device sim + verifier) ---\n");
  exp::CampaignSpec fs_spec = smarm::make_fullstack_escape_campaign();
  fs_spec.trials_per_point = 300;
  const exp::CampaignResult fullstack = exp::run_campaign(fs_spec);
  std::printf("%s", exp::campaign_table(fullstack).render().c_str());
  for (const auto& cell : fullstack.cells) {
    const auto blocks = static_cast<std::size_t>(cell.point.i64("blocks"));
    const double analytic = smarm::single_round_escape(blocks);
    const exp::WilsonInterval wide =
        exp::wilson_interval(cell.successes, cell.attempts, 3.290526731491926);
    char label[96];
    std::snprintf(label, sizeof(label), "full stack n=%-4zu empirical %.3g vs analytic %.3g",
                  blocks, cell.success_rate, analytic);
    ok &= expect(wide.contains(analytic), label);
  }

  // Escape-decay plot from the analytic curve (unchanged from the paper).
  support::Series analytic_series{"analytic", {}, {}};
  for (std::size_t rounds : {1u, 2u, 3u, 5u, 8u, 10u, 13u, 16u, 20u}) {
    analytic_series.x.push_back(static_cast<double>(rounds));
    analytic_series.y.push_back(smarm::multi_round_escape(64, rounds));
  }
  support::PlotOptions opt;
  opt.log_y = true;
  opt.height = 16;
  opt.x_label = "independent measurement rounds";
  opt.y_label = "escape probability (log)";
  std::printf("\n%s\n", support::render_plot({analytic_series}, opt).c_str());

  support::Table rounds_table({"blocks n", "rounds to reach 1e-6"});
  for (std::size_t n : {8u, 16u, 64u, 1024u, 1u << 20}) {
    rounds_table.add_row(
        {std::to_string(n), std::to_string(smarm::rounds_for_target(n, 1e-6))});
  }
  std::printf("%s\n", rounds_table.render().c_str());
  std::printf("Escape decays exponentially with rounds; 13-14 independent\n");
  std::printf("measurements suffice for a false-negative rate below 10^-6.\n");

  const std::string json_path = exp::write_campaign_json(result);
  if (!json_path.empty()) std::printf("machine-readable results: %s\n", json_path.c_str());

  if (!ok) {
    std::fprintf(stderr, "FAIL: campaign aggregates disagree with the paper claims\n");
    return 1;
  }
  return 0;
}
