#include "src/smarm/campaign.hpp"

#include <map>
#include <memory>

#include "src/smarm/escape.hpp"
#include "src/smarm/runner.hpp"
#include "src/support/rng.hpp"

namespace rasc::smarm {

exp::CampaignSpec make_escape_campaign() {
  exp::CampaignSpec spec;
  spec.name = "smarm_escape";
  // blocks=8 is where the paper's "13 checks push escape below 1e-6"
  // holds exactly ((1-1/8)^(8*13) ~ 9.3e-7); the larger counts trace the
  // (1-1/n)^n -> e^-1 asymptote (e^-13 ~ 2.3e-6, just above 1e-6).
  spec.grid.axis("rounds", {std::int64_t{1}, std::int64_t{2}, std::int64_t{3},
                            std::int64_t{5}, std::int64_t{8}, std::int64_t{13}});
  spec.grid.axis("blocks",
                 {std::int64_t{8}, std::int64_t{16}, std::int64_t{64}, std::int64_t{1024}});
  spec.trials_per_point = 1000;
  spec.trial = [](const exp::GridPoint& point, exp::TrialContext& ctx) {
    const auto rounds = static_cast<std::size_t>(point.i64("rounds"));
    const auto blocks = static_cast<std::size_t>(point.i64("blocks"));
    exp::TrialOutput out;
    out.bernoulli(play_escape_game(blocks, rounds, ctx.rng));
    return out;
  };
  return spec;
}

exp::CampaignSpec make_fullstack_escape_campaign() {
  exp::CampaignSpec spec;
  spec.name = "smarm_escape_fullstack";
  const std::vector<std::int64_t> block_counts{8, 12, 16};
  spec.grid.axis("blocks", {std::int64_t{8}, std::int64_t{12}, std::int64_t{16}});
  spec.trials_per_point = 200;
  // Device simulation is ~ms per trial; keep work units small enough that
  // the pool load-balances even for modest trial counts.
  spec.shard_size = 8;
  // One firmware image and one pre-digested GoldenMeasurement per cell
  // (blocks value), shared by const reference across all trial workers —
  // the verifier no longer rehashes the golden image once per trial.
  constexpr std::size_t kBlockSize = 256;
  constexpr std::uint64_t kProvisionSeedBase = 0xf1f00000;
  auto goldens = std::make_shared<
      std::map<std::int64_t, std::shared_ptr<const attest::GoldenMeasurement>>>();
  for (const std::int64_t blocks : block_counts) {
    const auto image =
        support::random_bytes(static_cast<std::size_t>(blocks) * kBlockSize,
                              kProvisionSeedBase + static_cast<std::uint64_t>(blocks));
    (*goldens)[blocks] = std::make_shared<const attest::GoldenMeasurement>(
        image, kBlockSize, crypto::HashKind::kSha256,
        support::to_bytes("smarm-shared-key"));
  }
  spec.trial = [goldens](const exp::GridPoint& point, exp::TrialContext& ctx) {
    RunnerConfig config;
    config.blocks = static_cast<std::size_t>(point.i64("blocks"));
    config.block_size = kBlockSize;
    config.rounds = 1;
    config.seed = ctx.seed;
    config.provision_seed =
        kProvisionSeedBase + static_cast<std::uint64_t>(point.i64("blocks"));
    config.golden = goldens->at(point.i64("blocks"));
    exp::TrialOutput out;
    obs::Observer observer(nullptr, nullptr, &out.metrics);
    config.observer = &observer;
    const RunnerOutcome outcome = run_rounds(config);
    out.bernoulli(outcome.rounds_run == 1 && outcome.detections == 0);
    out.value("relocations", static_cast<double>(outcome.malware_relocations));
    return out;
  };
  return spec;
}

}  // namespace rasc::smarm
