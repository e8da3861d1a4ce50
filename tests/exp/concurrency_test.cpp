/// Thread-safety audit for the simulator stack: concurrent Simulator
/// instances (one per campaign worker) must not share mutable state.
/// These tests run full device scenarios from several threads at once and
/// assert the results equal a single-threaded reference run — and they are
/// the payload of the ThreadSanitizer CI job, which turns any hidden
/// static/global into a reported race.

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "src/apps/campaign.hpp"
#include "src/attest/golden.hpp"
#include "src/exp/campaign.hpp"
#include "src/exp/report.hpp"
#include "src/smarm/campaign.hpp"
#include "src/support/rng.hpp"

namespace rasc::exp {
namespace {

TEST(Concurrency, ParallelLockScenariosMatchSerialReference) {
  auto make = [](std::size_t threads) {
    CampaignSpec spec = apps::make_lock_matrix_campaign();
    spec.trials_per_point = 6;
    spec.base_seed = 5;
    // Trim the grid so the test stays fast under TSan.
    spec.grid.set_axis("lock", {std::string("No-Lock"), std::string("Dec-Lock"),
                                std::string("Cpy-Lock")});
    spec.grid.set_axis("adversary", {std::string("transient"), std::string("roving")});
    spec.threads = threads;
    return spec;
  };
  const CampaignResult serial = run_campaign(make(1));
  const CampaignResult parallel = run_campaign(make(4));
  EXPECT_EQ(campaign_json(parallel), campaign_json(serial));
}

TEST(Concurrency, ParallelFullStackSmarmMatchesSerialReference) {
  auto make = [](std::size_t threads) {
    CampaignSpec spec = smarm::make_fullstack_escape_campaign();
    spec.trials_per_point = 12;
    spec.base_seed = 3;
    spec.grid.set_axis("blocks", {std::int64_t{8}, std::int64_t{12}});
    spec.threads = threads;
    return spec;
  };
  const CampaignResult serial = run_campaign(make(1));
  const CampaignResult parallel = run_campaign(make(4));
  EXPECT_EQ(campaign_json(parallel), campaign_json(serial));
}

TEST(Concurrency, ParallelFireAlarmScenariosMatchSerialReference) {
  auto make = [](std::size_t threads) {
    CampaignSpec spec = apps::make_fire_alarm_campaign();
    spec.trials_per_point = 4;
    spec.base_seed = 7;
    spec.grid.set_axis("memory_mb", {std::int64_t{100}});
    spec.threads = threads;
    return spec;
  };
  const CampaignResult serial = run_campaign(make(1));
  const CampaignResult parallel = run_campaign(make(4));
  EXPECT_EQ(campaign_json(parallel), campaign_json(serial));
}

TEST(Concurrency, SharedGoldenMeasurementIsSafeAcrossThreads) {
  // One immutable GoldenMeasurement shared by const reference across many
  // workers, as the campaign factories do — TSan flags any hidden mutation.
  constexpr std::size_t kBlocks = 16;
  constexpr std::size_t kBlockSize = 128;
  support::Xoshiro256 rng(11);
  support::Bytes image(kBlocks * kBlockSize);
  for (auto& b : image) b = static_cast<std::uint8_t>(rng.below(256));
  const auto golden = std::make_shared<const attest::GoldenMeasurement>(
      image, kBlockSize, crypto::HashKind::kSha256, support::to_bytes("k"));

  const attest::MeasurementContext context{"dev", support::to_bytes("c"), 3};
  const support::Bytes reference = golden->expected(context);

  constexpr std::size_t kThreads = 8;
  std::vector<support::Bytes> results(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int round = 0; round < 16; ++round) {
        results[t] = golden->expected(context);
      }
    });
  }
  for (auto& w : workers) w.join();
  for (const auto& r : results) EXPECT_EQ(r, reference);
}

}  // namespace
}  // namespace rasc::exp
