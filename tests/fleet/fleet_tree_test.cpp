/// Fleet-scale tree mode (ISSUE 8): shards aggregate golden Merkle roots,
/// infected devices are localized to the exact ground-truth block range —
/// even at 30% link drop — and replay_device() reproduces tree-mode
/// verdicts bit-for-bit.

#include <gtest/gtest.h>

#include "src/fleet/fleet.hpp"
#include "src/mtree/mtree.hpp"
#include "tests/support/fleet_fixtures.hpp"

namespace rasc::fleet {
namespace {

using testfx::fast_fleet_config;

FleetConfig tree_config(std::size_t devices, std::uint64_t seed = 1) {
  FleetConfig config = fast_fleet_config(devices, seed);
  config.use_merkle_tree = true;
  config.blocks = 16;
  config.block_size = 64;
  config.infection_blocks = 3;
  return config;
}

TEST(FleetTree, InfectionRangeIsCenteredAndClamped) {
  FleetConfig config = tree_config(1);
  const auto [first, count] = detail::infection_range(config);
  EXPECT_EQ(first, 8u);  // blocks/2, room for 3 blocks
  EXPECT_EQ(count, 3u);

  config.infection_blocks = 64;  // more than the device has
  EXPECT_EQ(detail::infection_range(config),
            (std::pair<std::size_t, std::size_t>{0, 16}));

  config.infection_blocks = 0;  // clamped up to the legacy single block
  EXPECT_EQ(detail::infection_range(config),
            (std::pair<std::size_t, std::size_t>{8, 1}));
}

TEST(FleetTree, LocalizesExactlyTheInfectedRange) {
  FleetConfig config = tree_config(24);
  config.infected_fraction = 0.25;
  FleetVerifier fleet(config);
  const Roster roster = fleet.roster();
  const FleetResult result = fleet.run();
  EXPECT_TRUE(testfx::fleet_fully_resolved(result));

  const auto [first, count] = detail::infection_range(config);
  std::size_t infected_devices = 0;
  for (std::size_t d = 0; d < result.devices; ++d) {
    if (roster.infected(d)) ++infected_devices;
    for (std::size_t e = 0; e < result.epochs; ++e) {
      const RoundRecord& record = result.round(d, e);
      if (roster.infected(d)) {
        ASSERT_EQ(record.outcome, obs::RoundOutcome::kCompromised);
        if (e == 0) {
          // The first decisive round delivers the evidence...
          EXPECT_EQ(record.localized_ranges, 1u) << "device " << d;
          EXPECT_EQ(record.localized_first, first);
          EXPECT_EQ(record.localized_count, count);
        } else {
          // ...then the proof backlog clears: later epochs re-judge the
          // (unchanged) root mismatch without re-proving it.
          EXPECT_EQ(record.localized_ranges, 0u) << "device " << d;
        }
      } else {
        EXPECT_EQ(record.outcome, obs::RoundOutcome::kVerified);
        EXPECT_EQ(record.localized_ranges, 0u);
      }
    }
  }
  ASSERT_GT(infected_devices, 0u);
  // The rollup saw exactly one localized range per infected device and
  // counts the already-reported follow-up rounds as unlocalized.
  EXPECT_EQ(result.health.localized_ranges(), infected_devices);
  EXPECT_EQ(result.health.localized_blocks(), infected_devices * count);
  EXPECT_EQ(result.health.unlocalized_compromised(),
            infected_devices * (result.epochs - 1));
}

TEST(FleetTree, LocalizesThroughThirtyPercentDrop) {
  // The EXPERIMENTS.md recipe: at 30% drop, retries + the prover's proof
  // backlog must deliver localization on every round that resolves
  // compromised — a report lost in transit never loses the fault range.
  FleetConfig config = tree_config(16, /*seed=*/3);
  config.infected_fraction = 0.5;
  config.drop_probability = 0.3;
  config.session.max_attempts = 6;
  FleetVerifier fleet(config);
  const Roster roster = fleet.roster();
  const FleetResult result = fleet.run();
  EXPECT_TRUE(testfx::fleet_fully_resolved(result));

  const auto [first, count] = detail::infection_range(config);
  std::size_t localized_devices = 0;
  for (std::size_t d = 0; d < result.devices; ++d) {
    if (!roster.infected(d)) continue;
    // Drops may turn individual rounds into timeouts, but the proof
    // backlog holds until a round resolves decisively: the FIRST round
    // judged compromised must carry the exact infected range.
    for (std::size_t e = 0; e < result.epochs; ++e) {
      const RoundRecord& record = result.round(d, e);
      if (record.outcome != obs::RoundOutcome::kCompromised) continue;
      ++localized_devices;
      EXPECT_EQ(record.localized_ranges, 1u) << "device " << d << " epoch " << e;
      EXPECT_EQ(record.localized_first, first);
      EXPECT_EQ(record.localized_count, count);
      break;
    }
  }
  EXPECT_GT(localized_devices, 0u);
  EXPECT_EQ(result.health.localized_ranges(), localized_devices);
}

TEST(FleetTree, ReplayReproducesTreeModeVerdicts) {
  FleetConfig config = tree_config(12, /*seed=*/5);
  config.infected_fraction = 0.3;
  config.drop_probability = 0.2;
  config.session.max_attempts = 5;
  FleetVerifier fleet(config);
  const Roster roster = fleet.roster();
  const FleetResult result = fleet.run();
  EXPECT_TRUE(testfx::fleet_fully_resolved(result));

  for (std::size_t d = 0; d < result.devices; ++d) {
    const std::vector<obs::RoundOutcome> replayed =
        replay_device(config, roster, d, result.start_times(d));
    ASSERT_EQ(replayed.size(), result.epochs);
    for (std::size_t e = 0; e < result.epochs; ++e) {
      EXPECT_EQ(replayed[e], result.round(d, e).outcome)
          << "device " << d << " epoch " << e;
    }
  }
}

TEST(FleetTree, ShardRootsAggregateIntoFleetRoot) {
  FleetConfig config = tree_config(32);
  config.shards = 4;
  FleetVerifier fleet(config);
  const FleetResult result = fleet.run();
  ASSERT_EQ(result.shard_tree_roots.size(), 4u);
  for (const attest::Digest& root : result.shard_tree_roots) {
    EXPECT_FALSE(root.empty());
  }
  EXPECT_EQ(result.fleet_tree_root,
            mtree::MerkleTree::combine_roots(result.shard_tree_roots, config.hash));

  // Different shard images -> different roots; the fleet root is
  // order-sensitive over them.
  EXPECT_NE(result.fleet_tree_root, result.shard_tree_roots.front());
}

TEST(FleetTree, FlatModeStillPopulatesGoldenRoots) {
  // The goldens build their trees regardless of use_merkle_tree, so the
  // aggregate roots (and the memory accounting that charges them) do not
  // depend on the prover-side feature flag.
  FleetConfig config = fast_fleet_config(8);
  FleetVerifier fleet(config);
  const FleetResult result = fleet.run();
  ASSERT_FALSE(result.shard_tree_roots.empty());
  EXPECT_FALSE(result.fleet_tree_root.empty());
  // Flat rounds never localize.
  EXPECT_EQ(result.health.localized_ranges(), 0u);
}

TEST(FleetTree, VerifierBytesPerDeviceIncludesTreeAndStaysSubLinear) {
  // Satellite 6: the per-shard golden tree nodes are verifier-side state
  // and must be charged; amortized per-device cost still shrinks with
  // fleet size while the shard count is fixed.
  FleetConfig small_config = tree_config(16);
  small_config.shards = 2;
  FleetConfig large_config = tree_config(128);
  large_config.shards = 2;
  FleetVerifier small(small_config), large(large_config);
  const FleetMemoryStats small_stats = small.memory_stats();
  const FleetMemoryStats large_stats = large.memory_stats();

  // The shared pool includes at least the golden trees: a 16-leaf SHA-256
  // tree stores 31 nodes + 16 leaf digests.
  attest::GoldenMeasurement golden(
      support::random_bytes(small_config.blocks * small_config.block_size, 1),
      small_config.block_size, small_config.hash, support::to_bytes("k"));
  EXPECT_GE(small_stats.shared_bytes, 2 * golden.tree_memory_bytes());

  EXPECT_LT(large_stats.bytes_per_device(128), small_stats.bytes_per_device(16));
}

}  // namespace
}  // namespace rasc::fleet
