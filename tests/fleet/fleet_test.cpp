#include "src/fleet/fleet.hpp"

#include <gtest/gtest.h>

#include <set>

#include "tests/support/fleet_fixtures.hpp"

namespace rasc::fleet {
namespace {

using testfx::fast_fleet_config;

TEST(FleetVerifier, CleanLinksVerifyEveryDeviceEveryEpoch) {
  FleetVerifier fleet(fast_fleet_config(64));
  const FleetResult result = fleet.run();
  EXPECT_TRUE(testfx::fleet_fully_resolved(result));
  EXPECT_EQ(result.devices, 64u);
  EXPECT_EQ(result.epochs, 2u);
  EXPECT_EQ(result.rounds_resolved, 128u);
  EXPECT_EQ(result.misjudged_rounds, 0u);
  EXPECT_EQ(result.outcome_counts[static_cast<std::size_t>(obs::RoundOutcome::kVerified)],
            128u);
  EXPECT_EQ(result.health.rounds(), 128u);
  EXPECT_EQ(result.health.outcome_count(obs::RoundOutcome::kVerified), 128u);
  // Every device resolved in epoch 0, so full coverage after one epoch.
  EXPECT_EQ(result.epochs_to_full_coverage, 1u);
  EXPECT_GT(result.rounds_per_sim_second, 0.0);
  for (std::size_t d = 0; d < result.devices; ++d) {
    EXPECT_TRUE(testfx::device_judged(result, d, obs::RoundOutcome::kVerified));
  }
}

TEST(FleetVerifier, RunTwiceThrows) {
  FleetVerifier fleet(fast_fleet_config(4));
  (void)fleet.run();
  EXPECT_THROW(fleet.run(), std::logic_error);
}

TEST(FleetVerifier, RosterSizeMustMatchConfig) {
  EXPECT_THROW(FleetVerifier(fast_fleet_config(8), Roster(7)),
               std::invalid_argument);
}

TEST(FleetVerifier, InfectedDevicesAreCompromisedExactlyPerRoster) {
  FleetConfig config = fast_fleet_config(48);
  config.infected_fraction = 0.25;
  FleetVerifier fleet(config);
  const Roster roster = fleet.roster();  // copy: derived from the config seed
  EXPECT_EQ(roster.infected_count(), 12u);
  const FleetResult result = fleet.run();
  EXPECT_TRUE(testfx::fleet_fully_resolved(result));
  EXPECT_EQ(result.misjudged_rounds, 0u);
  for (std::size_t d = 0; d < result.devices; ++d) {
    EXPECT_TRUE(testfx::device_judged(result, d,
                                      roster.infected(d)
                                          ? obs::RoundOutcome::kCompromised
                                          : obs::RoundOutcome::kVerified));
  }
  EXPECT_EQ(result.outcome_counts[static_cast<std::size_t>(
                obs::RoundOutcome::kCompromised)],
            12u * result.epochs);
}

TEST(FleetVerifier, ExplicitRosterOverridesInfectedFraction) {
  FleetConfig config = fast_fleet_config(8);
  config.infected_fraction = 0.9;  // must be ignored with an explicit roster
  Roster roster(8);
  roster.set_infected(3);
  FleetVerifier fleet(config, roster);
  const FleetResult result = fleet.run();
  EXPECT_TRUE(testfx::fleet_fully_resolved(result));
  EXPECT_TRUE(testfx::device_judged(result, 3, obs::RoundOutcome::kCompromised));
  EXPECT_TRUE(testfx::device_judged(result, 0, obs::RoundOutcome::kVerified));
  EXPECT_EQ(result.outcome_counts[static_cast<std::size_t>(
                obs::RoundOutcome::kCompromised)],
            result.epochs);
}

TEST(FleetVerifier, BurstAdmissionSaturatesTheWindow) {
  FleetConfig config = fast_fleet_config(64);
  config.stagger = StaggerPolicy::kBurst;
  config.max_in_flight = 8;
  FleetVerifier fleet(config);
  const FleetResult result = fleet.run();
  EXPECT_TRUE(testfx::fleet_fully_resolved(result));
  // All 64 devices become ready at the epoch boundary, so the window must
  // be pinned at its cap — and never above it.
  EXPECT_EQ(result.in_flight_high_water, 8u);
}

TEST(FleetVerifier, UncappedBurstStartsEveryoneAtTheEpochBoundary) {
  FleetConfig config = fast_fleet_config(32);
  config.stagger = StaggerPolicy::kBurst;
  config.max_in_flight = 0;  // no admission cap
  FleetVerifier fleet(config);
  const FleetResult result = fleet.run();
  EXPECT_TRUE(testfx::fleet_fully_resolved(result));
  EXPECT_EQ(result.in_flight_high_water, 32u);
  for (std::size_t d = 0; d < result.devices; ++d) {
    EXPECT_EQ(result.round(d, 0).started, 0u);
    EXPECT_EQ(result.round(d, 1).started, config.epoch_period);
  }
}

TEST(FleetVerifier, UniformStaggerSpreadsStartsAcrossTheSpan) {
  FleetConfig config = fast_fleet_config(32);
  config.stagger = StaggerPolicy::kUniform;
  config.max_in_flight = 0;
  FleetVerifier fleet(config);
  const FleetResult result = fleet.run();
  EXPECT_TRUE(testfx::fleet_fully_resolved(result));
  const auto span_ns = static_cast<sim::Duration>(
      kStaggerSpan * static_cast<double>(config.epoch_period));
  for (std::size_t d = 0; d < result.devices; ++d) {
    const sim::Time expected = span_ns * d / config.devices;
    EXPECT_EQ(result.round(d, 0).started, expected) << "device " << d;
  }
  // Smearing issuance keeps concurrency well under the burst level.
  EXPECT_LT(result.in_flight_high_water, 32u);
}

TEST(FleetVerifier, ShardPhasedStaggerAlignsShardmates) {
  FleetConfig config = fast_fleet_config(32);
  config.shards = 4;
  config.stagger = StaggerPolicy::kShardPhased;
  config.max_in_flight = 0;
  FleetVerifier fleet(config);
  EXPECT_EQ(fleet.shard_count(), 4u);
  const FleetResult result = fleet.run();
  EXPECT_TRUE(testfx::fleet_fully_resolved(result));
  FleetVerifier probe(config);  // shard_of is a pure function of the config
  for (std::size_t d = 0; d < result.devices; ++d) {
    const std::size_t shard = probe.shard_of(d);
    // Every device of a shard gets the same epoch-0 offset.
    EXPECT_EQ(result.round(d, 0).started,
              result.round(shard * 8, 0).started)
        << "device " << d << " shard " << shard;
  }
  // Distinct shards get distinct offsets.
  std::set<sim::Time> offsets;
  for (std::size_t s = 0; s < 4; ++s) offsets.insert(result.round(s * 8, 0).started);
  EXPECT_EQ(offsets.size(), 4u);
}

TEST(FleetVerifier, ShardHealthFoldsAgreeWithFleetTotal) {
  FleetConfig config = fast_fleet_config(64);
  config.shards = 4;
  config.infected_fraction = 0.1;
  config.drop_probability = 0.05;
  FleetVerifier fleet(config);
  const FleetResult result = fleet.run();
  EXPECT_TRUE(testfx::fleet_fully_resolved(result));
  ASSERT_EQ(result.shard_health.size(), 4u);
  ASSERT_EQ(result.epoch_stats.size(), 2u);

  // The same rounds grouped two independent ways (by shard, by epoch)
  // must merge to the same integer aggregates as the live fleet fold.
  obs::HealthRollup by_shard;
  for (const obs::HealthRollup& shard : result.shard_health) by_shard.merge(shard);
  obs::HealthRollup by_epoch;
  for (const EpochStats& epoch : result.epoch_stats) by_epoch.merge(epoch.health);
  for (const obs::HealthRollup* fold : {&by_shard, &by_epoch}) {
    EXPECT_EQ(fold->rounds(), result.health.rounds());
    for (std::size_t o = 0; o < obs::kRoundOutcomeCount; ++o) {
      EXPECT_EQ(fold->outcome_count(static_cast<obs::RoundOutcome>(o)),
                result.health.outcome_count(static_cast<obs::RoundOutcome>(o)));
    }
    for (std::size_t depth = 1; depth <= obs::HealthRollup::kMaxRetryDepth; ++depth) {
      EXPECT_EQ(fold->retry_depth(depth), result.health.retry_depth(depth));
    }
  }
}

TEST(FleetVerifier, VerifierMemoryPerDeviceShrinksWithFleetSize) {
  // One shard in all three configurations (auto shard rule: N < 4096), so
  // shared state is constant while per-device state is linear — bytes per
  // device must be strictly decreasing in N.
  double previous = 1e18;
  for (std::size_t devices : {64u, 512u, 2048u}) {
    FleetVerifier fleet(fast_fleet_config(devices));
    EXPECT_EQ(fleet.shard_count(), 1u);
    const double per_device = fleet.memory_stats().bytes_per_device(devices);
    EXPECT_LT(per_device, previous) << devices << " devices";
    previous = per_device;
  }
}

TEST(FleetVerifier, SameSeedSameResultDifferentSeedDifferentTimeline) {
  FleetConfig config = fast_fleet_config(32, /*seed=*/9);
  config.drop_probability = 0.2;
  const FleetResult a = FleetVerifier(config).run();
  const FleetResult b = FleetVerifier(config).run();
  EXPECT_EQ(a.outcome_counts, b.outcome_counts);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.link_sent, b.link_sent);
  EXPECT_EQ(a.link_dropped, b.link_dropped);

  FleetConfig other = config;
  other.seed = 10;
  const FleetResult c = FleetVerifier(other).run();
  // Different fleet seed reshuffles link faults: the timeline diverges.
  EXPECT_NE(a.link_dropped, c.link_dropped);
}

TEST(FleetVerifier, InvariantCheckerReportsInsteadOfThrowingWhenDisabled) {
  FleetConfig config = fast_fleet_config(16);
  config.enforce_invariants = false;
  const FleetResult result = FleetVerifier(config).run();
  EXPECT_TRUE(result.invariant_violations.empty());
}

TEST(FleetVerifier, StartTimesMatchRecordedRounds) {
  FleetConfig config = fast_fleet_config(8);
  const FleetResult result = FleetVerifier(config).run();
  for (std::size_t d = 0; d < result.devices; ++d) {
    const std::vector<sim::Time> starts = result.start_times(d);
    ASSERT_EQ(starts.size(), result.epochs);
    for (std::size_t e = 0; e < result.epochs; ++e) {
      EXPECT_EQ(starts[e], result.round(d, e).started);
    }
  }
}

TEST(FleetStagger, PolicyNamesRoundTrip) {
  for (StaggerPolicy policy : {StaggerPolicy::kBurst, StaggerPolicy::kUniform,
                               StaggerPolicy::kShardPhased}) {
    EXPECT_EQ(parse_stagger_policy(stagger_policy_name(policy)), policy);
  }
  EXPECT_THROW(parse_stagger_policy("bogus"), std::invalid_argument);
}

TEST(FleetDetail, AutoShardRuleIsOnePerFourThousandDevices) {
  FleetConfig config;
  config.shards = 0;
  config.devices = 1;
  EXPECT_EQ(detail::resolve_shards(config), 1u);
  config.devices = 4096;
  EXPECT_EQ(detail::resolve_shards(config), 1u);
  config.devices = 4097;
  EXPECT_EQ(detail::resolve_shards(config), 2u);
  config.devices = 100000;
  EXPECT_EQ(detail::resolve_shards(config), 25u);
  config.shards = 7;
  EXPECT_EQ(detail::resolve_shards(config), 7u);
}

TEST(FleetDetail, SeedStreamsDecorrelateDevicesAndSalts) {
  // Same device, different salts — and same salt, different devices —
  // must land on different streams (these chains are frozen wire format;
  // the committed BENCH_fleet baseline depends on them).
  EXPECT_NE(detail::device_stream(1, 0, 1), detail::device_stream(1, 0, 2));
  EXPECT_NE(detail::device_stream(1, 0, 1), detail::device_stream(1, 1, 1));
  EXPECT_NE(detail::device_stream(1, 0, 1), detail::device_stream(2, 0, 1));
  EXPECT_EQ(detail::device_stream(1, 0, 1), detail::device_stream(1, 0, 1));
  EXPECT_NE(detail::shard_stream(1, 0, 1), detail::shard_stream(1, 1, 1));
  EXPECT_NE(detail::shard_stream(1, 0, 1), detail::shard_stream(2, 0, 1));
}

}  // namespace
}  // namespace rasc::fleet
