#include "src/fleet/campaign.hpp"

#include "src/sim/time.hpp"

namespace rasc::fleet {

FleetConfig fleet_config_for(const exp::GridPoint& point,
                             std::uint64_t trial_seed) {
  FleetConfig config;
  config.devices = static_cast<std::size_t>(point.i64("devices"));
  config.drop_probability = static_cast<double>(point.i64("drop_pct")) / 100.0;
  config.stagger = parse_stagger_policy(point.str("stagger"));
  // Mild background faults so duplication/reordering/corruption machinery
  // is exercised in every cell, not just the ones the axes sweep.
  config.duplicate_probability = 0.02;
  config.reorder_probability = 0.02;
  config.corrupt_probability = 0.01;
  config.infected_fraction = 0.01;
  config.epochs = 2;
  config.epoch_period = sim::kSecond;
  config.max_in_flight = 1024;
  // Tight-but-survivable reliability budget: at 20% drop most rounds
  // still resolve inside three attempts, and a budget exhaustion is a
  // legitimate kTimeout misjudgement the Bernoulli channel prices.
  config.session.response_timeout = 60 * sim::kMillisecond;
  config.session.max_attempts = 3;
  config.session.backoff_base = 20 * sim::kMillisecond;
  // Million-device tier: above the hibernation threshold a cell keeps at
  // most kHibernationPool stacks live (the rest exist as seed records and
  // are rebuilt from the shard golden on admission), which is what makes a
  // 1M-device cell fit one process.  Smaller cells keep every stack
  // resident once built, so both regimes stay covered by the same
  // campaign.
  if (config.devices >= kHibernationDeviceThreshold) {
    config.max_live_stacks = kHibernationPool;
  }
  config.seed = trial_seed;
  return config;
}

exp::CampaignSpec make_fleet_scale_campaign() {
  exp::CampaignSpec spec;
  spec.name = "fleet";
  spec.grid.axis("devices", {std::int64_t{1000}, std::int64_t{10000},
                             std::int64_t{100000}, std::int64_t{1000000}});
  spec.grid.axis("drop_pct", {std::int64_t{0}, std::int64_t{20}});
  spec.grid.axis("stagger", {std::string("burst"), std::string("uniform")});
  spec.trials_per_point = 1;
  // One trial is already a whole fleet; shard per trial so the pool can
  // spread cells across workers.
  spec.shard_size = 1;
  spec.trial = [](const exp::GridPoint& point, exp::TrialContext& ctx) {
    FleetConfig config = fleet_config_for(point, ctx.seed);
    exp::TrialOutput out;
    config.metrics = &out.metrics;
    // Collect violations instead of throwing so require() can report them
    // through the campaign's own invariant channel.
    config.enforce_invariants = false;
    FleetVerifier fleet(config);
    const FleetResult result = fleet.run();

    out.require(result.invariant_violations.empty(),
                "fleet invariant checker reported violations");
    out.require(result.rounds_resolved == config.devices * config.epochs,
                "not every admitted round reached a terminal outcome");

    // Bernoulli channel: per-round misjudgement against ground truth.
    out.successes = result.misjudged_rounds;
    out.attempts = result.rounds_resolved;

    out.value("rounds_per_sim_second", result.rounds_per_sim_second);
    out.value("verifier_bytes_per_device",
              result.memory.bytes_per_device(config.devices));
    out.value("epochs_to_full_coverage",
              static_cast<double>(result.epochs_to_full_coverage));
    out.value("in_flight_high_water",
              static_cast<double>(result.in_flight_high_water));
    // Scheduler pressure: dripper firings per epoch.  Shard-wave
    // admission must show this ≈ devices / wave instead of ≈ devices.
    out.value("admission_events_per_epoch",
              static_cast<double>(result.admission_events) /
                  static_cast<double>(config.epochs));
    out.value("live_stacks_high_water",
              static_cast<double>(result.live_stacks_high_water));
    out.value("hibernation_wakes", static_cast<double>(result.wakes));
    out.value("makespan_ms", sim::to_millis(result.makespan));
    out.value("wasted_mp_ms", result.health.wasted_measure_ms_total());
    out.value("link_drop_rate",
              result.link_sent == 0
                  ? 0.0
                  : static_cast<double>(result.link_dropped) /
                        static_cast<double>(result.link_sent));
    out.value("first_misjudge_trial",
              result.misjudged_rounds > 0 ? static_cast<double>(ctx.trial_index)
                                          : exp::kNoMisjudgeTrial);
    out.health.merge(result.health);
    return out;
  };
  return spec;
}

}  // namespace rasc::fleet
