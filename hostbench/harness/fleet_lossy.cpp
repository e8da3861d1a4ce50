/// fleet_lossy: the deployment-verifier path.  One fleet::FleetVerifier
/// per batch drives a fleet at the hibernation threshold through the
/// fleet_scale campaign's lossy cell (20% drop plus the campaign's
/// background duplicate/reorder/corrupt faults, 1% infected, uniform
/// stagger, 2 epochs).  A batch is one whole fleet run; its rounds
/// interleave on one event loop, so round_ms here is the batch's host
/// time divided by its rounds.

#include <algorithm>
#include <memory>

#include "harness/common.hpp"
#include "src/exp/grid.hpp"
#include "src/fleet/campaign.hpp"
#include "src/fleet/fleet.hpp"
#include "src/obs/metrics.hpp"

namespace hostbench {

namespace {

constexpr std::size_t kDevices = rasc::fleet::kHibernationDeviceThreshold;
constexpr std::size_t kTinyDevices = 300;
constexpr std::size_t kMinBatches = 3;

rasc::fleet::FleetConfig config_for(std::uint64_t fleet_seed, std::size_t devices) {
  const rasc::exp::GridPoint point(
      0, {{"devices", static_cast<std::int64_t>(devices)},
          {"drop_pct", std::int64_t{20}},
          {"stagger", std::string("uniform")}});
  rasc::fleet::FleetConfig config = rasc::fleet::fleet_config_for(point, fleet_seed);
  // Collect violations instead of throwing; the harness reports them.
  config.enforce_invariants = false;
  return config;
}

void fold(Fingerprint& fp, const rasc::fleet::FleetResult& r) {
  for (const auto& round : r.rounds) {
    fp.add(static_cast<std::uint64_t>(round.outcome));
    fp.add(static_cast<std::uint64_t>(round.attempts));
    fp.add(static_cast<std::uint64_t>(round.resolved));
    fp.add(static_cast<std::uint64_t>(round.started));
  }
  for (std::uint64_t c : r.outcome_counts) fp.add(c);
  for (std::uint64_t c : {r.link_sent, r.link_delivered, r.link_dropped,
                          r.link_duplicated, r.link_corrupted, r.link_reordered}) {
    fp.add(c);
  }
  for (std::size_t c : {r.rounds_resolved, r.misjudged_rounds, r.hibernations, r.wakes,
                        r.admission_events, r.in_flight_high_water,
                        r.live_stacks_high_water, r.epochs_to_full_coverage}) {
    fp.add(static_cast<std::uint64_t>(c));
  }
  fp.add(static_cast<std::uint64_t>(r.makespan));
  const auto root = r.fleet_tree_root.view();
  fp.add_bytes(root.data(), root.size());
  fp.add(static_cast<std::uint64_t>(r.invariant_violations.size()));
  for (const auto& v : r.invariant_violations) fp.add(v);
}

}  // namespace

WorkloadResult run_fleet_lossy(const RunSpec& spec, Tracer* tracer) {
  const std::size_t devices = spec.tiny ? kTinyDevices : kDevices;
  WorkloadResult out;
  std::vector<double> setups;
  RoundTimes times(1);  // every batch is the same kind of fleet run
  rasc::obs::MetricsRegistry registry;
  rasc::obs::HealthRollup health;
  double rounds = 0, wakes = 0, hibernations = 0, admission = 0, epochs = 0;
  double sent = 0, dropped = 0, bytes_per_device = 0;
  std::size_t in_flight_hw = 0, live_hw = 0;
  double timed_s = 0.0;

  {
    Tracer::Scope root(tracer, "workload");
    for (std::size_t batch = 0;; ++batch) {
      rasc::fleet::FleetConfig config = config_for(mix(spec.seed, batch), devices);
      if (spec.trace) config.metrics = &registry;

      // Set-up is sampled once per batch, so its median spans the run.
      std::unique_ptr<rasc::fleet::FleetVerifier> fleet;
      const std::int64_t t0 = now_ns();
      {
        Tracer::Scope s(tracer, "fleet.ctor");
        fleet = std::make_unique<rasc::fleet::FleetVerifier>(config);
      }
      const std::int64_t t1 = now_ns();
      rasc::fleet::FleetResult result;
      {
        Tracer::Scope s(tracer, "fleet.run");
        result = fleet->run();
      }
      const std::int64_t t2 = now_ns();
      {
        Tracer::Scope s(tracer, "fleet.dtor");
        fleet.reset();
      }
      setups.push_back(static_cast<double>(t1 - t0) / 1e9);

      const std::uint64_t planned = config.devices * config.epochs;
      out.attempted += planned;
      const std::uint64_t unresolved = planned - result.rounds_resolved;
      out.unresolved += unresolved;
      out.misjudged += result.misjudged_rounds + unresolved;
      for (const auto& v : result.invariant_violations) {
        out.violations.push_back("batch " + std::to_string(batch) + ": " + v);
      }
      if (batch == 0) {
        Fingerprint fp;
        fold(fp, result);
        out.fingerprint = fp.hex();
      }

      const double run_s = static_cast<double>(t2 - t1) / 1e9;
      const double n = static_cast<double>(result.rounds_resolved);
      times.add(0, run_s * 1e3 / n);
      timed_s += run_s;

      rounds += n;
      wakes += static_cast<double>(result.wakes);
      hibernations += static_cast<double>(result.hibernations);
      admission += static_cast<double>(result.admission_events);
      epochs += static_cast<double>(config.epochs);
      sent += static_cast<double>(result.link_sent);
      dropped += static_cast<double>(result.link_dropped);
      bytes_per_device += result.memory.bytes_per_device(config.devices);
      in_flight_hw = std::max(in_flight_hw, result.in_flight_high_water);
      live_hw = std::max(live_hw, result.live_stacks_high_water);
      health.merge(result.health);

      if (spec.fingerprint_only) return out;
      if (timed_s >= spec.seconds && batch + 1 >= kMinBatches) break;
    }
  }

  add_end_to_end(out, times, setups);
  if (!spec.trace) return out;

  const double batches = static_cast<double>(times.rounds);
  out.metric("fleet.ctor_s", median(tracer->durations("fleet.ctor")) / 1e9, "s");
  out.metric("fleet.run_s", median(tracer->durations("fleet.run")) / 1e9, "s");
  out.metric("fleet.wakes_per_round", wakes / rounds, "count");
  out.metric("fleet.hibernations_per_round", hibernations / rounds, "count");
  out.metric("fleet.admission_events_per_epoch", admission / epochs, "count");
  out.metric("fleet.in_flight_high_water", static_cast<double>(in_flight_hw), "count");
  out.metric("fleet.live_stacks_high_water", static_cast<double>(live_hw), "count");
  out.metric("fleet.verifier_bytes_per_device", bytes_per_device / batches, "B");

  // Attempts from the health fold's retry-depth histogram; retries from
  // the session counters of the attached registry.
  double attempts = 0;
  for (std::size_t k = 1; k <= rasc::obs::HealthRollup::kMaxRetryDepth; ++k) {
    attempts += static_cast<double>(k) * static_cast<double>(health.retry_depth(k));
  }
  const auto* retries = registry.find_counter("session.retries");
  const double health_rounds = static_cast<double>(health.rounds());
  out.metric("attest.attempts_per_round", attempts / health_rounds, "count");
  out.metric("attest.retries_per_round",
             retries == nullptr ? 0.0 : static_cast<double>(retries->value()) / health_rounds,
             "count");
  out.metric("sim.link_sent_per_round", sent / rounds, "count");
  out.metric("sim.link_dropped_per_round", dropped / rounds, "count");
  return out;
}

}  // namespace hostbench
