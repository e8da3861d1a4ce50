#pragma once
/// \file campaign.hpp
/// The fleet_scale campaign: how many concurrent reliable-attestation
/// sessions can one verifier process drive, and what does reliability
/// cost at scale?  Sweeps fleet size (1k -> 10k -> 100k -> 1M devices) x
/// link drop rate x stagger policy; every trial runs a full FleetVerifier
/// epoch schedule with the invariant checker enabled, so the campaign is
/// simultaneously a benchmark and a property test — any violated fleet
/// invariant fails the campaign instead of skewing its aggregates.
///
/// Determinism: a trial is a pure function of (grid point, trial seed),
/// so BENCH_fleet.json is bit-identical for any --threads, which is what
/// the fleet-smoke CI job asserts with cmp.

#include "src/exp/campaign.hpp"
#include "src/fleet/fleet.hpp"

namespace rasc::fleet {

/// Cells at or above this fleet size run with stack hibernation and the
/// bounded live pool (FleetConfig::max_live_stacks = kHibernationPool).
/// The threshold is low enough that CI's reduced fleet-1m cell
/// (devices=20000) exercises the hibernate/wake path, while the 1k/10k
/// cells keep the uncapped all-resident regime covered.
inline constexpr std::size_t kHibernationDeviceThreshold = 20000;
inline constexpr std::size_t kHibernationPool = 4096;

/// Build the fleet configuration for one (cell, trial seed) coordinate.
/// Shared by the campaign trial function and campaign_runner's
/// --journal-out replay, so a re-run with a journal attached reproduces
/// the selected trial event-for-event.
FleetConfig fleet_config_for(const exp::GridPoint& point, std::uint64_t trial_seed);

/// Spec name "fleet" (artifact BENCH_fleet.json; the campaign_runner CLI
/// registers it as "fleet_scale").  Axes: devices x drop_pct x
/// stagger policy.  Bernoulli channel = per-round misjudgement against
/// the roster's ground truth; scalars track throughput (rounds per
/// simulated second), verifier memory per device (must shrink as N
/// grows), time to full fleet coverage, admission high-water and the
/// wasted prover CPU the reliability layer burned.  Fleet trials are
/// heavyweight (one trial = devices x epochs rounds), so the default is
/// one trial per cell — the fleet seed still varies per cell through
/// derive_trial_seed.
exp::CampaignSpec make_fleet_scale_campaign();

}  // namespace rasc::fleet
