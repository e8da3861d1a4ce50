#pragma once
/// \file campaign.hpp
/// Application-scenario campaigns for the exp engine.
///
/// fire_alarm: Monte-Carlo over the Section 2.5 conflict.  Each trial
/// drops the fire at a uniformly random offset inside the measurement
/// window and reports per-sample deadline misses (Bernoulli channel) plus
/// alarm latency / measurement duration scalars, swept over execution
/// mode x modeled memory size.
///
/// lock_matrix: Table 1 as a statistical experiment.  Each trial runs one
/// attestation round under a locking mechanism x adversary cell; the
/// Bernoulli channel is "the verifier detected the malware", with writer
/// availability as a scalar.

#include "src/apps/scenario.hpp"
#include "src/exp/campaign.hpp"

namespace rasc::apps {

/// Spec name "sec25_fire_alarm"; 100 trials per cell.
exp::CampaignSpec make_fire_alarm_campaign();

/// Spec name "lock_matrix"; 50 trials per cell.
exp::CampaignSpec make_lock_matrix_campaign();

/// Dirty-fraction sweep for the generation-keyed digest cache: each trial
/// measures a device, dirties `dirty_pct`% of its blocks, then re-measures
/// with and without the cache.  Bernoulli channel = "cached and uncached
/// measurements are byte-identical", which every trial also requires;
/// scalar channels count cache hits against the expected clean-block
/// count.  All values are deterministic — host wall-clock never enters the
/// aggregates.  40 trials per cell.
exp::CampaignSpec make_measurement_cache_campaign();

/// Tree-mode attestation sweep (spec name "mtree", artifact
/// BENCH_mtree.json): dirty_pct x infected over a Merkle-tree prover.
/// Healthy trials churn dirty_pct% of the blocks by rewriting their own
/// bytes — generations bump and the tree re-hashes those leaves, but every
/// digest is unchanged, so the round must stay Verified.  Infected trials
/// additionally patch a known contiguous block range; the Bernoulli
/// channel is "the verifier's localized range is exactly the infected
/// range" (healthy: "the round verified"), which every trial requires.
/// All values are deterministic — identical aggregates for any --threads.
/// 40 trials per cell.
exp::CampaignSpec make_mtree_campaign();

/// Build the scenario config (four sequential rounds) for one (cell, trial
/// seed) of the network reliability campaign.  Shared by the campaign
/// trial function and campaign_runner's --journal-out replay, so a re-run
/// with a journal attached reproduces the selected trial event-for-event.
NetworkScenarioConfig network_scenario_config(const exp::GridPoint& point,
                                              std::uint64_t trial_seed);

/// Lossy-link reliability sweep (spec name "network", so the artifact is
/// BENCH_network.json): drop_pct x retry budget x per-attempt timeout,
/// over a *healthy* prover with mild background duplication/reordering/
/// corruption.  Bernoulli channel = per-round false positive (healthy
/// device judged anything but Verified); scalars price the reliability
/// machinery (attempts per round, backoff, wasted prover CPU time on
/// measurements whose reports never decided a round).  Every trial
/// asserts that all rounds reached a terminal outcome — a leaked `done`
/// callback fails the campaign rather than skewing it.  100 trials per
/// cell.
exp::CampaignSpec make_network_reliability_campaign();

}  // namespace rasc::apps
