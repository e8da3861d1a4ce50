#pragma once
/// \file campaign.hpp
/// SMARM escape-rate experiment campaigns (paper Section 3.2) for the
/// exp engine: a parameter sweep over measurement rounds and block counts
/// whose Bernoulli channel is "the roving malware escaped every round".
/// The empirical rate per cell is compared against the closed form
/// ((1-1/k)^k)^n — e^-1 ~ 0.37 at one round, below 1e-6 at ~13.

#include "src/exp/campaign.hpp"
#include "src/smarm/runner.hpp"

namespace rasc::smarm {

/// Abstract-game campaign: each trial plays play_escape_game() once from
/// its private RNG stream.  Default grid sweeps rounds x blocks, covering
/// the paper's two headline points (1 round @ ~0.37, 13 rounds @ <1e-6);
/// 1000 trials per cell.
exp::CampaignSpec make_escape_campaign();

/// Full-stack campaign: each trial runs a fresh simulated device (real
/// shuffled measurement, real relocation writes, real verifier) for one
/// round and reports whether the verifier missed the malware.  Slower per
/// trial, so the default grid is small and runs 200 trials per cell;
/// per-round duration histograms are merged across trials into each
/// cell's metrics.
exp::CampaignSpec make_fullstack_escape_campaign();

}  // namespace rasc::smarm
