#include "src/selfmeasure/seed.hpp"

#include <algorithm>

#include "src/crypto/drbg.hpp"

namespace rasc::selfm {

sim::Time seed_attestation_time(support::ByteView seed, std::uint64_t index,
                                sim::Duration epoch) {
  support::Bytes material(seed.begin(), seed.end());
  support::append(material, support::to_bytes("seed-schedule"));
  support::append_u64_be(material, index);
  crypto::HmacDrbg drbg(material);
  // Leave a tail margin so the measurement itself fits inside the epoch.
  const sim::Duration margin = epoch / 8;
  const sim::Duration offset = drbg.below(epoch - margin);
  return index * epoch + offset;
}

SeedProver::SeedProver(sim::Device& device, SeedConfig config, sim::Link& to_vrf)
    : device_(device),
      config_(std::move(config)),
      to_vrf_(to_vrf),
      mp_(device,
          [this] {
            attest::ProverConfig pc;
            pc.hash = config_.hash;
            pc.mode = config_.mode;
            pc.priority = config_.priority;
            return pc;
          }()) {}

void SeedProver::start(sim::Time until) {
  auto& sim = device_.sim();
  for (std::uint64_t k = 0;; ++k) {
    const sim::Time t = seed_attestation_time(config_.shared_seed, k, config_.epoch);
    if (t >= until) break;
    sim.schedule_at(t, [this, k] { attest_epoch(k); });
  }
}

void SeedProver::attest_epoch(std::uint64_t index) {
  if (mp_.busy()) return;  // previous epoch's measurement overran
  if (auto* sink = device_.sim().trace_sink()) {
    sink->instant(device_.sim().now(), "seed", "seed.epoch_start",
                  {obs::arg("epoch", index)});
  }
  // Counter = epoch index + 1 binds the report to its slot (replay of an
  // older report carries a stale counter and fails verification).
  attest::MeasurementContext context{device_.id(), {}, index + 1};
  mp_.start(std::move(context), [this](attest::AttestationResult result) {
    measurement_times_.push_back(result.t_e);
    ++sent_;
    if (auto* sink = device_.sim().trace_sink()) {
      sink->instant(device_.sim().now(), "seed", "seed.report_sent",
                    {obs::arg("counter", result.report.counter)});
    }
    auto report = std::make_shared<attest::Report>(std::move(result.report));
    support::Bytes payload = report->serialize_body();
    support::append(payload, report->mac);
    to_vrf_.send(std::move(payload), [this, report](support::Bytes) {
      if (on_delivered_) on_delivered_(*report);
    });
  });
}

SeedVerifier::SeedVerifier(sim::Simulator& sim, attest::Verifier& verifier,
                           SeedConfig config)
    : sim_(sim), verifier_(verifier), config_(std::move(config)) {}

void SeedVerifier::start(sim::Time until) {
  for (std::uint64_t k = 0;; ++k) {
    const sim::Time expected = seed_attestation_time(config_.shared_seed, k, config_.epoch);
    if (expected >= until) break;
    EpochOutcome outcome;
    outcome.epoch = k;
    outcome.expected_at = expected;
    outcomes_.push_back(outcome);
    const std::size_t slot = outcomes_.size() - 1;
    // Expectation window: measurement duration + network are folded into
    // response_window; anything later counts as missing.
    sim_.schedule_at(expected + config_.response_window,
                     [this, slot] { close_epoch(slot); });
  }
}

void SeedVerifier::on_report(const attest::Report& report) {
  if (report.counter == 0 || report.counter > outcomes_.size()) {
    ++replays_rejected_;
    return;
  }
  EpochOutcome& outcome = outcomes_[report.counter - 1];
  if (outcome.received) {  // duplicate/replay within the same epoch
    ++replays_rejected_;
    if (auto* sink = sim_.trace_sink()) {
      sink->instant(sim_.now(), "seed", "seed.replay_rejected",
                    {obs::arg("epoch", outcome.epoch)});
    }
    return;
  }
  outcome.received = true;
  const auto verdict = verifier_.verify(report, /*expect_challenge=*/false);
  outcome.verified_ok = verdict.ok();
  if (!outcome.verified_ok) {
    if (auto* sink = sim_.trace_sink()) {
      sink->instant(sim_.now(), "seed", "seed.bad_report",
                    {obs::arg("epoch", outcome.epoch)});
    }
  }
}

void SeedVerifier::close_epoch(std::size_t slot) {
  EpochOutcome& outcome = outcomes_[slot];
  if (!outcome.received) {
    outcome.missing = true;
    if (auto* sink = sim_.trace_sink()) {
      sink->instant(sim_.now(), "seed", "seed.missing_epoch",
                    {obs::arg("epoch", outcome.epoch)});
    }
  }
}

std::size_t SeedVerifier::false_alarms() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(outcomes_.begin(), outcomes_.end(),
                    [](const EpochOutcome& o) { return o.missing; }));
}

std::size_t SeedVerifier::detections() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(outcomes_.begin(), outcomes_.end(), [](const EpochOutcome& o) {
        return o.received && !o.verified_ok;
      }));
}

}  // namespace rasc::selfm
