#pragma once
/// \file seed.hpp
/// SeED (paper Section 3.3): secure non-interactive attestation.  The
/// prover initiates attestation at times that are pseudorandom, derived
/// from a seed shared with the verifier, and kept secret from all software
/// on the prover (a dedicated timeout circuit).  Properties modeled here:
///   - replay resistance via a monotonic counter bound into the report;
///   - transient malware cannot predict attestation times (unlike a
///     public periodic schedule);
///   - Vrf knows when to *expect* a report, so a dropped or suppressed
///     response is noticed — at the cost of false positives on lossy
///     links, since the unidirectional protocol has no acknowledgements.

#include <functional>
#include <vector>

#include "src/attest/prover.hpp"
#include "src/attest/verifier.hpp"
#include "src/sim/network.hpp"

namespace rasc::selfm {

/// Shared schedule computation: attestation k fires at
///   k*epoch + PRF(seed, k) mod (epoch - margin)
/// Both sides evaluate it; prover software (and malware) cannot, because
/// the seed sits in the timeout circuit.
sim::Time seed_attestation_time(support::ByteView seed, std::uint64_t index,
                                sim::Duration epoch);

struct SeedConfig {
  support::Bytes shared_seed;
  sim::Duration epoch = 30 * sim::kSecond;     ///< one attestation per epoch
  sim::Duration response_window = sim::kSecond;  ///< Vrf tolerance past the
                                                 ///< expected arrival
  crypto::HashKind hash = crypto::HashKind::kSha256;
  attest::ExecutionMode mode = attest::ExecutionMode::kInterruptible;
  int priority = 5;
};

class SeedProver {
 public:
  SeedProver(sim::Device& device, SeedConfig config, sim::Link& to_vrf);

  /// Schedule attestations for all epochs starting before `until`.
  void start(sim::Time until);

  /// Invoked with the report when (and only when) the link delivers it;
  /// the scenario wires this to SeedVerifier::on_report.
  void set_delivery_handler(std::function<void(const attest::Report&)> handler) {
    on_delivered_ = std::move(handler);
  }

  std::uint64_t attestations_sent() const noexcept { return sent_; }
  const std::vector<sim::Time>& measurement_times() const noexcept {
    return measurement_times_;
  }

  attest::AttestationProcess& process() noexcept { return mp_; }

 private:
  void attest_epoch(std::uint64_t index);

  sim::Device& device_;
  SeedConfig config_;
  sim::Link& to_vrf_;
  attest::AttestationProcess mp_;
  std::function<void(const attest::Report&)> on_delivered_;
  std::uint64_t sent_ = 0;
  std::vector<sim::Time> measurement_times_;
};

/// Vrf side: awaits unsolicited reports at the shared pseudorandom times.
class SeedVerifier {
 public:
  struct EpochOutcome {
    std::uint64_t epoch = 0;
    sim::Time expected_at = 0;
    bool received = false;
    bool verified_ok = false;   ///< MAC + digest + counter all good
    bool missing = false;       ///< nothing arrived inside the window
  };

  SeedVerifier(sim::Simulator& sim, attest::Verifier& verifier, SeedConfig config);

  /// Arm expectation windows for all epochs starting before `until`.
  void start(sim::Time until);

  /// Wire as the delivery handler of the prover->verifier link.  A report
  /// for an epoch that already received one (a link-duplicated or replayed
  /// copy) or for an out-of-range epoch is discarded and counted — the
  /// unidirectional protocol's only replay defense is the epoch binding.
  void on_report(const attest::Report& report);

  const std::vector<EpochOutcome>& outcomes() const noexcept { return outcomes_; }
  std::size_t false_alarms() const noexcept;   ///< missing epochs
  std::size_t detections() const noexcept;     ///< bad reports received
  /// Duplicate or out-of-range reports discarded without re-judging.
  std::size_t replays_rejected() const noexcept { return replays_rejected_; }

 private:
  void close_epoch(std::size_t slot);

  sim::Simulator& sim_;
  attest::Verifier& verifier_;
  SeedConfig config_;
  std::size_t replays_rejected_ = 0;
  std::vector<EpochOutcome> outcomes_;
};

}  // namespace rasc::selfm
