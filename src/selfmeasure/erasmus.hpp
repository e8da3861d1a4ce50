#pragma once
/// \file erasmus.hpp
/// ERASMUS (paper Section 3.3): the prover performs recurrent
/// self-initiated measurements on a schedule T_M and stores them locally;
/// the verifier occasionally collects and verifies the stored history on a
/// schedule T_C.  Decoupling T_M from T_C is the QoA insight of Figure 5:
/// the window of opportunity for transient malware is T_M, independent of
/// how often the verifier shows up.

#include <deque>
#include <vector>

#include "src/attest/prover.hpp"
#include "src/attest/verifier.hpp"
#include "src/sim/network.hpp"

namespace rasc::selfm {

struct ErasmusConfig {
  sim::Duration period = 10 * sim::kSecond;  ///< T_M
  std::size_t history_capacity = 64;         ///< measurement ring buffer
  crypto::HashKind hash = crypto::HashKind::kSha256;
  attest::ExecutionMode mode = attest::ExecutionMode::kInterruptible;
  attest::TraversalOrder order = attest::TraversalOrder::kSequential;
  int priority = 5;  ///< below the critical application
  /// Context awareness (paper compromise (2)): defer a due measurement
  /// while the CPU is busy with the application instead of contending.
  bool context_aware = false;
};

class ErasmusProver {
 public:
  ErasmusProver(sim::Device& device, ErasmusConfig config,
                attest::LockPolicy* policy = nullptr);

  /// Schedule self-measurements at t0 + k*T_M for all k with time < until.
  void start(sim::Time until);

  /// Also measure right now on Vrf's request (ERASMUS coupled with
  /// on-demand attestation); `done` receives the fresh report.
  void measure_on_demand(support::Bytes challenge,
                         std::function<void(attest::Report)> done);

  /// Stored history, oldest first.
  const std::deque<attest::Report>& history() const noexcept { return history_; }

  /// Times at which measurements completed (for QoA analysis).
  const std::vector<sim::Time>& measurement_times() const noexcept {
    return measurement_times_;
  }

  std::uint64_t measurements_taken() const noexcept { return counter_; }
  std::size_t deferrals() const noexcept { return deferrals_; }

  attest::AttestationProcess& process() noexcept { return mp_; }
  sim::Simulator& simulator() noexcept { return device_.sim(); }

 private:
  void tick();
  void store(attest::Report report);

  sim::Device& device_;
  ErasmusConfig config_;
  attest::AttestationProcess mp_;
  std::deque<attest::Report> history_;
  std::vector<sim::Time> measurement_times_;
  std::uint64_t counter_ = 0;
  std::size_t deferrals_ = 0;
  sim::Time until_ = 0;
};

/// Vrf-side collector: every T_C it pulls the prover's stored history over
/// the link and verifies every previously-unseen report.
class Collector {
 public:
  struct CollectionRecord {
    sim::Time at = 0;               ///< when verification finished
    std::size_t reports_seen = 0;   ///< new reports in this collection
    std::size_t reports_bad = 0;    ///< failed verification
    bool detected = false;
  };

  Collector(attest::Verifier& verifier, ErasmusProver& prover, sim::Link& to_prv,
            sim::Link& to_vrf, sim::Duration period);

  /// Schedule collections every T_C until `until`.
  void start(sim::Time until);

  const std::vector<CollectionRecord>& records() const noexcept { return records_; }
  /// Times when a bad report was first seen by Vrf (detection latency).
  const std::vector<sim::Time>& detection_times() const noexcept {
    return detection_times_;
  }

 private:
  void collect();

  attest::Verifier& verifier_;
  ErasmusProver& prover_;
  sim::Link& to_prv_;
  sim::Link& to_vrf_;
  sim::Duration period_;
  std::uint64_t seen_up_to_ = 0;  ///< highest report counter verified
  std::vector<CollectionRecord> records_;
  std::vector<sim::Time> detection_times_;
};

}  // namespace rasc::selfm
