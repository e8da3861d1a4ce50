#pragma once
/// \file health.hpp
/// Fleet health rollup: a mergeable per-fleet summary of attestation round
/// outcomes — per-outcome rates, retry-depth histogram, p50/p99 round
/// latency, and wasted measurement time — designed to fold across
/// Monte-Carlo trials by the src/exp shard pool exactly like
/// MetricsRegistry (associative merge, deterministic JSON).  This is the
/// seed data structure for the ROADMAP fleet verifier: a gateway can keep
/// one rollup per subnet and merge them upstream without ever shipping raw
/// events.
///
/// The obs layer cannot depend on attest, so the outcome taxonomy lives
/// here; attest::SessionOutcome is an alias of RoundOutcome, and
/// attest::record_round folds a session's RoundResult into a rollup.

#include <array>
#include <cstdint>
#include <string_view>

#include "src/obs/metrics.hpp"

namespace rasc::obs {

/// Terminal verdicts of one attestation round (attest::SessionOutcome).
/// The values are journaled (session.resolved a = outcome), so they are
/// a wire format: append only.
enum class RoundOutcome : std::uint8_t {
  kVerified = 0,    ///< report verified: device healthy
  kCompromised,     ///< authentic report, digest mismatch: device infected
  kTimeout,         ///< retry budget exhausted in silence: unreachable
  kCorruptReport,   ///< budget exhausted; answers arrived but were garbled
  kReplayRejected,  ///< budget exhausted; only stale/duplicate reports heard
};
inline constexpr std::size_t kRoundOutcomeCount = 5;

std::string_view round_outcome_name(RoundOutcome outcome);

class JsonWriter;

/// Accumulates rounds; merge() is associative and commutative so shard
/// folds produce the same rollup for any thread count.
class HealthRollup {
 public:
  /// Retry depths above this clamp into the last slot.
  static constexpr std::size_t kMaxRetryDepth = 16;

  HealthRollup();

  /// Record one resolved round.  `attempts` is 1-based (a first-try
  /// success records depth 1); times are nanoseconds of simulated time.
  void record_round(RoundOutcome outcome, std::uint64_t attempts,
                    std::uint64_t latency_ns, std::uint64_t measure_ns,
                    std::uint64_t wasted_measure_ns);

  /// Normalized block-index histogram for verifier fault localization:
  /// bucket i covers block-index fractions [i/16, (i+1)/16) of the
  /// prover's attested region, so fleets of mixed memory sizes fold into
  /// one comparable "where do infections land" picture.
  static constexpr std::size_t kLocalizationBuckets = 16;

  /// Record one localized mismatching block range [first_block,
  /// first_block + block_count) out of total_blocks attested blocks (tree
  /// mode; one call per localized range).  No-op when block_count or
  /// total_blocks is zero.
  void record_localization(std::uint64_t first_block, std::uint64_t block_count,
                           std::uint64_t total_blocks);
  /// Record a compromised round whose report carried no usable subtree
  /// proof (root mismatch only — the flat-measurement equivalent).
  void record_unlocalized_compromise() { ++unlocalized_compromised_; }

  void merge(const HealthRollup& other);

  bool empty() const noexcept { return rounds_ == 0; }
  std::uint64_t rounds() const noexcept { return rounds_; }
  std::uint64_t outcome_count(RoundOutcome outcome) const noexcept {
    return outcomes_[static_cast<std::size_t>(outcome)];
  }
  double outcome_rate(RoundOutcome outcome) const noexcept;
  /// retry_depth(1) = rounds resolved on the first attempt, ...;
  /// retry_depth(kMaxRetryDepth) includes everything deeper.
  std::uint64_t retry_depth(std::size_t attempts) const noexcept;
  const Histogram& latency_ms() const noexcept { return latency_ms_; }
  double measure_ms_total() const noexcept;
  double wasted_measure_ms_total() const noexcept;

  std::uint64_t localized_ranges() const noexcept { return localized_ranges_; }
  std::uint64_t localized_blocks() const noexcept { return localized_blocks_; }
  std::uint64_t unlocalized_compromised() const noexcept {
    return unlocalized_compromised_;
  }
  /// Localized blocks whose normalized index fell into bucket `i`.
  std::uint64_t localization_bucket(std::size_t i) const noexcept {
    return i < kLocalizationBuckets ? localization_[i] : 0;
  }

  /// {"rounds":N,"outcomes":{name:{count,rate},..},"retry_depth":[..],
  ///  "latency_ms":{p50,p99,mean,max},"measure_ms_total":X,
  ///  "wasted_measure_ms_total":Y} — written as one JSON value.  A
  ///  "localization" section {ranges,blocks,unlocalized,block_histogram}
  ///  is appended only when localization was recorded, so rollups from
  ///  flat-measurement runs serialize exactly as before.
  void write_json(JsonWriter& w) const;
  std::string to_json() const;

 private:
  std::uint64_t rounds_ = 0;
  std::array<std::uint64_t, kRoundOutcomeCount> outcomes_{};
  std::array<std::uint64_t, kMaxRetryDepth> retry_depth_{};
  Histogram latency_ms_;
  std::uint64_t measure_ns_ = 0;
  std::uint64_t wasted_measure_ns_ = 0;
  std::uint64_t localized_ranges_ = 0;
  std::uint64_t localized_blocks_ = 0;
  std::uint64_t unlocalized_compromised_ = 0;
  std::array<std::uint64_t, kLocalizationBuckets> localization_{};
};

}  // namespace rasc::obs
