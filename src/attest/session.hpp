#pragma once
/// \file session.hpp
/// Verifier-side reliable RA session: a state machine around
/// OnDemandProtocol that guarantees every attestation round reaches a
/// terminal outcome on an unreliable network.  The paper's Section 2.2
/// protocol (and its SeED discussion) assumes messages arrive; on a real
/// link a dropped challenge or report would leave the verifier waiting
/// forever.  The session adds:
///
///   - a per-attempt response timeout;
///   - bounded retries with exponential backoff and deterministic jitter
///     (each retry is a fresh challenge + counter, so the prover's
///     replay guard never blocks a legitimate re-ask);
///   - rejection of stale and duplicate reports (a late answer to a
///     superseded challenge, or a link-duplicated copy of the winning
///     report, is counted and discarded — never double-judged);
///   - a terminal outcome taxonomy that distinguishes a *compromised*
///     device (valid MAC, wrong digest) from an *unreachable* one
///     (silence), a *garbled* one (MAC-failing or unparseable reports)
///     and pure staleness (only replays heard).
///
/// The session also prices reliability: how much prover CPU time went
/// into measurements whose reports never decided the round (the
/// retry-overhead metric of the lossy-link campaign).

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "src/attest/protocol.hpp"
#include "src/obs/health.hpp"

namespace rasc::attest {

/// Terminal outcome of one round.  The taxonomy lives in obs (health
/// rollups and the journal cannot depend on attest); its stable names
/// come from obs::round_outcome_name.
using SessionOutcome = obs::RoundOutcome;

struct SessionConfig {
  /// How long each attempt waits for a verified report before giving up.
  sim::Duration response_timeout = 500 * sim::kMillisecond;
  /// Total attempts per round (1 = no retries).  Must be >= 1.
  std::size_t max_attempts = 4;
  /// Backoff before retry k (1-based) is
  ///   backoff_base * backoff_factor^(k-1) * (1 + U[0, backoff_jitter])
  /// with U drawn from the session RNG — deterministic from `seed`.
  sim::Duration backoff_base = 50 * sim::kMillisecond;
  double backoff_factor = 2.0;
  double backoff_jitter = 0.2;
  /// Saturating cap on any single backoff wait.  The exponential product
  /// above is computed in double and clamped here *before* the cast to
  /// sim::Duration — without the clamp a deep retry budget or a large
  /// factor overflows the uint64 cast (undefined behavior) and can
  /// schedule a retry absurdly far into the simulated future.
  sim::Duration backoff_max = 60 * sim::kSecond;
  std::uint64_t seed = 0x5e5510;
  OnDemandConfig protocol;
};

/// Everything a resolved round reports back.
struct RoundResult {
  SessionOutcome outcome = SessionOutcome::kTimeout;
  VerifyOutcome verdict;            ///< decisive report (Verified/Compromised)
  std::size_t attempts = 0;         ///< challenges actually sent
  std::size_t attempt_timeouts = 0; ///< attempts that expired unanswered
  std::size_t replays_rejected = 0; ///< stale/duplicate reports discarded
  std::size_t corrupt_reports = 0;  ///< unparseable or MAC-failing reports
  sim::Time t_started = 0;
  sim::Time t_resolved = 0;
  sim::Duration backoff_total = 0;  ///< verifier time spent waiting to retry
  /// Prover CPU time consumed by this round's measurements, and the share
  /// of it that did not back the terminal verdict (wasted on attempts
  /// whose report was lost, stale or corrupted).
  sim::Duration measure_time = 0;
  sim::Duration wasted_measure_time = 0;
  OnDemandTimings timings;          ///< decisive attempt's Figure 1 timeline
};

class ReliableSession {
 public:
  /// All references must outlive the session; the session must outlive
  /// the simulator run it participates in (late network deliveries hold
  /// callbacks into it).
  ReliableSession(sim::Device& prover_device, Verifier& verifier,
                  AttestationProcess& mp, sim::Link& vrf_to_prv,
                  sim::Link& prv_to_vrf, SessionConfig config = {});

  /// Run one reliable round; `done` fires exactly once with a terminal
  /// outcome — there is no code path that leaks the callback.  Throws
  /// std::logic_error if a round is already in flight and
  /// std::invalid_argument on a zero-attempt config.
  void run(std::function<void(RoundResult)> done);

  bool busy() const noexcept { return state_ != nullptr; }

  /// True when no round is in flight and the wrapped protocol has no
  /// deferral event outstanding — the only state in which this session
  /// (and the device stack owning it) may be torn down for hibernation.
  bool quiescent() const noexcept {
    return state_ == nullptr && protocol_.pending_events() == 0;
  }

  /// Lifetime counters across rounds.  Each event behind them is also one
  /// session.* fact emitted through the simulator's observer.
  struct Counters {
    std::size_t rounds_resolved = 0;
    std::size_t retries = 0;
    std::size_t replays_rejected = 0;
    std::size_t corrupt_reports = 0;
    /// Reports that arrived after their round resolved (e.g. a duplicated
    /// copy of the winning report) — rejected without re-judging.
    std::size_t late_reports = 0;
  };
  std::size_t rounds_resolved() const noexcept { return counters_.rounds_resolved; }
  std::size_t retries() const noexcept { return counters_.retries; }
  std::size_t replays_rejected() const noexcept { return counters_.replays_rejected; }
  std::size_t corrupt_reports() const noexcept { return counters_.corrupt_reports; }
  std::size_t late_reports() const noexcept { return counters_.late_reports; }

  /// Session-and-protocol state that must survive hibernation: the jitter
  /// RNG position, the monotonic counter/round sequences, the lifetime
  /// counters, and the prover's replay-protection watermark.  Capture only
  /// while quiescent(); restore into a freshly constructed session with
  /// the same config before its next run().
  struct State {
    support::Xoshiro256::State rng{};
    std::uint64_t next_counter = 1;
    std::uint64_t next_round_seq = 1;
    Counters counters;
    OnDemandProtocol::State protocol;
  };

  State save_state() const;
  void restore_state(const State& s);

 private:
  struct RoundState {
    std::uint64_t round_seq = 0;
    RoundResult result;
    bool waiting_response = false;  ///< an attempt is in flight (vs. backoff)
    bool saw_corrupt = false;
    bool saw_replay = false;
    sim::Duration measure_time_at_start = 0;
    sim::EventHandle timeout;
    sim::EventHandle retry;
    std::function<void(RoundResult)> done;
  };

  void start_attempt();
  void on_attempt_report(std::uint64_t round_seq, OnDemandTimings timings);
  void on_attempt_timeout(std::uint64_t round_seq);
  void schedule_retry();
  void resolve(SessionOutcome outcome);
  /// One session fact (round = round_seq of the affected round).
  void emit(obs::JournalEventKind kind, std::uint64_t round, std::uint64_t a = 0,
            std::uint64_t b = 0, obs::RoundDetail detail = {});

  sim::Device& device_;
  AttestationProcess& mp_;
  SessionConfig config_;
  OnDemandProtocol protocol_;
  support::Xoshiro256 rng_;
  std::string journal_label_;      ///< journal session name, "session/<device>"
  obs::ActorId journal_actor_;     ///< prover device id
  obs::ActorId journal_session_;   ///< this session's id (interned label)
  std::uint64_t next_counter_ = 1;
  std::uint64_t next_round_seq_ = 1;
  std::unique_ptr<RoundState> state_;  ///< null when idle
  Counters counters_;
};

/// Fold one resolved round into a health rollup: outcome, retry depth,
/// latency and measurement time, plus (compromised tree-mode rounds) the
/// localized block ranges.  Drivers call it where results land — per
/// shard in the fleet — since a session has no rollup of its own.
void record_round(obs::HealthRollup& health, const RoundResult& result);

}  // namespace rasc::attest
