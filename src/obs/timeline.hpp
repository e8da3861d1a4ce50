#pragma once
/// \file timeline.hpp
/// Round timelines: reconstruct the per-(device, round) causal chain of an
/// attestation round from the flight-recorder journal, and render it as a
/// human-readable "explain" transcript —
///
///   round 3 on prv-0: timeout after 4 attempts, 1.204 ms wasted MP
///     +0.000 ms  session.start        max_attempts=4
///     +0.000 ms  session.attempt      #1
///     +0.013 ms  link.send            msg=17 (42 B)
///     +0.013 ms  link.drop            msg=17
///     ...
///
/// so any misjudged round in a campaign artifact can be explained from its
/// journal instead of re-run under a debugger.

#include <string>
#include <vector>

#include "src/obs/journal.hpp"

namespace rasc::obs {

/// One reconstructed round: the session-tagged events plus every untagged
/// event of the same actor (cache, verdict, fleet) that happened inside the
/// round's time window.  Link events name the link direction, not a device,
/// so they join the first round whose window contains them on any actor:
/// exact for the sequential ReliableSession driver, best effort where
/// rounds of several devices overlap.
struct RoundTimeline {
  std::uint32_t session = 0;
  std::uint64_t round = 0;
  std::uint32_t actor = 0;   ///< prover actor id of the session events
  TimeNs t_start = 0;        ///< time of session.start
  TimeNs t_resolved = 0;     ///< time of session.resolved
  std::uint64_t attempts = 0;
  /// RoundOutcome numeric value from session.resolved (arg a); ~0ull when
  /// the round never resolved inside the journal window.
  std::uint64_t outcome = ~0ull;
  std::uint64_t wasted_measure_ns = 0;  ///< session.resolved arg b
  std::vector<JournalEvent> events;     ///< time-ordered

  bool resolved() const noexcept { return outcome != ~0ull; }
};

/// All rounds found in the journal, ordered by (time of session.start).
/// Rounds whose session.start was overwritten by ring wrap-around are
/// reconstructed from their first surviving event.
std::vector<RoundTimeline> build_round_timelines(const EventJournal& journal);

/// Render one round as an explain transcript (header + one line per event,
/// offsets relative to the round start).
std::string explain_round(const EventJournal& journal, const RoundTimeline& round);

/// Render every round in the journal; `only_problem_rounds` keeps just the
/// ones that did not verify on the first attempt.
std::string explain(const EventJournal& journal, bool only_problem_rounds = false);

/// Flat transcript of every journal event (no round grouping) — used by
/// app-level journals (fire_alarm_demo) that have no sessions.
std::string render_journal_summary(const EventJournal& journal);

}  // namespace rasc::obs
