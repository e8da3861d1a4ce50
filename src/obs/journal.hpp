#pragma once
/// \file journal.hpp
/// Flight-recorder event journal: a bounded ring buffer of fixed-size
/// typed events keyed to simulated time.  Where the TraceSink answers
/// "what does the timeline look like" (Chrome-trace spans for a human in
/// Perfetto), the journal answers "what exactly happened, in order, to
/// this device/session/round" — a structured, queryable record that a
/// campaign misjudge can be *explained* from (see timeline.hpp).
///
/// Design constraints, matching the PR-4 hot-path ethos:
///  - events are POD (timestamp, interned actor id, session/round ids,
///    kind, two u64 args) — appending allocates nothing;
///  - the ring is preallocated; when full the OLDEST events are
///    overwritten first (flight-recorder semantics) and dropped() counts;
///  - events arrive through obs::Observer::emit (observer.hpp), which
///    feeds the trace and metrics channels from the same call; a detached
///    simulator pays one null branch per emitting site;
///  - NDJSON export is a pure function of the recorded events, so a
///    journal captured from a deterministic simulation is byte-identical
///    across runs and thread counts like every other artifact.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace rasc::obs {

using TimeNs = std::uint64_t;  ///< nanoseconds of simulated time

/// Every instrumented site in the stack.  The two u64 args are
/// kind-specific; the meaning is documented per block below and rendered
/// by the explain renderer (timeline.cpp).
enum class JournalEventKind : std::uint8_t {
  // sim::Link — a = message id, b as noted.
  kLinkSend,           ///< b = payload bytes
  kLinkDeliver,        ///< b = payload bytes (fires once per delivered copy)
  kLinkDrop,           ///< b = payload bytes
  kLinkPartitionDrop,  ///< b = payload bytes
  kLinkDuplicate,      ///< b = extra transit ns of the trailing copy
  kLinkCorrupt,        ///< b = corrupted byte offset
  kLinkReorder,        ///< b = holdback delay ns
  // attest::ReliableSession — actor = prover device.
  kSessionStart,          ///< a = max attempts, b = response timeout ns
  kSessionAttempt,        ///< a = attempt number (1-based), b = protocol counter
  kSessionAttemptTimeout, ///< a = attempt number
  kSessionBackoff,        ///< a = attempt that failed, b = backoff ns
  kSessionReplayRejected, ///< a = attempt number
  kSessionCorruptReport,  ///< a = attempt number
  kSessionLateReport,     ///< report arrived after the round resolved
  kSessionResolved,       ///< a = RoundOutcome, b = wasted measure ns
  // attest digest cache — a = block index, b = generation.
  kCacheHit,
  kCacheMiss,
  kCacheInvalidate,  ///< a = block (or ~0ull for all), b = entries flushed
  // apps::FireAlarmTask — a = delay/latency ns.
  kDeadlineHit,
  kDeadlineMiss,
  kAlarmRaised,
  // mtree incremental measurement (appended at the end so existing
  // numeric payloads keep their values).
  kMtreeRehash,  ///< a = dirty leaves folded in, b = tree nodes re-hashed
  kMtreeProof,   ///< a = first covered leaf, b = covered leaf count
  // fleet stack hibernation — actor = prover device (appended at the end
  // so existing numeric payloads keep their values).
  kFleetHibernate,  ///< a = rounds resolved so far, b = live stacks after
  kFleetWake,       ///< a = wakes of this device so far, b = live stacks after
  // Verifier verdict on a parsed report, emitted by attest::OnDemandProtocol
  // and smarm::run_rounds — actor = prover device.  An unparsable report
  // yields none.
  kVerifierVerdict,  ///< a = VerdictBit mask, b = localized block ranges
  // smarm::run_rounds — one per permutation round, round = its 1-based index.
  kSmarmRound,  ///< a = 1 when the verifier rejected the report, b = measure ns
};
inline constexpr std::size_t kJournalEventKindCount =
    static_cast<std::size_t>(JournalEventKind::kSmarmRound) + 1;

/// Bits of a verifier.verdict fact's `a`: kVerdictRejected when the report
/// failed verification, plus one bit per failed check.  The tree bits are
/// set only for tree-mode reports.
enum VerdictBit : std::uint64_t {
  kVerdictRejected = 1u << 0,
  kVerdictBadMac = 1u << 1,
  kVerdictBadDigest = 1u << 2,
  kVerdictBadChallenge = 1u << 3,
  kVerdictBadCounter = 1u << 4,
  kVerdictBadTreeBinding = 1u << 5,
  kVerdictBadProof = 1u << 6,
};
inline constexpr std::size_t kVerdictBitCount = 7;

/// Stable machine name ("link.drop", "session.resolved", ...), read from
/// the per-kind table in observer.cpp.
std::string_view journal_event_kind_name(JournalEventKind kind);

struct JournalEvent {
  TimeNs time = 0;
  std::uint32_t actor = 0;    ///< interned name; 0 = unknown
  std::uint32_t session = 0;  ///< session instance id; 0 = none
  std::uint64_t round = 0;    ///< round sequence within the session; 0 = none
  JournalEventKind kind = JournalEventKind::kLinkSend;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};
static_assert(std::is_trivially_copyable_v<JournalEvent>,
              "journal events must append without allocation");

/// Conjunctive match over the event fields; unset members match anything.
struct JournalFilter {
  std::optional<JournalEventKind> kind;
  std::optional<std::uint32_t> actor;
  std::optional<std::uint32_t> session;
  std::optional<std::uint64_t> round;
  TimeNs t_min = 0;
  TimeNs t_max = UINT64_MAX;

  bool matches(const JournalEvent& ev) const noexcept {
    return (!kind || ev.kind == *kind) && (!actor || ev.actor == *actor) &&
           (!session || ev.session == *session) && (!round || ev.round == *round) &&
           ev.time >= t_min && ev.time <= t_max;
  }
};

class EventJournal {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  /// The ring is fully preallocated here; append() never grows it.
  explicit EventJournal(std::size_t capacity = kDefaultCapacity);

  /// Reallocate the ring (contents are cleared; counters reset).
  void set_capacity(std::size_t capacity);
  std::size_t capacity() const noexcept { return ring_.size(); }

  /// Intern an actor name (device id, link label); ids are assigned in
  /// first-intern order starting at 1, so a deterministic wiring order
  /// yields deterministic ids.  Re-interning an existing name is a pure
  /// lookup.  Id 0 is reserved and renders as "?".
  std::uint32_t intern(std::string_view name);
  const std::string& actor_name(std::uint32_t id) const;

  /// O(1), allocation-free.  A full ring overwrites the oldest event.
  void append(const JournalEvent& ev) noexcept;
  void append(TimeNs time, std::uint32_t actor, std::uint32_t session,
              std::uint64_t round, JournalEventKind kind, std::uint64_t a = 0,
              std::uint64_t b = 0) noexcept {
    append(JournalEvent{time, actor, session, round, kind, a, b});
  }

  /// Events currently retained (<= capacity), oldest first.
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  const JournalEvent& at(std::size_t i) const noexcept {
    return ring_[(tail_ + i) % ring_.size()];
  }

  /// Lifetime counters: everything ever appended, and how many of those
  /// were overwritten by ring wrap-around.
  std::uint64_t appended() const noexcept { return appended_; }
  std::uint64_t dropped() const noexcept { return dropped_; }

  void clear();

  // -- query ------------------------------------------------------------------
  std::vector<JournalEvent> select(const JournalFilter& filter) const;
  std::size_t count(const JournalFilter& filter) const;
  /// First retained event matching, in time order.
  std::optional<JournalEvent> first(const JournalFilter& filter) const;

  // -- export -----------------------------------------------------------------
  /// One JSON object per line, oldest first, keys in fixed order:
  /// {"t":<ns>,"actor":"<name>","kind":"<kind>","session":S,"round":R,
  ///  "a":A,"b":B}\n — deterministic byte-for-byte for a deterministic
  /// simulation.
  std::string to_ndjson() const;
  /// Write to_ndjson() to `path`; false on I/O failure.
  bool write_ndjson(const std::string& path) const;

 private:
  std::vector<JournalEvent> ring_;
  std::size_t tail_ = 0;  ///< index of the oldest retained event
  std::size_t size_ = 0;
  std::uint64_t appended_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<std::string> names_;  ///< index 0 = "?"
  std::unordered_map<std::string, std::uint32_t> ids_;
};

/// Caches one interned actor id so instrumented hot paths pay the intern
/// lookup once per (journal, site) instead of per event.
class ActorId {
 public:
  std::uint32_t get(EventJournal& journal, std::string_view name) {
    if (journal_ != &journal) {
      id_ = journal.intern(name);
      journal_ = &journal;
    }
    return id_;
  }

 private:
  const EventJournal* journal_ = nullptr;
  std::uint32_t id_ = 0;
};

}  // namespace rasc::obs
