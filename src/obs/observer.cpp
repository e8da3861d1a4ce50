#include "src/obs/observer.hpp"

#include <string>
#include <vector>

namespace rasc::obs {
namespace {

/// Which emitted value a histogram or trace arg reads.
enum class From : std::uint8_t { kA, kB, kAttempts, kLatency };
/// How a trace arg renders it.
enum class As : std::uint8_t { kInt, kMillis, kOutcome };

struct ArgSpec {
  std::string_view key;  ///< empty = unused
  From from = From::kA;
  As as = As::kInt;
};

/// The channels that record one kind; an empty name means "not there".
struct KindSpec {
  std::string_view journal;
  std::array<std::string_view, 2> counters{};
  /// Counter i is bumped when bit i of `a` is set.
  std::array<std::string_view, kVerdictBitCount> a_bit_counters{};
  std::string_view b_counter{};  ///< advanced by `b`
  bool outcome_counter = false;  ///< also bump "session.<outcome a>"
  std::string_view histogram{};  ///< records `histogram_from` in ms
  From histogram_from = From::kA;
  std::string_view track{};  ///< a track ending in '/' is suffixed with the actor
  std::string_view instant{};
  std::array<ArgSpec, 2> args{};
};

// One row per JournalEventKind, in enum order.
constexpr KindSpec kSpecs[] = {
    {.journal = "link.send", .counters = {"net.sent"}},
    {.journal = "link.deliver", .counters = {"net.delivered"}},
    {.journal = "link.drop", .counters = {"net.dropped"}, .track = "net",
     .instant = "net.drop", .args = {{{"bytes", From::kB}}}},
    {.journal = "link.partition_drop", .counters = {"net.dropped", "net.partition_dropped"},
     .track = "net", .instant = "net.partition_drop", .args = {{{"bytes", From::kB}}}},
    {.journal = "link.duplicate", .counters = {"net.duplicated"}, .track = "net",
     .instant = "net.duplicate"},
    {.journal = "link.corrupt", .counters = {"net.corrupted"}, .track = "net",
     .instant = "net.corrupt", .args = {{{"offset", From::kB}}}},
    {.journal = "link.reorder", .counters = {"net.reordered"}, .track = "net",
     .instant = "net.reorder"},
    {.journal = "session.start"},
    {.journal = "session.attempt", .track = "session", .instant = "session.attempt",
     .args = {{{"attempt", From::kA}}}},
    {.journal = "session.attempt_timeout", .counters = {"session.attempt_timeouts"},
     .track = "session", .instant = "session.attempt_timeout"},
    {.journal = "session.backoff", .counters = {"session.retries"}, .track = "session",
     .instant = "session.retry_scheduled", .args = {{{"backoff_ms", From::kB, As::kMillis}}}},
    {.journal = "session.replay_rejected", .counters = {"session.replays_rejected"}},
    {.journal = "session.corrupt_report", .counters = {"session.corrupt_reports"}},
    {.journal = "session.late_report", .counters = {"session.late_reports"}},
    {.journal = "session.resolved", .counters = {"session.rounds"}, .outcome_counter = true,
     .histogram = "session.round_latency_ms", .histogram_from = From::kLatency,
     .track = "session", .instant = "session.resolved",
     .args = {{{"outcome", From::kA, As::kOutcome}, {"attempts", From::kAttempts}}}},
    {.journal = "cache.hit"},
    {.journal = "cache.miss"},
    {.journal = "cache.invalidate"},
    {.journal = "app.deadline_hit", .counters = {"fire_alarm.samples"},
     .histogram = "fire_alarm.sample_delay_ms"},
    {.journal = "app.deadline_miss",
     .counters = {"fire_alarm.samples", "fire_alarm.deadline_miss"},
     .histogram = "fire_alarm.sample_delay_ms", .track = "app/",
     .instant = "fire_alarm.deadline_miss", .args = {{{"delay_ms", From::kA, As::kMillis}}}},
    {.journal = "app.alarm_raised", .track = "app/", .instant = "fire_alarm.alarm_raised",
     .args = {{{"latency_ms", From::kA, As::kMillis}}}},
    {.journal = "mtree.rehash"},
    {.journal = "mtree.proof"},
    {.journal = "fleet.hibernate"},
    {.journal = "fleet.wake"},
    {.journal = "verifier.verdict", .counters = {"verifier.verify_total"},
     .a_bit_counters = {"verifier.verify_fail", "verifier.fail_mac", "verifier.fail_digest",
                        "verifier.fail_challenge", "verifier.fail_counter",
                        "verifier.fail_tree_binding", "verifier.fail_proof"},
     .b_counter = "verifier.localized_ranges"},
    {.journal = "smarm.round", .counters = {"smarm.rounds"},
     .a_bit_counters = {"smarm.detections"}, .histogram = "smarm.round_duration_ms",
     .histogram_from = From::kB},
};
static_assert(std::size(kSpecs) == kJournalEventKindCount, "one row per kind");

double millis(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

TraceArg trace_arg(const ArgSpec& spec, std::uint64_t value) {
  switch (spec.as) {
    case As::kInt: return arg(std::string(spec.key), value);
    case As::kMillis: return arg(std::string(spec.key), millis(value));
    case As::kOutcome: break;
  }
  return arg(std::string(spec.key),
             std::string(round_outcome_name(static_cast<RoundOutcome>(value))));
}

std::uint32_t intern(EventJournal& journal, ActorRef ref) {
  if (ref.name.empty()) return 0;
  return ref.id != nullptr ? ref.id->get(journal, ref.name) : journal.intern(ref.name);
}

}  // namespace

std::string_view journal_event_kind_name(JournalEventKind kind) {
  const auto k = static_cast<std::size_t>(kind);
  return k < kJournalEventKindCount ? kSpecs[k].journal : "?";
}

Counter& Observer::counter(std::size_t slot, std::string_view prefix,
                           std::string_view name) {
  Counter*& cached = counters_[slot];
  if (cached == nullptr) cached = &metrics_->counter(std::string(prefix).append(name));
  return *cached;
}

void Observer::emit(TimeNs t, JournalEventKind kind, ActorRef actor, ActorRef session,
                    std::uint64_t round, std::uint64_t a, std::uint64_t b,
                    RoundDetail detail) {
  const auto k = static_cast<std::size_t>(kind);
  const KindSpec& spec = kSpecs[k];
  const std::array<std::uint64_t, 4> values{a, b, detail.attempts, detail.latency};
  const auto value = [&values](From from) { return values[static_cast<std::size_t>(from)]; };
  if (journal_ != nullptr) {
    // The session label is interned before the actor: the id order every
    // recorded journal has.
    const std::uint32_t session_id = intern(*journal_, session);
    journal_->append(t, intern(*journal_, actor), session_id, round, kind, a, b);
  }
  if (metrics_ != nullptr) {
    // A counter bumped by zero is not created, so a registry holds only
    // the counters a run touched.
    const auto bump = [&](std::size_t slot, std::string_view name, std::uint64_t n) {
      if (!name.empty() && n != 0) counter(kCounterSlots * k + slot, {}, name).inc(n);
    };
    for (std::size_t i = 0; i < spec.counters.size(); ++i) bump(i, spec.counters[i], 1);
    for (std::size_t i = 0; i < kVerdictBitCount; ++i) {
      bump(2 + i, spec.a_bit_counters[i], (a >> i) & 1);
    }
    bump(kCounterSlots - 1, spec.b_counter, b);
    if (spec.outcome_counter && a < kRoundOutcomeCount) {
      counter(kCounterSlots * kJournalEventKindCount + a, "session.",
              round_outcome_name(static_cast<RoundOutcome>(a)))
          .inc();
    }
    if (!spec.histogram.empty()) {
      if (histograms_[k] == nullptr) {
        histograms_[k] = &metrics_->histogram(std::string(spec.histogram));
      }
      histograms_[k]->record(millis(value(spec.histogram_from)));
    }
  }
  if (trace_ != nullptr && !spec.instant.empty()) {
    std::vector<TraceArg> args;
    for (const ArgSpec& arg_spec : spec.args) {
      if (!arg_spec.key.empty()) args.push_back(trace_arg(arg_spec, value(arg_spec.from)));
    }
    std::string track(spec.track);
    if (track.back() == '/') track += actor.name;
    trace_->instant(t, std::move(track), std::string(spec.instant), std::move(args));
  }
}

}  // namespace rasc::obs
