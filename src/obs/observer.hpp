#pragma once
/// \file observer.hpp
/// One emission per fact.  An Observer bundles the three recording
/// channels — flight-recorder journal, Chrome-trace sink and metrics
/// registry; each optional, none owned — and every fact that has a
/// JournalEventKind reaches all of them through one emit() call.  Which
/// channels record a kind, and under which names, is one row of the
/// per-kind table in observer.cpp (kSpecs): the journal name, up to two
/// counters (a partition drop bumps "net.dropped" and
/// "net.partition_dropped"), one counter per set bit of `a` (a verdict
/// bumps "verifier.fail_<check>" per failed check), one counter advanced
/// by `b`, at most one histogram in milliseconds, and at
/// most one trace instant with up to two args ("net.drop" carries
/// bytes = b; "fire_alarm.deadline_miss" exists for misses only).
///
/// sim::Simulator holds the observer (Simulator::set_observer) and its
/// emit() forwards here with the current simulated time, so a detached
/// simulation pays one inline null branch per site.  A counter or
/// histogram is resolved on first use and cached, so a registry holds
/// exactly the metrics a run touched.

#include <array>
#include <cstdint>
#include <string_view>

#include "src/obs/health.hpp"
#include "src/obs/journal.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"

namespace rasc::obs {

/// Who a fact is about.  `id` optionally memoizes the interned journal id
/// for a hot site; without it the name is interned per journaled fact.
/// Per-actor trace tracks are named after it ("app/<name>").  An empty
/// name means "none" and journals as id 0.
struct ActorRef {
  std::string_view name;
  ActorId* id = nullptr;
};

/// What session.resolved carries beyond its journal args: the attempt
/// count on its trace instant and the latency its histogram records.
struct RoundDetail {
  std::uint64_t attempts = 0;
  TimeNs latency = 0;
};

class Observer {
 public:
  explicit Observer(TraceSink* trace = nullptr, EventJournal* journal = nullptr,
                    MetricsRegistry* metrics = nullptr) noexcept
      : trace_(trace), journal_(journal), metrics_(metrics) {}

  /// No channel attached: emitting would record nothing.
  bool empty() const noexcept {
    return trace_ == nullptr && journal_ == nullptr && metrics_ == nullptr;
  }
  /// For span-only traces (Simulator::trace_sink).
  TraceSink* trace() const noexcept { return trace_; }

  /// Record one fact at simulated time `t` in every channel its kind's
  /// row names.  (a, b) are documented per kind on JournalEventKind.
  void emit(TimeNs t, JournalEventKind kind, ActorRef actor, ActorRef session,
            std::uint64_t round, std::uint64_t a, std::uint64_t b,
            RoundDetail detail = {});

 private:
  /// The counter `prefix + name`, resolved into `slot` on first use.
  Counter& counter(std::size_t slot, std::string_view prefix, std::string_view name);

  TraceSink* trace_;
  EventJournal* journal_;
  MetricsRegistry* metrics_;
  /// Per kind: two fixed counters, one per bit of `a`, one advanced by
  /// `b`; then one slot per session outcome.
  static constexpr std::size_t kCounterSlots = 2 + kVerdictBitCount + 1;
  std::array<Counter*, kCounterSlots * kJournalEventKindCount + kRoundOutcomeCount>
      counters_{};
  std::array<Histogram*, kJournalEventKindCount> histograms_{};
};

}  // namespace rasc::obs
