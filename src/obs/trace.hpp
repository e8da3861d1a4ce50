#pragma once
/// \file trace.hpp
/// Structured tracing keyed to simulated time.  A TraceSink collects
/// begin/end spans, instants, counter samples and pre-paired complete
/// spans; every event carries a *track* (one per device component:
/// "cpu/prv-0", "attest/prv-0", "net", ...) that becomes a thread row in
/// the Chrome trace_event export, so a capture of a scenario renders as
/// the paper's Figure 1 / Figure 4 timelines in chrome://tracing or
/// Perfetto.
///
/// The sink is deliberately clock-agnostic (timestamps are plain ns
/// values supplied by the caller) so the library sits below `src/sim`;
/// the simulator owns the wiring through its obs::Observer
/// (`Simulator::set_observer`).

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace rasc::obs {

using TimeNs = std::uint64_t;  ///< nanoseconds of simulated time

enum class TraceEventKind : std::uint8_t {
  kBegin,       ///< opens a span on its track
  kEnd,         ///< closes the innermost open span on its track
  kInstant,     ///< point event
  kCounter,     ///< sampled numeric series
  kComplete,    ///< pre-paired span (start + duration known at emission)
  kFlowStart,   ///< start of a flow arrow (Chrome "s" phase)
  kFlowFinish,  ///< end of a flow arrow (Chrome "f" phase, bp:"e")
};

/// One key/value annotation; `numeric` values export unquoted.
struct TraceArg {
  std::string key;
  std::string value;
  bool numeric = false;
};

TraceArg arg(std::string key, std::string value);
TraceArg arg(std::string key, double value);
TraceArg arg(std::string key, std::uint64_t value);

struct TraceEvent {
  TimeNs time = 0;
  TimeNs duration = 0;  ///< kComplete only
  TraceEventKind kind = TraceEventKind::kInstant;
  std::string track;
  std::string name;  ///< empty on kEnd (pairs with the open begin)
  double value = 0;  ///< kCounter only
  std::uint64_t flow_id = 0;  ///< kFlowStart/kFlowFinish only
  std::vector<TraceArg> args;
};

/// A completed span reconstructed by the query API.  `depth` is the
/// nesting level on its track (0 = outermost).
struct TraceSpan {
  TimeNs start = 0;
  TimeNs end = 0;
  std::string track;
  std::string name;
  int depth = 0;
  std::vector<TraceArg> args;

  TimeNs duration() const noexcept { return end - start; }
};

class TraceSink {
 public:
  /// Bound the in-memory event log; 0 (default) = unbounded.  When full,
  /// the OLDEST events are evicted first; `dropped()` counts evictions.
  /// A span whose begin was evicted is not reconstructed by spans().
  void set_capacity(std::size_t cap);
  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t dropped() const noexcept { return dropped_; }

  // -- recording --------------------------------------------------------------
  void begin(TimeNs t, std::string track, std::string name,
             std::vector<TraceArg> args = {});
  /// Closes the innermost open span on `track`; extra `args` are merged
  /// into the span's annotations.
  void end(TimeNs t, std::string track, std::vector<TraceArg> args = {});
  void instant(TimeNs t, std::string track, std::string name,
               std::vector<TraceArg> args = {});
  void counter(TimeNs t, std::string track, std::string name, double value);
  void complete(TimeNs start, TimeNs duration, std::string track, std::string name,
                std::vector<TraceArg> args = {});
  /// Flow arrow across tracks: a start on one track links to the finish
  /// with the same (name, id) on another — Perfetto draws the arrow
  /// between the spans enclosing the two events, which is how a challenge
  /// span on the verifier row points at its report span on the prover row.
  void flow_start(TimeNs t, std::string track, std::string name, std::uint64_t id);
  void flow_finish(TimeNs t, std::string track, std::string name, std::uint64_t id);

  // -- query ------------------------------------------------------------------
  const std::deque<TraceEvent>& events() const noexcept { return events_; }
  std::size_t size() const noexcept { return events_.size(); }
  bool empty() const noexcept { return events_.empty(); }
  void clear();

  /// Events (any kind) with the given name.
  std::size_t count_named(std::string_view name) const;

  /// Completed spans in start order (outermost first at equal starts),
  /// reconstructed by replaying begin/end pairs per track plus all
  /// complete events.  Unmatched begins/ends are ignored.
  std::vector<TraceSpan> spans() const;
  std::vector<TraceSpan> spans_named(std::string_view name) const;
  std::optional<TraceSpan> first_span_named(std::string_view name) const;

  /// Latest sample of a counter series, if any.
  std::optional<double> last_counter(std::string_view name) const;

  // -- export -----------------------------------------------------------------
  /// Chrome trace_event JSON (object format with "traceEvents"), loadable
  /// in chrome://tracing and Perfetto.  Tracks map to tids in first-seen
  /// order with thread_name metadata; timestamps are microseconds with
  /// nanosecond fractions.
  std::string to_chrome_json() const;
  /// Write to_chrome_json() to `path`; returns false on I/O failure.
  bool write_chrome_json(const std::string& path) const;

 private:
  void push(TraceEvent ev);

  std::deque<TraceEvent> events_;
  std::size_t capacity_ = 0;
  std::size_t dropped_ = 0;
};

}  // namespace rasc::obs
