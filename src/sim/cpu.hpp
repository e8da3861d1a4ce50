#pragma once
/// \file cpu.hpp
/// Single-core CPU with priority dispatch at *segment* granularity.
///
/// Every piece of work executes as a sequence of non-preemptible segments.
/// This captures the paper's execution modalities exactly:
///   - SMART-style atomic attestation  = the whole measurement is ONE
///     segment (interrupts disabled), so a critical task arriving mid-way
///     waits for the full measurement;
///   - TrustLite/SMARM-style interruptible attestation = one segment per
///     memory block, so the wait is bounded by a block measurement;
///   - the application's sensor poll = one short segment.
/// When a segment ends, the highest-priority ready process is dispatched
/// (larger number = more important), so a higher-priority arrival
/// effectively preempts at the next segment boundary.

#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/sim/simulator.hpp"
#include "src/sim/time.hpp"

namespace rasc::sim {

/// One non-preemptible unit of CPU work.
struct Segment {
  Duration duration = 0;
  /// Invoked when the segment finishes (simulated time has advanced).
  std::function<void()> on_complete;
};

/// A schedulable entity.  The CPU calls next_segment() whenever it grants
/// the process the core; returning std::nullopt parks the process (it must
/// be made ready again to run).  Processes are owned by the scenario and
/// must outlive the Cpu.
class Process {
 public:
  Process(std::string name, int priority) : name_(std::move(name)), priority_(priority) {}
  virtual ~Process() = default;

  virtual std::optional<Segment> next_segment() = 0;

  const std::string& name() const noexcept { return name_; }
  int priority() const noexcept { return priority_; }
  void set_priority(int p) noexcept { priority_ = p; }

 private:
  std::string name_;
  int priority_;
};

class Cpu {
 public:
  explicit Cpu(Simulator& sim) : sim_(sim) {}

  /// Add a process to the ready set (no-op if already ready) and dispatch
  /// as soon as the core is free.
  void make_ready(Process& p);

  /// Remove from the ready set without running (e.g. task cancelled).  A
  /// currently-running segment still completes.
  void remove(Process& p);

  bool busy() const noexcept { return running_ != nullptr; }
  Process* running() const noexcept { return running_; }
  /// End time of the current segment (valid when busy()).
  Time busy_until() const noexcept { return busy_until_; }

  /// Total CPU time consumed per process name.  At most
  /// kMaxConsumedEntries distinct names are tracked; beyond that, time is
  /// aggregated under "(other)" so dynamically-named processes cannot grow
  /// the map without bound in long-running scenarios.
  Duration consumed(const std::string& name) const;

  /// Track label used for segment spans on an attached obs::TraceSink
  /// (default "cpu"; a Device sets "cpu/<device-id>" so multi-device
  /// simulations keep one row per core).
  void set_trace_track(std::string track) { trace_track_ = std::move(track); }
  const std::string& trace_track() const noexcept { return trace_track_; }

  static constexpr std::size_t kMaxConsumedEntries = 4096;

 private:
  void schedule_dispatch();
  void dispatch();
  void record_segment(Time start, const Process& p, Duration duration);

  Simulator& sim_;
  std::vector<Process*> ready_;
  Process* running_ = nullptr;
  Time busy_until_ = 0;
  bool dispatch_pending_ = false;
  std::unordered_map<std::string, Duration> consumed_;
  /// Processes waiting for the core while it is busy: arrival time of the
  /// make_ready that found the CPU occupied, for preemption-wait spans.
  std::unordered_map<const Process*, Time> ready_since_;
  std::string trace_track_ = "cpu";
};

}  // namespace rasc::sim
