#pragma once
/// \file simulator.hpp
/// Discrete-event simulator core: a virtual clock plus an ordered event
/// queue.  Everything in the device model (task arrivals, measurement
/// steps, network deliveries, malware moves) is an event.

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "src/obs/observer.hpp"
#include "src/sim/time.hpp"

namespace rasc::sim {

/// Handle used to cancel a scheduled event.  Default-constructed handles
/// are inert.
class EventHandle {
 public:
  EventHandle() = default;

  /// True if the event has neither fired nor been cancelled.
  bool pending() const noexcept { return alive_ && *alive_; }

  /// Cancel the event if still pending (idempotent).
  void cancel() noexcept {
    if (alive_) *alive_ = false;
  }

 private:
  friend class Simulator;
  explicit EventHandle(std::shared_ptr<bool> alive) : alive_(std::move(alive)) {}
  std::shared_ptr<bool> alive_;
};

class Simulator {
 public:
  using Callback = std::function<void()>;

  Time now() const noexcept { return now_; }

  /// Schedule `fn` at absolute time `t` (>= now; earlier times are clamped
  /// to now).  Events at equal times fire in scheduling order.
  EventHandle schedule_at(Time t, Callback fn);

  /// Schedule `fn` after `delay`.
  EventHandle schedule_in(Duration delay, Callback fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Run events until the queue is empty or `limit` events fired.
  /// Returns the number of events processed.
  std::size_t run(std::size_t limit = SIZE_MAX);

  /// Run events with time <= t_end; afterwards now() == max(now, t_end).
  std::size_t run_until(Time t_end);

  bool empty() const noexcept { return queue_.empty(); }
  std::size_t pending_events() const noexcept { return queue_.size(); }
  std::size_t events_fired() const noexcept { return events_fired_; }

  /// Attach the observer (not owned; nullptr to detach): the single
  /// attachment point for journal, trace sink and metrics.  Components
  /// reach it through their Simulator — facts via emit(), span-only traces
  /// (CPU segments, transits, attestation phases) via trace_sink() — so
  /// one call instruments every device, and the simulation is
  /// bit-identical with or without it.  An observer with no channel
  /// counts as detached.  The dispatcher samples queue depth onto the
  /// "sim" track every few thousand events.
  void set_observer(obs::Observer* observer) noexcept {
    observer_ = observer != nullptr && !observer->empty() ? observer : nullptr;
  }
  obs::Observer* observer() const noexcept { return observer_; }
  obs::TraceSink* trace_sink() const noexcept {
    return observer_ != nullptr ? observer_->trace() : nullptr;
  }

  /// Record one fact at now() through the observer (see observer.hpp);
  /// detached, this is one inline null branch.
  void emit(obs::JournalEventKind kind, obs::ActorRef actor, obs::ActorRef session,
            std::uint64_t round, std::uint64_t a, std::uint64_t b,
            obs::RoundDetail detail = {}) {
    if (observer_ != nullptr) observer_->emit(now_, kind, actor, session, round, a, b, detail);
  }

 private:
  struct Event {
    Time time;
    std::uint64_t seq;
    Callback fn;
    std::shared_ptr<bool> alive;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  bool fire_next();

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t events_fired_ = 0;
  obs::Observer* observer_ = nullptr;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

}  // namespace rasc::sim
