#pragma once
/// \file simulator.hpp
/// Discrete-event simulator core: a virtual clock plus an ordered event
/// queue.  Everything in the device model (task arrivals, measurement
/// steps, network deliveries, malware moves) is an event.
///
/// The queue is a binary heap of trivially copyable {time, seq, slot}
/// entries; callbacks live in a slot vector with a free list, so firing an
/// event neither copies its callback nor allocates.  A periodic series
/// (schedule_every) is one heap entry that re-arms itself with the next of
/// the sequence numbers it reserved, so it fires in exactly the order a
/// loop of schedule_at calls would.

#include <cstdint>
#include <functional>
#include <vector>

#include "src/obs/observer.hpp"
#include "src/sim/time.hpp"

namespace rasc::sim {

class Simulator;

/// Handle used to cancel a scheduled event or the rest of a periodic
/// series.  Default-constructed handles are inert.  A handle refers to its
/// Simulator, so pending() and cancel() must not be called after the
/// Simulator is destroyed.
class EventHandle {
 public:
  EventHandle() = default;

  /// True if the event (or some firing of the series) has neither fired
  /// nor been cancelled.
  bool pending() const noexcept;

  /// Cancel the event, or every remaining firing of the series, if still
  /// pending (idempotent).
  void cancel() noexcept;

 private:
  friend class Simulator;
  EventHandle(Simulator* sim, std::uint32_t slot, std::uint32_t generation) noexcept
      : sim_(sim), slot_(slot), generation_(generation) {}
  Simulator* sim_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;
};

class Simulator {
 public:
  using Callback = std::function<void()>;

  Simulator() = default;
  // Handles point at their Simulator, so it stays where it was built.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time now() const noexcept { return now_; }

  /// Schedule `fn` at absolute time `t` (>= now; earlier times are clamped
  /// to now).  Events at equal times fire in scheduling order.
  EventHandle schedule_at(Time t, Callback fn);

  /// Schedule `fn` after `delay`.
  EventHandle schedule_in(Duration delay, Callback fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Fire `fn` `count` times, at first, first + period, ...: the same
  /// firings, in the same order against every other event, as
  /// `for (k < count) schedule_at(first + k * period, fn)`.  The series
  /// reserves its `count` sequence numbers now but occupies one queue
  /// entry; the handle cancels every firing still to come.
  EventHandle schedule_every(Time first, Duration period, std::uint64_t count, Callback fn);

  /// Run events until the queue is empty or `limit` events fired.
  /// Returns the number of events processed.
  std::size_t run(std::size_t limit = SIZE_MAX);

  /// Run events with time <= t_end; afterwards now() == max(now, t_end).
  std::size_t run_until(Time t_end);

  bool empty() const noexcept { return heap_.empty(); }
  /// Queue entries, cancelled ones not yet popped included; a periodic
  /// series counts as one.
  std::size_t pending_events() const noexcept { return heap_.size(); }
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
  friend class EventHandle;

  /// Heap entry; (time, seq) is unique, so the firing order is total.
  struct Entry {
    Time time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  /// A scheduled callback.  `generation` changes whenever the slot is
  /// released, so a stale handle never matches the slot's next tenant.
  struct Slot {
    Callback fn;
    Time next = 0;                ///< series: unclamped time of the firing after the queued one
    Duration period = 0;          ///< series only
    std::uint64_t remaining = 0;  ///< series: firings after the queued one
    std::uint32_t generation = 0;
    bool live = false;            ///< neither cancelled nor finished
  };

  static bool earlier(const Entry& a, const Entry& b) noexcept {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  }

  bool fire_next();
  std::uint32_t acquire(Callback fn);
  void release(std::uint32_t slot);
  void push(Entry entry);
  void pop() noexcept;
  void sift_down(Entry entry) noexcept;  ///< place `entry` at the root

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t events_fired_ = 0;
  obs::Observer* observer_ = nullptr;
  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
};

inline bool EventHandle::pending() const noexcept {
  if (sim_ == nullptr) return false;
  const Simulator::Slot& slot = sim_->slots_[slot_];
  return slot.live && slot.generation == generation_;
}

inline void EventHandle::cancel() noexcept {
  if (pending()) sim_->slots_[slot_].live = false;
}

}  // namespace rasc::sim
