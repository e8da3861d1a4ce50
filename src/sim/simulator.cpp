#include "src/sim/simulator.hpp"

#include <cstdio>

namespace rasc::sim {

std::string format_duration(Duration d) {
  char buf[64];
  if (d >= kSecond) {
    std::snprintf(buf, sizeof(buf), "%.3f s", to_seconds(d));
  } else if (d >= kMillisecond) {
    std::snprintf(buf, sizeof(buf), "%.3f ms", static_cast<double>(d) / kMillisecond);
  } else if (d >= kMicrosecond) {
    std::snprintf(buf, sizeof(buf), "%.3f us", static_cast<double>(d) / kMicrosecond);
  } else {
    std::snprintf(buf, sizeof(buf), "%llu ns", static_cast<unsigned long long>(d));
  }
  return buf;
}

EventHandle Simulator::schedule_at(Time t, Callback fn) {
  const std::uint32_t slot = acquire(std::move(fn));
  push(Entry{t < now_ ? now_ : t, next_seq_++, slot});
  return EventHandle{this, slot, slots_[slot].generation};
}

EventHandle Simulator::schedule_every(Time first, Duration period, std::uint64_t count,
                                      Callback fn) {
  if (count == 0) return {};
  const std::uint32_t index = acquire(std::move(fn));
  Slot& slot = slots_[index];
  slot.next = first + period;
  slot.period = period;
  slot.remaining = count - 1;
  // The series owns sequence numbers [next_seq_, next_seq_ + count): firing
  // k re-arms the entry as (time of firing k + 1, seq + 1), the key the k+1-th
  // schedule_at of an equivalent loop would have pushed.
  push(Entry{first < now_ ? now_ : first, next_seq_, index});
  next_seq_ += count;
  return EventHandle{this, index, slot.generation};
}

std::uint32_t Simulator::acquire(Callback fn) {
  std::uint32_t index = 0;
  if (free_slots_.empty()) {
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    index = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& slot = slots_[index];
  slot.fn = std::move(fn);
  slot.live = true;
  return index;
}

void Simulator::release(std::uint32_t index) {
  Slot& slot = slots_[index];
  slot.fn = nullptr;
  slot.remaining = 0;
  slot.live = false;
  ++slot.generation;
  free_slots_.push_back(index);
}

void Simulator::push(Entry entry) {
  std::size_t hole = heap_.size();
  heap_.push_back(entry);
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 2;
    if (!earlier(entry, heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = entry;
}

void Simulator::pop() noexcept {
  const Entry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(last);
}

void Simulator::sift_down(Entry entry) noexcept {
  const std::size_t size = heap_.size();
  std::size_t hole = 0;
  for (std::size_t child = 1; child < size; child = 2 * hole + 1) {
    if (child + 1 < size && earlier(heap_[child + 1], heap_[child])) ++child;
    if (!earlier(heap_[child], entry)) break;
    heap_[hole] = heap_[child];
    hole = child;
  }
  heap_[hole] = entry;
}

bool Simulator::fire_next() {
  while (!heap_.empty()) {
    const Entry top = heap_.front();
    Slot& slot = slots_[top.slot];
    if (!slot.live) {  // cancelled
      pop();
      release(top.slot);
      continue;
    }
    now_ = top.time;
    ++events_fired_;
    // Moved out, not invoked in place: the callback may schedule events,
    // which can grow slots_.
    Callback fn = std::move(slot.fn);
    const bool repeats = slot.remaining != 0;
    if (repeats) {
      --slot.remaining;
      const Time next = slot.next;
      slot.next += slot.period;
      sift_down(Entry{next < now_ ? now_ : next, top.seq + 1, top.slot});
    } else {
      pop();
      release(top.slot);
    }
    if (observer_ != nullptr && events_fired_ % 4096 == 0) {
      if (auto* sink = observer_->trace()) {
        sink->counter(now_, "sim", "sim.queue_depth", static_cast<double>(heap_.size()));
      }
    }
    fn();
    if (repeats) {
      Slot& series = slots_[top.slot];
      if (series.live) series.fn = std::move(fn);  // else cancelled from inside
    }
    return true;
  }
  return false;
}

std::size_t Simulator::run(std::size_t limit) {
  std::size_t fired = 0;
  while (fired < limit && fire_next()) ++fired;
  return fired;
}

std::size_t Simulator::run_until(Time t_end) {
  std::size_t fired = 0;
  while (!heap_.empty()) {
    // Peek: drop cancelled entries without advancing time.
    const Entry top = heap_.front();
    if (!slots_[top.slot].live) {
      pop();
      release(top.slot);
      continue;
    }
    if (top.time > t_end) break;
    if (fire_next()) ++fired;
  }
  if (now_ < t_end) now_ = t_end;
  return fired;
}

}  // namespace rasc::sim
