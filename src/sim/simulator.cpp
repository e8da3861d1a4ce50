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
  auto alive = std::make_shared<bool>(true);
  queue_.push(Event{t < now_ ? now_ : t, next_seq_++, std::move(fn), alive});
  return EventHandle{std::move(alive)};
}

bool Simulator::fire_next() {
  while (!queue_.empty()) {
    Event ev = queue_.top();
    queue_.pop();
    if (!*ev.alive) continue;  // cancelled
    *ev.alive = false;
    now_ = ev.time;
    ++events_fired_;
    if (observer_ != nullptr && events_fired_ % 4096 == 0) {
      if (auto* sink = observer_->trace()) {
        sink->counter(now_, "sim", "sim.queue_depth", static_cast<double>(queue_.size()));
      }
    }
    ev.fn();
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
  while (!queue_.empty()) {
    // Peek: skip cancelled entries without advancing time.
    const Event& top = queue_.top();
    if (!*top.alive) {
      queue_.pop();
      continue;
    }
    if (top.time > t_end) break;
    if (fire_next()) ++fired;
  }
  if (now_ < t_end) now_ = t_end;
  return fired;
}

}  // namespace rasc::sim
