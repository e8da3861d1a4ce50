#include "src/sim/network.hpp"

#include <cmath>
#include <limits>

namespace rasc::sim {

void Link::emit(obs::JournalEventKind kind, std::uint64_t msg_id, std::uint64_t b) {
  sim_.emit(kind, {config_.name, &journal_actor_}, {}, 0, msg_id, b);
}

bool Link::in_partition(Time t) const noexcept {
  for (const PartitionWindow& window : config_.partitions) {
    if (t >= window.start && t < window.end) return true;
  }
  return false;
}

Duration Link::transit_time(std::size_t bytes) {
  Duration transit = config_.base_latency;
  if (config_.jitter > 0) {
    // below(jitter + 1) would wrap to the forbidden below(0) at the type
    // maximum; saturate the bound instead (the draw is then in [0, max)).
    const Duration bound = config_.jitter < std::numeric_limits<Duration>::max()
                               ? config_.jitter + 1
                               : config_.jitter;
    transit += rng_.below(bound);
  }
  if (config_.bytes_per_second > 0 && bytes > 0) {
    const double exact = static_cast<double>(bytes) / config_.bytes_per_second *
                         static_cast<double>(kSecond);
    auto serialization = static_cast<Duration>(std::llround(exact));
    // Round to nearest with a 1 ns floor: truncation made small payloads
    // on fast links free and aliased distinct sizes to equal transits.
    if (serialization == 0) serialization = 1;
    transit += serialization;
  }
  return transit;
}

void Link::deliver_after(Duration transit, support::Bytes payload, Handler handler,
                         std::uint64_t msg_id) {
  if (auto* sink = sim_.trace_sink()) {
    sink->complete(sim_.now(), transit, "net", "net.transit",
                   {obs::arg("bytes", static_cast<std::uint64_t>(payload.size()))});
  }
  ++in_flight_;
  sim_.schedule_in(transit, [this, token = std::weak_ptr<bool>(alive_), msg_id,
                             payload = std::move(payload),
                             handler = std::move(handler)]() mutable {
    if (token.expired()) return;  // link destroyed while in flight
    --in_flight_;
    ++counters_.delivered;
    emit(obs::JournalEventKind::kLinkDeliver, msg_id, payload.size());
    handler(std::move(payload));
  });
}

void Link::send(support::Bytes payload, Handler on_delivery) {
  ++counters_.sent;
  const std::uint64_t msg_id = ++next_msg_id_;
  emit(obs::JournalEventKind::kLinkSend, msg_id, payload.size());

  if (in_partition(sim_.now())) {
    ++counters_.dropped;
    ++counters_.partition_dropped;
    emit(obs::JournalEventKind::kLinkPartitionDrop, msg_id, payload.size());
    return;
  }
  if (rng_.chance(config_.drop_probability)) {
    ++counters_.dropped;
    emit(obs::JournalEventKind::kLinkDrop, msg_id, payload.size());
    return;
  }

  if (!payload.empty() && rng_.chance(config_.corrupt_probability)) {
    // Flip at least one bit of one byte; position and flip pattern come
    // from the link RNG so corruption is reproducible from the seed.
    const std::size_t at = rng_.below(payload.size());
    payload[at] ^= static_cast<std::uint8_t>(1 + rng_.below(255));
    ++counters_.corrupted;
    emit(obs::JournalEventKind::kLinkCorrupt, msg_id, at);
  }

  Duration transit = transit_time(payload.size());
  if (rng_.chance(config_.reorder_probability)) {
    transit += config_.reorder_delay;
    ++counters_.reordered;
    emit(obs::JournalEventKind::kLinkReorder, msg_id, config_.reorder_delay);
  }

  const bool duplicate = rng_.chance(config_.duplicate_probability);
  if (duplicate) {
    const Duration copy_transit = transit + transit_time(payload.size());
    ++counters_.duplicated;
    emit(obs::JournalEventKind::kLinkDuplicate, msg_id, copy_transit);
    // The copy rides behind the original with its own second transit.
    deliver_after(copy_transit, payload, on_delivery, msg_id);
  }
  deliver_after(transit, std::move(payload), std::move(on_delivery), msg_id);
}

}  // namespace rasc::sim
