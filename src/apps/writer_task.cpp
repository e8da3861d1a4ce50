#include "src/apps/writer_task.hpp"

namespace rasc::apps {

WriterTask::WriterTask(sim::Device& device, WriterConfig config)
    : sim::Process("app/writer", config.priority),
      device_(device),
      config_(config),
      rng_(config.seed),
      data_(config.write_size) {}

void WriterTask::arm(sim::Time until) {
  auto& sim = device_.sim();
  const sim::Time first = sim.now() + config_.period;  // ticks in [first, until]
  const std::uint64_t ticks = until < first ? 0 : (until - first) / config_.period + 1;
  series_ = sim.schedule_every(first, config_.period, ticks, [this] {
    ++pending_;
    device_.cpu().make_ready(*this);
  });
}

std::optional<sim::Segment> WriterTask::next_segment() {
  if (pending_ == 0) return std::nullopt;
  --pending_;
  return sim::Segment{config_.write_cost, [this] { do_write(); }};
}

void WriterTask::do_write() {
  auto& mem = device_.memory();
  const std::size_t region_blocks =
      config_.block_count == 0 ? mem.block_count() - config_.first_block
                               : config_.block_count;
  const std::size_t block = config_.first_block + rng_.below(region_blocks);
  for (auto& b : data_) b = static_cast<std::uint8_t>(rng_.below(256));
  const std::size_t max_off = mem.block_size() - config_.write_size;
  const std::size_t addr = block * mem.block_size() + rng_.below(max_off + 1);
  ++attempts_;
  if (!mem.write(addr, data_, device_.sim().now(), sim::Actor::kApplication)) {
    ++blocked_;
  }
}

}  // namespace rasc::apps
