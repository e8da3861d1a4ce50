#pragma once
/// \file writer_task.hpp
/// A data-logging application that periodically writes into its own memory
/// region.  Used to measure the "writable memory availability" column of
/// the paper's Table 1: under each locking mechanism, what fraction of
/// application writes issued during a measurement actually succeed?

#include <optional>

#include "src/sim/device.hpp"
#include "src/sim/simulator.hpp"
#include "src/support/bytes.hpp"
#include "src/support/rng.hpp"

namespace rasc::apps {

struct WriterConfig {
  sim::Duration period = 2 * sim::kMillisecond;
  sim::Duration write_cost = 5 * sim::kMicrosecond;
  std::size_t first_block = 0;   ///< region the app writes into
  std::size_t block_count = 0;   ///< 0 = whole memory
  std::size_t write_size = 64;   ///< bytes per write
  int priority = 100;
  std::uint64_t seed = 0xab1e;
};

class WriterTask final : public sim::Process {
 public:
  WriterTask(sim::Device& device, WriterConfig config = {});

  /// Tick every period from now + period up to `until`, as one periodic
  /// series.
  void arm(sim::Time until);
  /// True while ticks of the armed series are still to come.
  bool armed() const noexcept { return series_.pending(); }
  /// Cancel every tick still to come (a write already queued still runs).
  void disarm() noexcept { series_.cancel(); }

  std::size_t attempts() const noexcept { return attempts_; }
  std::size_t blocked() const noexcept { return blocked_; }
  /// Fraction of writes the MPU admitted (1.0 when nothing was locked).
  double availability() const noexcept {
    return attempts_ == 0 ? 1.0
                          : 1.0 - static_cast<double>(blocked_) /
                                      static_cast<double>(attempts_);
  }
  void reset_counters() noexcept {
    attempts_ = 0;
    blocked_ = 0;
  }

  // sim::Process
  std::optional<sim::Segment> next_segment() override;

 private:
  void do_write();

  sim::Device& device_;
  WriterConfig config_;
  support::Xoshiro256 rng_;
  support::Bytes data_;  ///< reused write buffer, write_size bytes
  sim::EventHandle series_;
  std::size_t pending_ = 0;
  std::size_t attempts_ = 0;
  std::size_t blocked_ = 0;
};

}  // namespace rasc::apps
