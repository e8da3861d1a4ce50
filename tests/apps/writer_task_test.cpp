#include "src/apps/writer_task.hpp"

#include <gtest/gtest.h>

#include "tests/support/fleet_fixtures.hpp"

namespace rasc::apps {
namespace {

TEST(WriterTask, PeriodicSeriesIsOneQueueEntry) {
  testfx::DeviceHarness fx;
  WriterConfig config;
  config.period = 50 * sim::kMicrosecond;
  WriterTask writer(fx.device, config);
  writer.arm(sim::kSecond);
  // 20 000 ticks in (0, 1 s], queued as one self-re-arming entry.
  EXPECT_LE(fx.simulator.pending_events(), 2u);
  fx.simulator.run();
  EXPECT_EQ(writer.attempts(), 20000u);
  EXPECT_EQ(fx.simulator.now(), sim::kSecond + config.write_cost);
}

TEST(WriterTask, DisarmStopsTheSeries) {
  testfx::DeviceHarness fx;
  WriterConfig config;
  config.period = 50 * sim::kMicrosecond;
  WriterTask writer(fx.device, config);
  writer.arm(sim::kSecond);
  EXPECT_TRUE(writer.armed());
  // Ticks at 50 us, 100 us, ..., 1 ms; the last write lands write_cost later.
  fx.simulator.run_until(sim::kMillisecond + config.write_cost);
  const std::size_t attempts = writer.attempts();
  EXPECT_EQ(attempts, 20u);
  writer.disarm();
  EXPECT_FALSE(writer.armed());
  fx.simulator.run();
  EXPECT_EQ(writer.attempts(), attempts);
  EXPECT_TRUE(fx.simulator.empty());
}

}  // namespace
}  // namespace rasc::apps
