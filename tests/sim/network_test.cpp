#include "src/sim/network.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <memory>

#include "src/obs/trace.hpp"

namespace rasc::sim {
namespace {

TEST(Link, DeliversAfterLatency) {
  Simulator sim;
  LinkConfig config;
  config.base_latency = 5 * kMillisecond;
  config.jitter = 0;
  config.bytes_per_second = 0;  // disable serialization delay
  Link link(sim, config);
  Time delivered_at = 0;
  link.send(support::to_bytes("ping"), [&](support::Bytes payload) {
    delivered_at = sim.now();
    EXPECT_EQ(support::to_string(payload), "ping");
  });
  sim.run();
  EXPECT_EQ(delivered_at, 5 * kMillisecond);
  EXPECT_EQ(link.sent(), 1u);
  EXPECT_EQ(link.delivered(), 1u);
}

TEST(Link, SerializationDelayScalesWithSize) {
  Simulator sim;
  LinkConfig config;
  config.base_latency = 0;
  config.jitter = 0;
  config.bytes_per_second = 1e6;  // 1 MB/s
  Link link(sim, config);
  Time t_small = 0, t_large = 0;
  link.send(support::Bytes(1000, 0), [&](support::Bytes) { t_small = sim.now(); });
  sim.run();
  Simulator sim2;
  Link link2(sim2, config);
  link2.send(support::Bytes(100000, 0), [&](support::Bytes) { t_large = sim2.now(); });
  sim2.run();
  EXPECT_NEAR(static_cast<double>(t_large) / static_cast<double>(t_small), 100.0, 2.0);
}

TEST(Link, JitterStaysWithinBound) {
  Simulator sim;
  LinkConfig config;
  config.base_latency = kMillisecond;
  config.jitter = kMillisecond;
  config.bytes_per_second = 0;
  Link link(sim, config);
  for (int i = 0; i < 100; ++i) {
    const Time sent_at = sim.now();
    link.send({}, [&, sent_at](support::Bytes) {
      const Duration transit = sim.now() - sent_at;
      EXPECT_GE(transit, kMillisecond);
      EXPECT_LE(transit, 2 * kMillisecond);
    });
    sim.run();
  }
}

TEST(Link, DropsApproximatelyAtConfiguredRate) {
  Simulator sim;
  LinkConfig config;
  config.drop_probability = 0.3;
  config.seed = 7;
  Link link(sim, config);
  int delivered = 0;
  constexpr int kSends = 5000;
  for (int i = 0; i < kSends; ++i) link.send({}, [&](support::Bytes) { ++delivered; });
  sim.run();
  EXPECT_EQ(link.sent(), static_cast<std::size_t>(kSends));
  EXPECT_EQ(link.delivered() + link.dropped(), static_cast<std::size_t>(kSends));
  EXPECT_NEAR(static_cast<double>(link.dropped()) / kSends, 0.3, 0.03);
}

TEST(Link, ZeroDropDeliversEverything) {
  Simulator sim;
  Link link(sim, {});
  int delivered = 0;
  for (int i = 0; i < 50; ++i) link.send({}, [&](support::Bytes) { ++delivered; });
  sim.run();
  EXPECT_EQ(delivered, 50);
  EXPECT_EQ(link.dropped(), 0u);
}

TEST(Link, MessagesMayReorderOnlyWithJitter) {
  // With zero jitter and equal sizes, FIFO order is preserved.
  Simulator sim;
  LinkConfig config;
  config.jitter = 0;
  Link link(sim, config);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    link.send({}, [&, i](support::Bytes) { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Link, DestroyedLinkCancelsInFlightDeliveries) {
  // Regression: the delivery event used to capture a raw `this`; a Link
  // destroyed with messages in flight made the event dereference freed
  // memory.  With the lifetime token the delivery is silently cancelled.
  Simulator sim;
  auto link = std::make_unique<Link>(sim, LinkConfig{});
  bool fired = false;
  link->send(support::to_bytes("orphan"), [&](support::Bytes) { fired = true; });
  link.reset();  // destroy with the delivery still queued
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Link, SerializationRoundsToNearestInsteadOfTruncating) {
  // 3 bytes at 2 GB/s is 1.5 ns on the wire; truncation used to make it
  // 1 ns, biasing every transit low.  Round-half-away gives 2 ns.
  Simulator sim;
  LinkConfig config;
  config.base_latency = 0;
  config.jitter = 0;
  config.bytes_per_second = 2e9;
  Link link(sim, config);
  Time delivered_at = 0;
  link.send(support::Bytes(3, 0), [&](support::Bytes) { delivered_at = sim.now(); });
  sim.run();
  EXPECT_EQ(delivered_at, 2u);
}

TEST(Link, NonzeroPayloadNeverSerializesForFree) {
  // 1 byte at 1 TB/s would round to 0 ns; the floor keeps distinct sends
  // from aliasing onto a free wire.
  Simulator sim;
  LinkConfig config;
  config.base_latency = 0;
  config.jitter = 0;
  config.bytes_per_second = 1e12;
  Link link(sim, config);
  Time delivered_at = 0;
  link.send(support::Bytes(1, 0), [&](support::Bytes) { delivered_at = sim.now(); });
  sim.run();
  EXPECT_EQ(delivered_at, 1u);
}

TEST(Link, MaximalJitterBoundDoesNotOverflow) {
  // jitter == Duration max: the draw bound jitter+1 used to wrap to
  // below(0), a division by zero.  The clamp keeps the draw legal.
  Simulator sim;
  LinkConfig config;
  config.base_latency = 0;
  config.jitter = std::numeric_limits<Duration>::max();
  config.bytes_per_second = 0;
  Link link(sim, config);
  bool fired = false;
  link.send({}, [&](support::Bytes) { fired = true; });
  sim.run();
  EXPECT_TRUE(fired);
}

TEST(Link, DuplicationDeliversTwice) {
  Simulator sim;
  LinkConfig config;
  config.jitter = 0;
  config.duplicate_probability = 1.0;
  Link link(sim, config);
  int deliveries = 0;
  link.send(support::to_bytes("twin"), [&](support::Bytes payload) {
    ++deliveries;
    EXPECT_EQ(support::to_string(payload), "twin");
  });
  sim.run();
  EXPECT_EQ(deliveries, 2);
  EXPECT_EQ(link.sent(), 1u);
  EXPECT_EQ(link.duplicated(), 1u);
  EXPECT_EQ(link.delivered(), 2u);
}

TEST(Link, CorruptionFlipsExactlyOneByte) {
  Simulator sim;
  LinkConfig config;
  config.corrupt_probability = 1.0;
  Link link(sim, config);
  const support::Bytes original = support::to_bytes("payload-under-test");
  link.send(original, [&](support::Bytes payload) {
    ASSERT_EQ(payload.size(), original.size());
    std::size_t differing = 0;
    for (std::size_t i = 0; i < payload.size(); ++i) {
      if (payload[i] != original[i]) ++differing;
    }
    EXPECT_EQ(differing, 1u);
  });
  sim.run();
  EXPECT_EQ(link.corrupted(), 1u);
}

TEST(Link, ReorderedMessageIsOvertakenByLaterSend) {
  Simulator sim;
  LinkConfig config;
  config.base_latency = kMillisecond;
  config.jitter = 0;
  config.bytes_per_second = 0;
  config.reorder_probability = 1.0;
  config.reorder_delay = 10 * kMillisecond;
  Link held(sim, config);
  config.reorder_probability = 0.0;
  Link prompt(sim, config);
  std::vector<int> order;
  held.send({}, [&](support::Bytes) { order.push_back(1); });
  prompt.send({}, [&](support::Bytes) { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
  EXPECT_EQ(held.reordered(), 1u);
}

TEST(Link, PartitionWindowDropsSendsInsideIt) {
  Simulator sim;
  LinkConfig config;
  config.jitter = 0;
  config.partitions.push_back({10 * kMillisecond, 20 * kMillisecond});
  Link link(sim, config);
  int delivered = 0;
  const auto send_at = [&](Time t) {
    sim.schedule_at(t, [&] { link.send({}, [&](support::Bytes) { ++delivered; }); });
  };
  send_at(5 * kMillisecond);   // before the window
  send_at(15 * kMillisecond);  // inside: dropped
  send_at(20 * kMillisecond);  // window end is exclusive: delivered
  send_at(25 * kMillisecond);  // after
  sim.run();
  EXPECT_EQ(delivered, 3);
  EXPECT_EQ(link.dropped(), 1u);
  EXPECT_EQ(link.partition_dropped(), 1u);
}

struct FaultRunArtifacts {
  std::size_t sent, delivered, dropped, duplicated, corrupted, reordered;
  std::string metrics_json;
  std::string trace_json;
};

FaultRunArtifacts run_faulty_link_once() {
  Simulator sim;
  obs::TraceSink trace;
  obs::MetricsRegistry metrics;
  obs::Observer observer(&trace, nullptr, &metrics);
  sim.set_observer(&observer);
  LinkConfig config;
  config.drop_probability = 0.2;
  config.duplicate_probability = 0.2;
  config.corrupt_probability = 0.2;
  config.reorder_probability = 0.2;
  config.partitions.push_back({50 * kMillisecond, 80 * kMillisecond});
  config.seed = 99;
  Link link(sim, config);
  for (int i = 0; i < 500; ++i) {
    sim.schedule_at(static_cast<Time>(i) * 300 * kMicrosecond, [&] {
      link.send(support::Bytes(64, 0xab), [](support::Bytes) {});
    });
  }
  sim.run();
  return {link.sent(),      link.delivered(), link.dropped(),
          link.duplicated(), link.corrupted(), link.reordered(),
          metrics.to_json(), trace.to_chrome_json()};
}

TEST(Link, CountersBalanceUnderAllFaults) {
  const FaultRunArtifacts run = run_faulty_link_once();
  EXPECT_EQ(run.sent, 500u);
  // The books must balance exactly: every send is delivered or dropped,
  // and duplication adds deliveries on top.
  EXPECT_EQ(run.delivered, run.sent - run.dropped + run.duplicated);
  EXPECT_GT(run.dropped, 0u);
  EXPECT_GT(run.duplicated, 0u);
  EXPECT_GT(run.corrupted, 0u);
  EXPECT_GT(run.reordered, 0u);
}

TEST(Link, ResetCountersGivesPerTrialBalancedBooks) {
  // A harness reusing one link across trials (the fleet fixtures, the
  // campaign runner) zeroes the counters between trials; after each trial
  // the delivered == sent - dropped + duplicated invariant must hold for
  // that trial alone, not just cumulatively.
  Simulator sim;
  LinkConfig config;
  config.drop_probability = 0.3;
  config.duplicate_probability = 0.2;
  config.jitter = 0;
  config.seed = 7;
  Link link(sim, config);
  std::size_t cumulative_delivered = 0;
  for (int trial = 0; trial < 4; ++trial) {
    link.reset_counters();
    EXPECT_EQ(link.sent(), 0u);
    EXPECT_EQ(link.delivered(), 0u);
    EXPECT_EQ(link.dropped(), 0u);
    EXPECT_EQ(link.duplicated(), 0u);
    for (int i = 0; i < 200; ++i) {
      link.send(support::Bytes(32, 0xcd), [](support::Bytes) {});
    }
    sim.run();
    EXPECT_EQ(link.sent(), 200u) << "trial " << trial;
    EXPECT_EQ(link.delivered(), link.sent() - link.dropped() + link.duplicated())
        << "trial " << trial;
    cumulative_delivered += link.delivered();
  }
  // The counters really were per-trial, not cumulative.
  EXPECT_GT(cumulative_delivered, link.delivered());
}

TEST(Link, FaultInjectionIsDeterministicIncludingObservability) {
  // Two identical runs must agree bit-for-bit — counters, the exported
  // metrics JSON, and the full Chrome trace.
  const FaultRunArtifacts a = run_faulty_link_once();
  const FaultRunArtifacts b = run_faulty_link_once();
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.duplicated, b.duplicated);
  EXPECT_EQ(a.corrupted, b.corrupted);
  EXPECT_EQ(a.reordered, b.reordered);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.trace_json, b.trace_json);
}

}  // namespace
}  // namespace rasc::sim
