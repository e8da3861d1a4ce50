#include <gtest/gtest.h>

#include <algorithm>

#include "src/apps/scenario.hpp"

namespace rasc::apps {
namespace {

/// End-to-end observability check on the Section 2.5 scenario: run the
/// atomic fire-alarm experiment with a trace sink and metrics registry
/// attached, then cross-validate the three independent accounts of the
/// same run — scenario outcome, metrics counters and the event trace.
TEST(FireAlarmObservability, TraceMetricsAndOutcomeAgree) {
  obs::TraceSink trace;
  obs::MetricsRegistry metrics;
  obs::Observer observer(&trace, nullptr, &metrics);

  FireAlarmScenarioConfig config;
  config.modeled_memory_bytes = 1ull << 30;  // ~7.5 s atomic measurement
  config.mode = attest::ExecutionMode::kAtomic;
  config.observer = &observer;

  const auto outcome = run_fire_alarm_scenario(config);

  // The atomic measurement stalls the sensor long enough to miss deadlines.
  EXPECT_GT(outcome.deadline_misses, 0u);

  // Metrics agree with the scenario outcome.
  ASSERT_NE(metrics.find_counter("fire_alarm.deadline_miss"), nullptr);
  EXPECT_EQ(metrics.find_counter("fire_alarm.deadline_miss")->value(),
            outcome.deadline_misses);
  const auto* delays = metrics.find_histogram("fire_alarm.sample_delay_ms");
  ASSERT_NE(delays, nullptr);
  EXPECT_EQ(delays->count(), metrics.find_counter("fire_alarm.samples")->value());
  EXPECT_NEAR(delays->max(), sim::to_millis(outcome.max_sample_delay), 1e-6);

  // The trace records one instant per missed deadline.
  EXPECT_EQ(trace.count_named("fire_alarm.deadline_miss"), outcome.deadline_misses);
  EXPECT_EQ(trace.count_named("fire_alarm.alarm_raised"), 1u);

  // Nested attestation spans: attest.measure sits inside attest.session.
  const auto session = trace.first_span_named("attest.session");
  const auto measure = trace.first_span_named("attest.measure");
  ASSERT_TRUE(session.has_value());
  ASSERT_TRUE(measure.has_value());
  EXPECT_EQ(session->track, "attest/prv-fire");
  EXPECT_EQ(session->depth, 0);
  EXPECT_EQ(measure->depth, 1);
  EXPECT_GE(measure->start, session->start);
  EXPECT_LE(measure->end, session->end);
  EXPECT_EQ(measure->duration(),
            static_cast<obs::TimeNs>(outcome.measurement_duration));

  // Every executed sensor sample shows up as a CPU segment span; replay
  // the arrival schedule (FIFO, one sample per period) against the span
  // completion times to recompute the expected miss count independently.
  std::vector<obs::TraceSpan> samples;
  for (auto& span : trace.spans_named("app/fire-alarm")) {
    if (span.track == "cpu/prv-fire") samples.push_back(std::move(span));
  }
  ASSERT_EQ(samples.size(), metrics.find_counter("fire_alarm.samples")->value());
  ASSERT_TRUE(std::is_sorted(samples.begin(), samples.end(),
                             [](const obs::TraceSpan& a, const obs::TraceSpan& b) {
                               return a.start < b.start;
                             }));
  const auto period = static_cast<obs::TimeNs>(config.sensor_period);
  const auto deadline = static_cast<obs::TimeNs>(config.sample_deadline);
  std::size_t expected_misses = 0;
  for (std::size_t k = 0; k < samples.size(); ++k) {
    const obs::TimeNs scheduled_at = (k + 1) * period;
    ASSERT_GE(samples[k].end, scheduled_at);
    if (samples[k].end - scheduled_at > deadline) ++expected_misses;
  }
  EXPECT_EQ(expected_misses, outcome.deadline_misses);
}

TEST(FireAlarmObservability, InterruptibleModeMissesNothing) {
  obs::MetricsRegistry metrics;
  obs::Observer observer(nullptr, nullptr, &metrics);
  FireAlarmScenarioConfig config;
  config.mode = attest::ExecutionMode::kInterruptible;
  config.observer = &observer;

  const auto outcome = run_fire_alarm_scenario(config);
  EXPECT_EQ(outcome.deadline_misses, 0u);
  EXPECT_EQ(metrics.find_counter("fire_alarm.deadline_miss"), nullptr);
  EXPECT_GT(metrics.find_histogram("fire_alarm.sample_delay_ms")->count(), 0u);
}

}  // namespace
}  // namespace rasc::apps
