#include "src/exp/campaign.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <thread>

#include "src/exp/report.hpp"

namespace rasc::exp {
namespace {

/// A deterministic trial: Bernoulli on the trial RNG plus scalar values
/// derived from the grid cell, exercising every aggregation channel.
CampaignSpec make_test_spec(std::size_t threads, std::size_t shard_size = 16) {
  CampaignSpec spec;
  spec.name = "exp_selftest";
  spec.grid.axis("p", {0.25, 0.75}).axis("k", {std::int64_t{1}, std::int64_t{3}});
  spec.trials_per_point = 200;
  spec.base_seed = 99;
  spec.threads = threads;
  spec.shard_size = shard_size;
  spec.trial = [](const GridPoint& point, TrialContext& ctx) {
    TrialOutput out;
    out.bernoulli(ctx.rng.uniform() < point.f64("p"));
    out.value("draw", ctx.rng.uniform() * point.f64("k"));
    out.metrics.counter("trials_seen").inc();
    out.metrics.histogram("draw_hist", {0.5, 1.0, 2.0, 4.0})
        .record(ctx.rng.uniform() * point.f64("k"));
    return out;
  };
  return spec;
}

TEST(Campaign, AggregatesBitIdenticalAcrossThreadCounts) {
  const CampaignResult one = run_campaign(make_test_spec(1));
  const CampaignResult four = run_campaign(make_test_spec(4));
  const CampaignResult eight = run_campaign(make_test_spec(8));
  // The JSON artifact excludes execution facts, so it must match byte for
  // byte — including every float aggregate.
  const std::string golden = campaign_json(one);
  EXPECT_EQ(campaign_json(four), golden);
  EXPECT_EQ(campaign_json(eight), golden);
}

TEST(Campaign, CellShapeAndCounts) {
  const CampaignResult result = run_campaign(make_test_spec(4));
  ASSERT_EQ(result.cells.size(), 4u);
  for (const auto& cell : result.cells) {
    EXPECT_EQ(cell.trials, 200u);
    EXPECT_EQ(cell.attempts, 200u);
    EXPECT_EQ(cell.values.at("draw").count(), 200u);
    EXPECT_EQ(cell.metrics.find_counter("trials_seen")->value(), 200u);
    EXPECT_EQ(cell.metrics.find_histogram("draw_hist")->count(), 200u);
    // The empirical rate should be near the cell's Bernoulli parameter,
    // and its Wilson interval should cover it.
    EXPECT_NEAR(cell.success_rate, cell.point.f64("p"), 0.1);
    EXPECT_TRUE(cell.ci.contains(cell.point.f64("p")));
  }
}

TEST(Campaign, ShardSizeDoesNotChangeCounts) {
  // Integer aggregates are shard-size invariant (floats may differ in the
  // last ulp; the determinism contract fixes thread count only).
  const CampaignResult a = run_campaign(make_test_spec(2, 7));
  const CampaignResult b = run_campaign(make_test_spec(3, 64));
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].successes, b.cells[i].successes);
    EXPECT_EQ(a.cells[i].attempts, b.cells[i].attempts);
    EXPECT_EQ(a.cells[i].trials, b.cells[i].trials);
  }
}

TEST(Campaign, HistogramMergeAssociativity) {
  // Folding N histograms pairwise in any grouping yields identical
  // buckets: merge is integer bucket addition.
  const std::vector<double> bounds = {1.0, 2.0, 4.0};
  obs::Histogram left(bounds), right(bounds), sequential(bounds);
  obs::Histogram a(bounds), b(bounds), c(bounds);
  const double samples_a[] = {0.5, 1.5};
  const double samples_b[] = {3.0, 8.0, 1.1};
  const double samples_c[] = {0.1};
  for (double v : samples_a) { a.record(v); sequential.record(v); }
  for (double v : samples_b) { b.record(v); sequential.record(v); }
  for (double v : samples_c) { c.record(v); sequential.record(v); }
  // (a + b) + c
  left.merge(a);
  left.merge(b);
  left.merge(c);
  // a + (b + c)
  b.merge(c);
  right.merge(a);
  right.merge(b);
  EXPECT_EQ(left.bucket_counts(), right.bucket_counts());
  EXPECT_EQ(left.bucket_counts(), sequential.bucket_counts());
  EXPECT_EQ(left.count(), sequential.count());
  EXPECT_DOUBLE_EQ(left.min(), sequential.min());
  EXPECT_DOUBLE_EQ(left.max(), sequential.max());
}

TEST(Campaign, RegistryMergeAccumulates) {
  obs::MetricsRegistry dst, src;
  dst.counter("c").inc(2);
  src.counter("c").inc(3);
  src.counter("only_src").inc(1);
  src.gauge("g").set(7.5);
  dst.histogram("h", {1.0, 2.0}).record(0.5);
  src.histogram("h", {1.0, 2.0}).record(1.5);
  detail::merge_registry(dst, src);
  EXPECT_EQ(dst.find_counter("c")->value(), 5u);
  EXPECT_EQ(dst.find_counter("only_src")->value(), 1u);
  EXPECT_DOUBLE_EQ(dst.find_gauge("g")->value(), 7.5);
  EXPECT_EQ(dst.find_histogram("h")->count(), 2u);
}

TEST(Campaign, TrialSeedsFollowDerivation) {
  CampaignSpec spec;
  spec.name = "seed_probe";
  spec.trials_per_point = 8;
  spec.base_seed = 1234;
  spec.threads = 1;
  std::vector<std::uint64_t> seeds(8, 0);
  spec.trial = [&seeds](const GridPoint&, TrialContext& ctx) {
    seeds[ctx.trial_index] = ctx.seed;
    return TrialOutput{};
  };
  run_campaign(spec);
  for (std::size_t t = 0; t < seeds.size(); ++t) {
    EXPECT_EQ(seeds[t], derive_trial_seed(1234, 0, t)) << "trial " << t;
  }
}

TEST(Campaign, InvalidSpecsThrow) {
  CampaignSpec spec;
  EXPECT_THROW(run_campaign(spec), std::invalid_argument);  // no trial fn
  spec.trial = [](const GridPoint&, TrialContext&) { return TrialOutput{}; };
  spec.trials_per_point = 0;
  EXPECT_THROW(run_campaign(spec), std::invalid_argument);
  spec.trials_per_point = 1;
  spec.shard_size = 0;
  EXPECT_THROW(run_campaign(spec), std::invalid_argument);
}

TEST(Campaign, ThreadCountIsCappedByShardsAndCores) {
  EXPECT_EQ(campaign_threads(0, 100, 4), 4u);       // 0 = one per core
  EXPECT_EQ(campaign_threads(8, 100, 4), 8u);
  EXPECT_EQ(campaign_threads(8, 3, 4), 3u);         // no idle workers
  EXPECT_EQ(campaign_threads(5000, 1512, 4), 4 * kThreadsPerCore);
  EXPECT_EQ(campaign_threads(SIZE_MAX, 1512, 4), 4 * kThreadsPerCore);
  EXPECT_EQ(campaign_threads(0, 100, 0), 1u);       // unknown core count
  EXPECT_EQ(campaign_threads(5000, 100, 0), kThreadsPerCore);

  // Through run_campaign: 40 shards bound the threads actually started.
  CampaignSpec spec;
  spec.trial = [](const GridPoint&, TrialContext&) { return TrialOutput{}; };
  spec.trials_per_point = 40 * spec.shard_size;
  spec.threads = 1'000'000;
  const CampaignResult result = run_campaign(spec);
  const std::size_t cores = std::max(1u, std::thread::hardware_concurrency());
  EXPECT_EQ(result.threads_used, std::min<std::size_t>(40, kThreadsPerCore * cores));
}

TEST(Campaign, TrialExceptionPropagates) {
  CampaignSpec spec;
  spec.trials_per_point = 64;
  spec.threads = 4;
  spec.trial = [](const GridPoint&, TrialContext& ctx) -> TrialOutput {
    if (ctx.trial_index == 17) throw std::runtime_error("boom");
    return TrialOutput{};
  };
  EXPECT_THROW(run_campaign(spec), std::runtime_error);
}

TEST(Campaign, RequireFailureFailsTheCampaignLoudly) {
  // TrialOutput::require is the per-trial invariant hook (e.g. "every
  // attestation round resolved"); a violation must abort the campaign,
  // not quietly skew its aggregates.
  TrialOutput out;
  out.require(true, "fine");  // no-op
  CampaignSpec spec;
  spec.trials_per_point = 32;
  spec.threads = 2;
  spec.trial = [](const GridPoint&, TrialContext& ctx) -> TrialOutput {
    TrialOutput trial;
    trial.require(ctx.trial_index != 9, "round leaked its done callback");
    return trial;
  };
  EXPECT_THROW(run_campaign(spec), std::runtime_error);
}

TEST(Campaign, ReportJsonShape) {
  const CampaignResult result = run_campaign(make_test_spec(2));
  const std::string json = campaign_json(result);
  EXPECT_NE(json.find("\"bench\":\"exp_selftest\""), std::string::npos);
  EXPECT_NE(json.find("\"base_seed\":99"), std::string::npos);
  EXPECT_NE(json.find("\"wilson_lower\""), std::string::npos);
  EXPECT_NE(json.find("\"params\":{\"p\":0.25,\"k\":1}"), std::string::npos);
  // Execution facts must NOT leak into the artifact.
  EXPECT_EQ(json.find("threads"), std::string::npos);
  EXPECT_EQ(json.find("wall"), std::string::npos);
}

TEST(Campaign, FindCellByLabel) {
  const CampaignResult result = run_campaign(make_test_spec(1));
  const CellResult* cell = result.find_cell("p=0.75 k=3");
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->grid_index, 3u);
  EXPECT_EQ(result.find_cell("p=0.5 k=9"), nullptr);
}

}  // namespace
}  // namespace rasc::exp
