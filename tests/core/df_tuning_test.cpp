#include "core/df_tuning.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "trace/city.h"
#include "trace/contact_stream.h"
#include "trace/synthetic.h"

namespace bsub::core {
namespace {

constexpr bloom::BloomParams kPaper{256, 4};

trace::ContactTrace dense_trace(std::uint64_t seed = 13) {
  trace::SyntheticTraceConfig cfg;
  cfg.node_count = 30;
  cfg.contact_count = 10000;
  cfg.duration = util::kDay;
  cfg.seed = seed;
  return trace::generate_trace(cfg);
}

TEST(EstimateKeysPerWindow, EmptyTraceIsZero) {
  trace::ContactTrace empty(5, {});
  EXPECT_DOUBLE_EQ(estimate_keys_per_window(empty, util::kHour), 0.0);
}

TEST(EstimateKeysPerWindow, BoundedByNodeCountMinusOne) {
  auto t = dense_trace();
  double n = estimate_keys_per_window(t, 6 * util::kHour);
  EXPECT_GT(n, 0.0);
  EXPECT_LE(n, 29.0);
}

TEST(EstimateKeysPerWindow, GrowsWithWindow) {
  auto t = dense_trace();
  double small = estimate_keys_per_window(t, util::kHour);
  double large = estimate_keys_per_window(t, 12 * util::kHour);
  EXPECT_LT(small, large);
}

TEST(EstimateKeysPerWindow, WindowLargerThanTraceEqualsFullDegrees) {
  auto t = dense_trace();
  double full = estimate_keys_per_window(t, 10 * util::kDay);
  auto deg = t.degrees();
  double mean = 0.0;
  for (auto d : deg) mean += static_cast<double>(d);
  mean /= static_cast<double>(deg.size());
  EXPECT_NEAR(full, mean, 1e-9);
}

/// Eq. 5's N as a per-window degree scan: one degrees_in_window call per
/// tumbling window, summed window by window, node by node. The one-pass
/// estimate must equal it bit for bit.
double per_window_scan(const trace::ContactTrace& trace, util::Time window) {
  if (trace.empty() || trace.node_count() == 0) return 0.0;
  double total = 0.0;
  std::size_t samples = 0;
  for (util::Time w = trace.start_time(); w < trace.end_time(); w += window) {
    for (const std::size_t d : trace.degrees_in_window(w, w + window)) {
      total += static_cast<double>(d);
      ++samples;
    }
  }
  return samples == 0 ? 0.0 : total / static_cast<double>(samples);
}

void expect_matches_scan(const trace::ContactTrace& trace, util::Time window) {
  const double want = per_window_scan(trace, window);
  const double got = estimate_keys_per_window(trace, window);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
            std::bit_cast<std::uint64_t>(want))
      << trace.name() << ", window " << util::to_minutes(window)
      << " min: " << got << " vs " << want;
}

trace::Contact minutes(trace::NodeId a, trace::NodeId b, double from,
                       double to) {
  trace::Contact c;
  c.a = a;
  c.b = b;
  c.start = util::from_minutes(from);
  c.end = util::from_minutes(to);
  return c;
}

TEST(EstimateKeysPerWindow, MatchesPerWindowScanOnPaperPresets) {
  for (const std::uint64_t seed : {7u, 2010u}) {
    const auto haggle =
        trace::generate_trace(trace::haggle_infocom06_config(seed));
    const auto reality = trace::generate_trace(trace::mit_reality_config(seed));
    for (const util::Time window : {util::kHour, 10 * util::kHour}) {
      expect_matches_scan(haggle, window);
      expect_matches_scan(reality, window);
    }
  }
}

TEST(EstimateKeysPerWindow, MatchesPerWindowScanOnFleetAndCityTraces) {
  // The fleet workloads' community trace: 1,000 nodes in 20 communities,
  // 200k contacts over 12 h.
  trace::SyntheticTraceConfig fleet;
  fleet.node_count = 1000;
  fleet.contact_count = 200000;
  fleet.duration = 12 * util::kHour;
  fleet.community_count = 20;
  fleet.seed = 2010;
  expect_matches_scan(trace::generate_trace(fleet), 6 * util::kHour);

  const auto city = trace::make_city_stream(trace::city_config(500, 20000));
  const trace::ContactTrace city_trace = trace::materialize(*city);
  for (const util::Time window : {util::kHour, 6 * util::kHour}) {
    expect_matches_scan(city_trace, window);
  }
}

TEST(EstimateKeysPerWindow, MatchesPerWindowScanOnHandBuiltEdges) {
  // No contact starts in the middle window [60, 120) min.
  const trace::ContactTrace gap(
      4, {minutes(0, 1, 0, 5), minutes(1, 2, 10, 15), minutes(0, 3, 130, 140),
          minutes(2, 3, 170, 175)});
  expect_matches_scan(gap, util::kHour);

  // The last two windows are reached only by the end of a contact that
  // starts in the first: 3 windows, degrees 1 + 2 + 1 in the first.
  const trace::ContactTrace tail(
      3, {minutes(0, 1, 0, 5), minutes(1, 2, 50, 130)});
  expect_matches_scan(tail, util::kHour);
  EXPECT_EQ(estimate_keys_per_window(tail, util::kHour), 4.0 / 9.0);

  // One pair met four times (once written the other way round) counts once.
  const trace::ContactTrace repeats(
      3, {minutes(0, 1, 0, 1), minutes(1, 0, 2, 3), minutes(0, 1, 4, 5),
          minutes(0, 1, 6, 7), minutes(1, 2, 8, 9)});
  expect_matches_scan(repeats, util::kHour);
  EXPECT_EQ(estimate_keys_per_window(repeats, util::kHour), 4.0 / 3.0);

  // A window longer than the whole trace is one window.
  for (const trace::ContactTrace* t : {&gap, &tail, &repeats}) {
    expect_matches_scan(*t, 10 * util::kDay);
  }
}

TEST(ComputeDfFromKeys, NoAccidentalHitsGivesBaseRate) {
  // With zero other keys, E[min] = 0 and DF = C/W + delta.
  DfEstimate est =
      compute_df_from_keys(0.0, 10 * util::kHour, kPaper, 50.0, 0.0);
  EXPECT_DOUBLE_EQ(est.expected_min_increment, 0.0);
  EXPECT_NEAR(est.df_per_minute, 50.0 / 600.0, 1e-12);
}

TEST(ComputeDfFromKeys, DeltaIsAdded) {
  DfEstimate a = compute_df_from_keys(0.0, util::kHour, kPaper, 50.0, 0.0);
  DfEstimate b = compute_df_from_keys(0.0, util::kHour, kPaper, 50.0, 0.05);
  EXPECT_NEAR(b.df_per_minute - a.df_per_minute, 0.05, 1e-12);
}

TEST(ComputeDfFromKeys, MoreKeysRaiseDf) {
  DfEstimate sparse =
      compute_df_from_keys(10.0, 10 * util::kHour, kPaper, 50.0);
  DfEstimate dense =
      compute_df_from_keys(200.0, 10 * util::kHour, kPaper, 50.0);
  EXPECT_GT(dense.df_per_minute, sparse.df_per_minute);
  EXPECT_GT(dense.expected_min_increment, sparse.expected_min_increment);
}

TEST(ComputeDfFromKeys, LongerWindowLowersDf) {
  DfEstimate short_w = compute_df_from_keys(50.0, util::kHour, kPaper, 50.0);
  DfEstimate long_w =
      compute_df_from_keys(50.0, 20 * util::kHour, kPaper, 50.0);
  EXPECT_GT(short_w.df_per_minute, long_w.df_per_minute);
}

TEST(ComputeDf, PaperScaleSanity) {
  // The paper reports DF ~ 0.138/min for W = 10 h on the Haggle trace with
  // C = 50. Our synthetic Haggle-like trace should land in the same decade.
  auto t = trace::generate_trace(trace::haggle_infocom06_config(5));
  DfEstimate est = compute_df(t, 10 * util::kHour, kPaper, 50.0);
  EXPECT_GT(est.df_per_minute, 0.05);
  EXPECT_LT(est.df_per_minute, 0.5);
}

TEST(ComputeDf, DrainsWithinRoughlyWindow) {
  // The defining property of Eq. 5: an interest inserted once (counter C,
  // possibly refreshed E[min] times) drains in about W.
  auto t = dense_trace();
  const util::Time window = 5 * util::kHour;
  DfEstimate est = compute_df(t, window, kPaper, 50.0, 0.0);
  const double minutes_to_drain =
      50.0 * (1.0 + est.expected_min_increment) / est.df_per_minute;
  EXPECT_NEAR(minutes_to_drain, util::to_minutes(window), 1e-6);
}

TEST(OnlineDfController, RaisesDfWhenFprTooHigh) {
  OnlineDfController ctl(0.1, 0.02);
  double df = ctl.observe(0.05);
  EXPECT_GT(df, 0.1);
}

TEST(OnlineDfController, LowersDfWhenFprWellBelowTarget) {
  OnlineDfController ctl(0.1, 0.02);
  double df = ctl.observe(0.001);
  EXPECT_LT(df, 0.1);
}

TEST(OnlineDfController, HoldsInDeadband) {
  OnlineDfController ctl(0.1, 0.02);
  double df = ctl.observe(0.015);  // between target/2 and target
  EXPECT_DOUBLE_EQ(df, 0.1);
}

TEST(OnlineDfController, ConvergesTowardTargetInSimulatedLoop) {
  // Toy plant: measured FPR is inversely proportional to DF.
  OnlineDfController ctl(0.01, 0.02);
  double measured = 0.0;
  for (int i = 0; i < 50; ++i) {
    measured = 0.002 / ctl.df();
    ctl.observe(measured);
  }
  EXPECT_LT(measured, 0.05);
  EXPECT_GT(measured, 0.005);
}

}  // namespace
}  // namespace bsub::core
