// Determinism of the parallel experiment harness: a sweep executed on the
// parallel runner must serialize to exactly the same BENCH point array as a
// serial (BSUB_THREADS=1-equivalent) run. Uses a miniature synthetic
// scenario so the full simulate-and-serialize path is exercised cheaply.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "experiment_common.h"

namespace bsub::bench {
namespace {

Scenario mini_scenario() {
  trace::SyntheticTraceConfig cfg;
  cfg.name = "mini-sweep";
  cfg.node_count = 12;
  cfg.contact_count = 600;
  cfg.duration = 12 * util::kHour;
  cfg.community_count = 3;
  cfg.seed = kExperimentSeed;
  return Scenario(cfg);
}

std::vector<std::string> sweep_points(const Scenario& scenario,
                                      std::size_t threads) {
  const std::vector<double> ttl_minutes = {30, 60, 120, 240};
  const std::vector<ProtocolRun> runs = util::parallel_map(
      ttl_minutes,
      [&](double ttl_min) {
        const util::Time ttl = util::from_minutes(ttl_min);
        const workload::Workload w = scenario.make_workload(ttl);
        return run_bsub(scenario, w, bsub_config_for(scenario, ttl));
      },
      threads);

  std::vector<std::string> points;
  for (std::size_t i = 0; i < ttl_minutes.size(); ++i) {
    points.push_back(
        JsonObject()
            .field("ttl_min", ttl_minutes[i])
            .field("delivery", runs[i].results.delivery_ratio)
            .field("delay_min", runs[i].results.mean_delay_minutes)
            .field("fwd", runs[i].results.forwardings_per_delivery)
            .field("relay_fpr", runs[i].relay_fpr)
            .str());
  }
  return points;
}

TEST(SweepDeterminismTest, ParallelPointsMatchSerialBitForBit) {
  const Scenario scenario = mini_scenario();
  const std::vector<std::string> serial = sweep_points(scenario, 1);
  const std::vector<std::string> parallel = sweep_points(scenario, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "point " << i;
  }
  EXPECT_EQ(points_json(serial), points_json(parallel));
}

TEST(SweepDeterminismTest, RepeatedParallelRunsAreStable) {
  const Scenario scenario = mini_scenario();
  const std::vector<std::string> a = sweep_points(scenario, 4);
  const std::vector<std::string> b = sweep_points(scenario, 4);
  EXPECT_EQ(a, b);
}

TEST(JsonObjectTest, RendersFieldsInOrderWithFullPrecision) {
  const std::string s = JsonObject()
                            .field("a", 0.1)
                            .field("b", std::uint64_t{42})
                            .field("c", std::string("x\"y"))
                            .field("d", -3)
                            .str();
  EXPECT_EQ(s,
            "{\"a\": 0.10000000000000001, \"b\": 42, \"c\": \"x\\\"y\", "
            "\"d\": -3}");
}

TEST(JsonObjectTest, PointsJsonWrapsRows) {
  EXPECT_EQ(points_json({}), "[\n]");
  EXPECT_EQ(points_json({"{\"a\": 1}"}), "[\n  {\"a\": 1}\n]");
  EXPECT_EQ(points_json({"{}", "{}"}), "[\n  {},\n  {}\n]");
}

}  // namespace
}  // namespace bsub::bench
