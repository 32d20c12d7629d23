// The scenario replay every substrate shares (sim/event_stream.h) and the
// engine workload binding (engine/workload_binding.h): the event loop's
// order and run statistics, the node-major delivery log and its summary,
// and the node-count rule. A workload over more nodes than the contact
// stream is rejected by the Simulator, TraceRunner and both fleet engines,
// even when every producer lies inside the stream's range.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/bsub_protocol.h"
#include "engine/network.h"
#include "engine/trace_runner.h"
#include "engine/workload_binding.h"
#include "net/fleet/fleet_runtime.h"
#include "sim/event_stream.h"
#include "sim/simulator.h"
#include "testing/scenario.h"
#include "util/errors.h"
#include "workload/workload.h"

namespace bsub {
namespace {

using testing::contact;
using testing::make_message;
using util::from_minutes;

/// Three stream nodes: 0-1 at 1 min, 1-2 at 2 min, 0-2 at 3 min.
trace::ContactTrace three_node_trace() {
  return trace::ContactTrace(
      3, {contact(0, 1, 1.0), contact(1, 2, 2.0), contact(0, 2, 3.0)},
      "three");
}

/// A workload over `nodes` nodes whose producers all lie in [0, 3):
/// messages at 0 and 2 min.
workload::Workload workload_over(const workload::KeySet& keys,
                                 std::size_t nodes) {
  std::vector<workload::KeyId> interests(nodes, 0);
  std::vector<workload::Message> messages = {make_message(2, 0, 0),
                                             make_message(0, 0, from_minutes(2))};
  return workload::Workload(keys, nodes, std::move(interests),
                            std::move(messages));
}

TEST(ScenarioReplay, RunsEventsInMergeOrderAndReportsTheLastTime) {
  const workload::KeySet keys = testing::two_keys();
  const trace::ContactTrace trace = three_node_trace();
  const workload::Workload w = workload_over(keys, 3);
  trace::MaterializedStream stream(trace);
  sim::ScenarioEventStream events(stream, w);

  sim::ParallelRunConfig cfg;
  cfg.threads = 1;
  std::vector<std::pair<bool, util::Time>> seen;
  const sim::ReplayStats stats =
      sim::replay_scenario(events, cfg, [&](const sim::ScenarioEvent& e) {
        seen.emplace_back(e.is_message, e.time(w.messages()));
      });
  // A creation at 2 min goes before the contact starting at 2 min.
  const std::vector<std::pair<bool, util::Time>> expected = {
      {true, 0},
      {false, from_minutes(1)},
      {true, from_minutes(2)},
      {false, from_minutes(2)},
      {false, from_minutes(3)}};
  EXPECT_EQ(seen, expected);
  EXPECT_EQ(stats.exec.events, 5u);
  EXPECT_EQ(stats.exec.threads_used, 1u);
  EXPECT_EQ(stats.end, from_minutes(3));
}

TEST(ScenarioReplay, EmptyScenarioReportsASerialRun) {
  const workload::KeySet keys = testing::two_keys();
  const trace::ContactTrace trace(2, {}, "empty");
  const workload::Workload w(keys, 2, std::vector<workload::KeyId>{0, 1}, {});
  trace::MaterializedStream stream(trace);
  sim::ScenarioEventStream events(stream, w);

  sim::ParallelRunConfig cfg;
  cfg.threads = 4;
  const sim::ReplayStats stats = sim::replay_scenario(
      events, cfg, [](const sim::ScenarioEvent&) { FAIL(); });
  EXPECT_EQ(stats.exec.events, 0u);
  EXPECT_EQ(stats.exec.threads_used, 1u);
  EXPECT_EQ(stats.end, 0);
}

TEST(ScenarioReplay, MergeRejectsAWorkloadOverOtherNodes) {
  const workload::KeySet keys = testing::two_keys();
  const trace::ContactTrace trace = three_node_trace();
  trace::MaterializedStream stream(trace);
  const workload::Workload more = workload_over(keys, 4);
  EXPECT_THROW((sim::ScenarioEventStream{stream, more}), util::ConfigError);
  const workload::Workload fewer(keys, 2, std::vector<workload::KeyId>{0, 0},
                                 {make_message(0, 0, 0)});
  EXPECT_THROW((sim::ScenarioEventStream{stream, fewer}), util::ConfigError);
}

TEST(ScenarioReplay, SimulatorRejectsAWorkloadOverMoreNodes) {
  const workload::KeySet keys = testing::two_keys();
  const workload::Workload w = workload_over(keys, 4);
  core::BsubProtocol protocol;
  sim::Simulator simulator;
  EXPECT_THROW(simulator.run(three_node_trace(), w, protocol),
               util::ConfigError);
}

TEST(ScenarioReplay, TraceRunnerRejectsAWorkloadOverMoreNodes) {
  const workload::KeySet keys = testing::two_keys();
  const workload::Workload w = workload_over(keys, 4);
  engine::TraceRunner runner(engine::NodeConfig{}, {3, 5, 5 * util::kHour});
  EXPECT_THROW(runner.run(three_node_trace(), w), util::ConfigError);
}

TEST(ScenarioReplay, FleetLoopbackRejectsAWorkloadOverMoreNodes) {
  const workload::KeySet keys = testing::two_keys();
  const workload::Workload w = workload_over(keys, 4);
  net::FleetConfig cfg;
  cfg.runtime.decay_tick = 0;
  cfg.threads = 1;
  net::FleetRuntime fleet(cfg);
  EXPECT_THROW(fleet.run_loopback(three_node_trace(), w), util::ConfigError);
}

TEST(ScenarioReplay, FleetUdpRejectsAWorkloadOverMoreNodes) {
  const workload::KeySet keys = testing::two_keys();
  const workload::Workload w = workload_over(keys, 4);
  net::FleetConfig cfg;
  cfg.runtime.decay_tick = 0;
  cfg.udp.base_port = 46250;
  cfg.contact_timeout = 200 * util::kMillisecond;
  net::FleetRuntime fleet(cfg);
  EXPECT_THROW(fleet.run_udp(three_node_trace(), w), util::ConfigError);
}

TEST(DeliveryLog, RecordsNodeMajorAndSummarizesInThatOrder) {
  // Node 0 publishes "alpha" at 0; node 2 receives it at 1 min, node 1 at
  // 3 min. The Network logs arrival order (2, 1); the DeliveryLog reads
  // node-major (1, 2).
  const workload::KeySet keys = testing::two_keys();
  const workload::Workload w(keys, 3, std::vector<workload::KeyId>{1, 0, 0},
                             {make_message(0, 0, 0)});
  engine::NodeConfig no_decay;
  no_decay.df_per_minute = 0.0;
  engine::Network net(no_decay);
  engine::DeliveryLog log(3);
  for (trace::NodeId n = 0; n < 3; ++n) {
    engine::BsubNode& node = net.add_node(n);
    engine::subscribe_interests(node, w, n);
    log.attach(node, n);
  }
  const workload::Message& m = w.messages()[0];
  const engine::ContentMessage cm = engine::content_message(w, m, m.created);
  EXPECT_EQ(cm.id, m.id);
  EXPECT_EQ(cm.key, "alpha");
  EXPECT_EQ(cm.body, std::vector<std::uint8_t>(m.size_bytes, 0x5A));
  EXPECT_EQ(cm.ttl, m.ttl);
  net.node(0).publish(cm, m.created);
  net.contact(0, 2, from_minutes(1), util::kHour);
  net.contact(0, 1, from_minutes(3), util::kHour);

  const std::vector<engine::DeliveryRecord> records = log.records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].consumer, 1u);
  EXPECT_EQ(records[0].at, from_minutes(3));
  EXPECT_EQ(records[1].consumer, 2u);
  EXPECT_EQ(records[1].at, from_minutes(1));
  EXPECT_TRUE(net.deliveries().empty());  // attach replaced its handler

  engine::TraceRunResults results;
  log.summarize(w, results);
  EXPECT_EQ(results.deliveries, 2u);
  EXPECT_EQ(results.expected_deliveries, 2u);
  EXPECT_EQ(results.delivery_ratio, 1.0);
  EXPECT_EQ(results.mean_delay_minutes, (3.0 + 1.0) / 2.0);
}

}  // namespace
}  // namespace bsub
