// FleetRuntime: the deterministic loopback engine must not depend on its
// lane count — down to every transport tally — and a lossless replay drops
// no datagram; the real-time UDP engine must complete every contact and
// deliver end to end over real sockets. Bit-identity with the engine
// harness is tests/integration/fleet_differential_test.cpp.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/df_tuning.h"
#include "engine/trace_runner.h"
#include "net/fleet/fleet_runtime.h"
#include "trace/synthetic.h"
#include "util/errors.h"
#include "workload/workload.h"

namespace bsub::net {
namespace {

struct Scenario {
  trace::ContactTrace trace;
  workload::KeySet keys;
  workload::Workload workload;

  explicit Scenario(std::uint64_t seed, std::size_t nodes = 12,
                    std::size_t contacts = 600)
      : trace([&] {
          trace::SyntheticTraceConfig cfg;
          cfg.node_count = nodes;
          cfg.contact_count = contacts;
          cfg.duration = 8 * util::kHour;
          cfg.seed = seed;
          return trace::generate_trace(cfg);
        }()),
        keys(workload::twitter_trend_keys()), workload([&] {
          workload::WorkloadConfig wcfg;
          wcfg.ttl = 3 * util::kHour;
          wcfg.seed = seed + 1;
          return workload::Workload(trace, keys, wcfg);
        }()) {}
};

engine::NodeConfig node_config_for(const Scenario& s) {
  engine::NodeConfig cfg;
  cfg.df_per_minute = core::compute_df(s.trace, 3 * util::kHour,
                                       cfg.filter_params, cfg.initial_counter)
                          .df_per_minute;
  return cfg;
}

using DeliveryTuple =
    std::tuple<engine::NodeId, std::uint64_t, std::string, util::Time>;

std::vector<DeliveryTuple> tuples(
    const std::vector<engine::DeliveryRecord>& records) {
  std::vector<DeliveryTuple> out;
  out.reserve(records.size());
  for (const auto& r : records) {
    out.emplace_back(r.consumer, r.message_id, r.key, r.at);
  }
  return out;
}

FleetRunResults run_loopback_with(const Scenario& s, std::size_t threads) {
  FleetConfig cfg;
  cfg.runtime.node = node_config_for(s);
  cfg.runtime.decay_tick = 0;
  cfg.threads = threads;
  FleetRuntime fleet(cfg);
  return fleet.run_loopback(s.trace, s.workload);
}

TEST(FleetRuntimeLoopback, TransportStatsIdenticalAcrossLaneCounts) {
  // Every contact is an independent virtual-time episode, so the sessions
  // send, receive and drop the same datagrams whichever lane runs them.
  Scenario s(101);
  const FleetRunResults serial = run_loopback_with(s, 1);
  const FleetRunResults parallel = run_loopback_with(s, 4);
  ASSERT_GT(serial.protocol.deliveries, 0u);
  EXPECT_EQ(parallel.reactor_threads, 4u);

  const metrics::TransportStats& a = serial.transport;
  const metrics::TransportStats& b = parallel.transport;
  EXPECT_EQ(a.datagrams_sent, b.datagrams_sent);
  EXPECT_EQ(a.datagrams_received, b.datagrams_received);
  EXPECT_EQ(a.datagrams_dropped, b.datagrams_dropped);
  EXPECT_EQ(a.frames_sent, b.frames_sent);
  EXPECT_EQ(a.frames_received, b.frames_received);
  EXPECT_EQ(a.frames_retransmitted, b.frames_retransmitted);
  EXPECT_EQ(a.frames_dropped, b.frames_dropped);
  EXPECT_EQ(a.session_opens, b.session_opens);
  EXPECT_EQ(a.session_timeouts, b.session_timeouts);
  EXPECT_EQ(a.reassembly_failures, b.reassembly_failures);
  // Two sessions per contact, all closed gracefully.
  EXPECT_EQ(a.session_opens, 2 * serial.protocol.contacts_processed);
  EXPECT_EQ(a.session_timeouts, 0u);
}

TEST(FleetRuntimeLoopback, LosslessReplayDropsNoDatagrams) {
  // A clean loopback lane loses nothing and sends nothing malformed; the
  // FIN_ACKs that outlive a simultaneous close are received, not dropped.
  Scenario s(202);
  const FleetRunResults r = run_loopback_with(s, 1);
  ASSERT_GT(r.transport.datagrams_received, 0u);
  EXPECT_EQ(r.transport.datagrams_dropped, 0u);
  EXPECT_EQ(r.transport.datagrams_received, r.transport.datagrams_sent);
  EXPECT_EQ(r.transport.frames_retransmitted, 0u);
}

TEST(FleetRuntimeLoopback, ThreadCountDoesNotChangeResults) {
  Scenario s(202);
  const engine::NodeConfig node_config = node_config_for(s);

  auto run_with = [&](std::size_t threads) {
    FleetConfig cfg;
    cfg.runtime.node = node_config;
    cfg.runtime.decay_tick = 0;
    cfg.threads = threads;
    auto fleet = std::make_unique<FleetRuntime>(cfg);
    auto results = fleet->run_loopback(s.trace, s.workload);
    return std::make_pair(std::move(results), tuples(fleet->deliveries()));
  };

  const auto [serial, serial_log] = run_with(1);
  const auto [parallel, parallel_log] = run_with(4);
  ASSERT_GT(serial.protocol.deliveries, 0u);
  EXPECT_EQ(serial_log, parallel_log);
  EXPECT_EQ(serial.protocol.bytes_used, parallel.protocol.bytes_used);
  EXPECT_EQ(serial.protocol.mean_delay_minutes,
            parallel.protocol.mean_delay_minutes);
  EXPECT_EQ(serial.transport.datagrams_sent,
            parallel.transport.datagrams_sent);
}

TEST(FleetRuntimeLoopback, RejectsDecayTicksAndSecondRuns) {
  Scenario s(303, 6, 40);
  FleetConfig cfg;
  cfg.runtime.decay_tick = util::kMinute;
  FleetRuntime bad(cfg);
  EXPECT_THROW(bad.run_loopback(s.trace, s.workload), util::ConfigError);

  FleetConfig good;
  good.runtime.node = node_config_for(s);
  good.runtime.decay_tick = 0;
  good.threads = 1;
  FleetRuntime fleet(good);
  fleet.run_loopback(s.trace, s.workload);
  EXPECT_THROW(fleet.run_loopback(s.trace, s.workload), std::logic_error);
}

TEST(FleetRuntimeUdp, RejectsShardPortsOutOfRange) {
  // Shard s binds base_port + s. A sum past 65535 would wrap to an
  // ephemeral port that no peer routes to (contacts then time out), and
  // port 0 asks for ephemeral ports outright; both must be refused before
  // any socket binds.
  Scenario s(303, 6, 40);
  for (const auto& [base_port, shards] :
       {std::pair<std::uint16_t, std::size_t>{65535, 2},
        std::pair<std::uint16_t, std::size_t>{65530, 7},
        std::pair<std::uint16_t, std::size_t>{0, 1}}) {
    FleetConfig cfg;
    cfg.runtime.node = node_config_for(s);
    cfg.runtime.decay_tick = 0;
    cfg.shards = shards;
    cfg.udp.base_port = base_port;
    cfg.contact_timeout = 200 * util::kMillisecond;
    FleetRuntime fleet(cfg);
    EXPECT_THROW(fleet.run_udp(s.trace, s.workload), util::ConfigError)
        << "base_port " << base_port << ", " << shards << " shards";
  }
}

TEST(FleetRuntimeUdp, MiniScenarioDeliversOverRealSockets) {
  // Hand-built guaranteed delivery: node 0 publishes, node 1 subscribes to
  // the same key, they meet directly. Two shards exercise the cross-shard
  // path (0 and 1 home on different shards).
  const workload::KeySet keys = workload::twitter_trend_keys();
  std::vector<workload::KeyId> interests = {1, 0, 2, 3};
  std::vector<workload::Message> messages;
  workload::Message m;
  m.id = 1;
  m.key = 0;
  m.producer = 0;
  m.size_bytes = 64;
  m.created = 0;
  m.ttl = util::kHour;
  messages.push_back(m);
  workload::Workload workload(keys, 4, std::move(interests),
                              std::move(messages));

  std::vector<trace::Contact> contacts;
  for (int i = 0; i < 8; ++i) {
    trace::Contact c;
    c.a = static_cast<trace::NodeId>(i % 2 == 0 ? 0 : 2);
    c.b = static_cast<trace::NodeId>(i % 2 == 0 ? 1 : 3);
    c.start = util::kMinute + i * util::kMinute;
    c.end = c.start + util::kMinute;
    contacts.push_back(c);
  }
  trace::ContactTrace trace(4, std::move(contacts), "fleet-mini");

  FleetConfig cfg;
  cfg.runtime.decay_tick = 0;
  cfg.shards = 2;
  cfg.udp.base_port = 46210;
  cfg.contact_timeout = 5 * util::kSecond;
  FleetRuntime fleet(cfg);
  FleetRunResults results;
  try {
    results = fleet.run_udp(trace, workload);
  } catch (const std::runtime_error& e) {
    GTEST_SKIP() << "no loopback sockets here: " << e.what();
  }

  EXPECT_EQ(results.protocol.contacts_processed, 8u);
  EXPECT_GE(results.protocol.deliveries, 1u);
  EXPECT_GT(results.transport.frames_received, 0u);
  EXPECT_GT(results.datagrams_out, 0u);
  EXPECT_EQ(results.unroutable_drops, 0u);
  EXPECT_GT(results.wall_seconds, 0.0);
  EXPECT_GT(results.contacts_per_second, 0.0);
}

}  // namespace
}  // namespace bsub::net
