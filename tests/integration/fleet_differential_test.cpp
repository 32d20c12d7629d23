// Fleet loopback engine vs engine harness: live nodes replaying a scenario
// over real sessions on reactor lanes must reproduce engine::TraceRunner
// *bit for bit* — delivery logs, frame tallies, byte usage, float
// summaries — across seeds. Custody sets (which nodes ever carried each
// message) are compared against a serial engine replay, so the messages
// traveled the same broker paths on both substrates.
//
// Two scenario families:
//   - single lane: 12 nodes, 600 dense contacts, one reactor thread — the
//     plain loopback replay of one contact at a time;
//   - fleet: 1000 nodes, 8000 sparse community contacts, two reactor
//     threads — lanes executing node-disjoint conflict batches.
//
// The equivalence argument: (1) the lane hub's FIFO delivers datagrams in
// send order, which for a two-party contact reproduces the harness's
// alternating queue processing; (2) sessions charge frames against the
// shared sim::Link at offer time in the same order the harness charges them
// at pop time; (3) uncharged control datagrams (ACK/FIN) exist only below
// the frame layer. decay_tick is 0 throughout: both substrates then decay
// TCBF counters lazily over identical intervals. Splitting a decay interval
// across ticks changes the floating-point sum (df*t1 + df*t2 != df*(t1+t2)
// bitwise), which would perturb counter values without changing protocol
// semantics; tick-driven decay is covered in loopback_runtime_test.cpp.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/df_tuning.h"
#include "engine/trace_runner.h"
#include "net/fleet/fleet_runtime.h"
#include "testing/engine_replay.h"
#include "trace/synthetic.h"
#include "workload/workload.h"

namespace bsub::net {
namespace {

struct Family {
  std::size_t nodes;
  std::size_t contacts;
  util::Time duration;
  std::size_t communities;
  util::Time ttl;
  double messages_per_minute;  ///< per-node workload base rate
  std::size_t threads;         ///< reactor lanes
};

constexpr Family kSingleLane{12, 600, 8 * util::kHour, 5, 3 * util::kHour,
                             1.0 / 30.0, 1};
// The message population stays proportionate to the sparse contact plan
// (~8 contacts per node).
constexpr Family kFleet{1000, 8000, 12 * util::kHour, 20, 6 * util::kHour,
                        1.0 / 1440.0, 2};

const core::BrokerElection::Config kElection{3, 5, 5 * util::kHour};

struct Scenario {
  trace::ContactTrace trace;
  workload::KeySet keys;
  workload::Workload workload;

  Scenario(const Family& f, std::uint64_t seed)
      : trace([&] {
          trace::SyntheticTraceConfig cfg;
          cfg.node_count = f.nodes;
          cfg.contact_count = f.contacts;
          cfg.duration = f.duration;
          cfg.community_count = f.communities;
          cfg.seed = seed;
          return trace::generate_trace(cfg);
        }()),
        keys(workload::twitter_trend_keys()), workload([&] {
          workload::WorkloadConfig wcfg;
          wcfg.ttl = f.ttl;
          wcfg.base_rate_per_minute = f.messages_per_minute;
          wcfg.seed = seed + 1;
          return workload::Workload(trace, keys, wcfg);
        }()) {}
};

engine::NodeConfig node_config_for(const Family& f, const Scenario& s) {
  engine::NodeConfig cfg;
  cfg.df_per_minute =
      core::compute_df(s.trace, f.ttl, cfg.filter_params, cfg.initial_counter)
          .df_per_minute;
  return cfg;
}

FleetConfig fleet_config_for(const Family& f, engine::NodeConfig node_config) {
  FleetConfig cfg;
  cfg.runtime.node = node_config;
  cfg.runtime.decay_tick = 0;
  cfg.election = kElection;
  cfg.threads = f.threads;
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

/// Scalar results: integers exactly, floats bitwise (same summation order
/// over identical delivery logs).
void expect_scalars_match(const Family& f, std::uint64_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  const Scenario s(f, seed);
  const engine::NodeConfig node_config = node_config_for(f, s);

  engine::TraceRunner runner(node_config, kElection);
  const engine::TraceRunResults expect = runner.run(s.trace, s.workload);
  ASSERT_GT(expect.deliveries, 0u);

  FleetRuntime fleet(fleet_config_for(f, node_config));
  const FleetRunResults got = fleet.run_loopback(s.trace, s.workload);
  EXPECT_EQ(got.reactor_threads, f.threads);

  EXPECT_EQ(got.protocol.deliveries, expect.deliveries);
  EXPECT_EQ(got.protocol.expected_deliveries, expect.expected_deliveries);
  EXPECT_EQ(got.protocol.contacts_processed, expect.contacts_processed);
  EXPECT_EQ(got.protocol.frames_delivered, expect.frames_delivered);
  EXPECT_EQ(got.protocol.frames_dropped, expect.frames_dropped);
  EXPECT_EQ(got.protocol.bytes_used, expect.bytes_used);
  EXPECT_EQ(got.protocol.delivery_ratio, expect.delivery_ratio);
  EXPECT_EQ(got.protocol.mean_delay_minutes, expect.mean_delay_minutes);
}

/// Record-for-record delivery logs in the canonical node-major order, and
/// identical custody sets: every message was ever carried by exactly the
/// same nodes on both substrates — same brokers, same relay paths.
void expect_logs_and_custody_match(const Family& f, std::uint64_t seed) {
  const Scenario s(f, seed);
  const engine::NodeConfig node_config = node_config_for(f, s);
  testing::EngineReplay replay(s.trace, s.workload, node_config, kElection);

  FleetRuntime fleet(fleet_config_for(f, node_config));
  const FleetRunResults got = fleet.run_loopback(s.trace, s.workload);
  ASSERT_GT(got.protocol.deliveries, 0u);

  EXPECT_EQ(tuples(fleet.deliveries()), tuples(replay.deliveries()));

  std::set<std::uint64_t> message_ids;
  for (const workload::Message& m : s.workload.messages()) {
    message_ids.insert(m.id);
  }
  std::size_t custody_hops = 0;
  std::size_t mismatches = 0;
  for (std::uint64_t id : message_ids) {
    for (trace::NodeId n = 0; n < s.trace.node_count(); ++n) {
      const bool fleet_carried = fleet.node(n).ever_carried(id);
      if (fleet_carried != replay.net().node(n).ever_carried(id)) {
        ++mismatches;
      }
      custody_hops += fleet_carried ? 1u : 0u;
    }
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_GT(custody_hops, 0u);  // the relay path was actually exercised
}

TEST(FleetDifferential, SingleLaneBitForBitAcrossSeeds) {
  for (std::uint64_t seed : {101u, 202u, 303u, 404u, 505u, 606u}) {
    expect_scalars_match(kSingleLane, seed);
  }
}

TEST(FleetDifferential, SingleLaneDeliveryLogsAndCustodySetsMatch) {
  expect_logs_and_custody_match(kSingleLane, 707);
}

TEST(FleetDifferential, BitForBitVsTraceRunnerAcrossSeeds) {
  for (std::uint64_t seed : {11u, 22u, 33u, 44u, 55u, 66u}) {
    expect_scalars_match(kFleet, seed);
  }
}

TEST(FleetDifferential, DeliveryLogsAndCustodySetsMatch) {
  expect_logs_and_custody_match(kFleet, 77);
}

}  // namespace
}  // namespace bsub::net
