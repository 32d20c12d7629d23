// Differential test for the deterministic parallel execution core.
//
// The dependency-count executor claims *exactly* the observable semantics
// of the serial event loop — not statistically similar, identical. This
// test runs every protocol with threads=1 (the plain serial merge) and
// threads=4 (windowed dependency counts, with a small window so many
// windows and dependency levels are exercised even on short traces) over
// randomized synthetic scenarios, 10 seeds for B-SUB and 10 for the
// baselines, and requires every semantic RunResults field, the traffic
// breakdown, the false-injection count, and the measured relay FPR to
// match bit for bit. The engine's TraceRunner gets the same treatment.
#include <gtest/gtest.h>

#include <vector>

#include "core/bsub_protocol.h"
#include "core/df_tuning.h"
#include "engine/trace_runner.h"
#include "metrics/collector.h"
#include "routing/pull.h"
#include "routing/push.h"
#include "routing/spray.h"
#include "sim/simulator.h"
#include "trace/synthetic.h"
#include "workload/workload.h"

namespace bsub {
namespace {

struct ScenarioCase {
  // Workload holds a pointer to the KeySet, so the set lives here too.
  workload::KeySet keys;
  trace::ContactTrace trace;
  workload::Workload workload;

  explicit ScenarioCase(std::uint64_t seed)
      : keys(workload::twitter_trend_keys()),
        trace(trace::generate_trace(trace_config(seed))),
        workload(trace, keys, workload_config(seed)) {}

  static trace::SyntheticTraceConfig trace_config(std::uint64_t seed) {
    trace::SyntheticTraceConfig tcfg;
    tcfg.name = "pdiff";
    tcfg.node_count = 14 + seed % 7;
    tcfg.contact_count = 1500 + 100 * (seed % 5);
    tcfg.duration = util::kDay;
    tcfg.community_count = 3;
    tcfg.seed = seed;
    return tcfg;
  }

  static workload::WorkloadConfig workload_config(std::uint64_t seed) {
    workload::WorkloadConfig wcfg;
    wcfg.ttl = static_cast<util::Time>(2 + seed % 6) * util::kHour;
    wcfg.seed = seed + 1;
    return wcfg;
  }
};

/// threads=1 -> plain serial merge; threads=4, tiny window -> many windows
/// and dependency levels even on these short traces.
sim::SimulatorConfig serial_config() {
  sim::SimulatorConfig cfg;
  cfg.threads = 1;
  return cfg;
}

sim::SimulatorConfig parallel_config() {
  sim::SimulatorConfig cfg;
  cfg.threads = 4;
  cfg.window_events = 256;
  return cfg;
}

void expect_bit_identical(const metrics::RunResults& a,
                          const metrics::RunResults& b, std::uint64_t seed,
                          const char* what) {
  // Field-by-field: RunResults carries the hot_path execution counters,
  // which are schedule-independent too (commutative tallies) — but they
  // are not semantic, so only the semantic fields are pinned here.
  EXPECT_EQ(a.messages_created, b.messages_created) << what << " s" << seed;
  EXPECT_EQ(a.expected_deliveries, b.expected_deliveries)
      << what << " s" << seed;
  EXPECT_EQ(a.interested_deliveries, b.interested_deliveries)
      << what << " s" << seed;
  EXPECT_EQ(a.false_deliveries, b.false_deliveries) << what << " s" << seed;
  EXPECT_EQ(a.forwardings, b.forwardings) << what << " s" << seed;
  EXPECT_EQ(a.message_bytes, b.message_bytes) << what << " s" << seed;
  EXPECT_EQ(a.control_bytes, b.control_bytes) << what << " s" << seed;
  EXPECT_EQ(a.delivery_ratio, b.delivery_ratio) << what << " s" << seed;
  EXPECT_EQ(a.mean_delay_minutes, b.mean_delay_minutes)
      << what << " s" << seed;
  EXPECT_EQ(a.median_delay_minutes, b.median_delay_minutes)
      << what << " s" << seed;
  EXPECT_EQ(a.max_delay_minutes, b.max_delay_minutes) << what << " s" << seed;
  EXPECT_EQ(a.forwardings_per_delivery, b.forwardings_per_delivery)
      << what << " s" << seed;
  EXPECT_EQ(a.false_positive_rate, b.false_positive_rate)
      << what << " s" << seed;
}

TEST(ParallelDifferential, BsubParallelMatchesSerialOnTenSeeds) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const ScenarioCase sc(seed);
    core::BsubConfig cfg;
    cfg.df_per_minute =
        core::compute_df(sc.trace, 4 * util::kHour, cfg.filter_params,
                         cfg.initial_counter)
            .df_per_minute;

    core::BsubProtocol serial_proto(cfg);
    sim::Simulator serial_sim(serial_config());
    const metrics::RunResults serial_r =
        serial_sim.run(sc.trace, sc.workload, serial_proto);
    EXPECT_EQ(serial_sim.last_run_stats().threads_used, 1u);

    core::BsubProtocol parallel_proto(cfg);
    sim::Simulator parallel_sim(parallel_config());
    const metrics::RunResults parallel_r =
        parallel_sim.run(sc.trace, sc.workload, parallel_proto);

    expect_bit_identical(serial_r, parallel_r, seed, "bsub");
    EXPECT_EQ(serial_proto.traffic().pickups, parallel_proto.traffic().pickups)
        << "s" << seed;
    EXPECT_EQ(serial_proto.traffic().broker_transfers,
              parallel_proto.traffic().broker_transfers)
        << "s" << seed;
    EXPECT_EQ(serial_proto.traffic().deliveries,
              parallel_proto.traffic().deliveries)
        << "s" << seed;
    EXPECT_EQ(serial_proto.false_injections(),
              parallel_proto.false_injections())
        << "s" << seed;
    EXPECT_EQ(serial_proto.measured_relay_fpr(),
              parallel_proto.measured_relay_fpr())
        << "s" << seed;

    // The parallel run must actually have used the dependency-count path.
    const sim::ParallelRunStats& ps = parallel_sim.last_run_stats();
    EXPECT_EQ(ps.threads_used, 4u) << "s" << seed;
    EXPECT_GT(ps.windows, 1u) << "s" << seed;
    EXPECT_GT(ps.batches, 0u) << "s" << seed;
  }
}

TEST(ParallelDifferential, BaselinesParallelMatchSerialOnTenSeeds) {
  for (std::uint64_t seed = 11; seed <= 20; ++seed) {
    const ScenarioCase sc(seed);

    {
      routing::PushProtocol serial_proto;
      routing::PushProtocol parallel_proto;
      const metrics::RunResults a = sim::Simulator(serial_config())
                                        .run(sc.trace, sc.workload,
                                             serial_proto);
      const metrics::RunResults b = sim::Simulator(parallel_config())
                                        .run(sc.trace, sc.workload,
                                             parallel_proto);
      expect_bit_identical(a, b, seed, "push");
    }
    {
      routing::PullProtocol serial_proto;
      routing::PullProtocol parallel_proto;
      const metrics::RunResults a = sim::Simulator(serial_config())
                                        .run(sc.trace, sc.workload,
                                             serial_proto);
      const metrics::RunResults b = sim::Simulator(parallel_config())
                                        .run(sc.trace, sc.workload,
                                             parallel_proto);
      expect_bit_identical(a, b, seed, "pull");
    }
    {
      routing::SprayProtocol serial_proto(3);
      routing::SprayProtocol parallel_proto(3);
      const metrics::RunResults a = sim::Simulator(serial_config())
                                        .run(sc.trace, sc.workload,
                                             serial_proto);
      const metrics::RunResults b = sim::Simulator(parallel_config())
                                        .run(sc.trace, sc.workload,
                                             parallel_proto);
      expect_bit_identical(a, b, seed, "spray");
    }
  }
}

TEST(ParallelDifferential, ProtocolsWithoutOptInStaySerial) {
  // A protocol that does not override parallel_contacts_safe() must take
  // the serial path even when the simulator asks for threads.
  struct OrderLogger final : sim::Protocol {
    std::vector<std::pair<trace::NodeId, trace::NodeId>> order;
    using sim::Protocol::on_start;
    void on_start(const sim::ScenarioInfo&, const workload::Workload&,
                  metrics::Collector&) override {}
    void on_message_created(const workload::Message&, util::Time) override {}
    void on_contact(trace::NodeId a, trace::NodeId b, util::Time,
                    util::Time, sim::Link&) override {
      order.push_back({a, b});  // deliberately not thread-safe
    }
    const char* name() const override { return "logger"; }
  };

  const ScenarioCase sc(7);
  OrderLogger one, four;
  sim::Simulator s1(serial_config());
  sim::Simulator s4(parallel_config());
  s1.run(sc.trace, sc.workload, one);
  s4.run(sc.trace, sc.workload, four);
  EXPECT_EQ(s4.last_run_stats().threads_used, 1u);
  EXPECT_EQ(one.order, four.order);
}

TEST(ParallelDifferential, TraceRunnerParallelMatchesSerial) {
  for (std::uint64_t seed = 3; seed <= 7; ++seed) {
    const ScenarioCase sc(seed);
    engine::NodeConfig node_cfg;
    node_cfg.df_per_minute =
        core::compute_df(sc.trace, 4 * util::kHour, node_cfg.filter_params,
                         node_cfg.initial_counter)
            .df_per_minute;

    engine::TraceRunnerOptions serial_opts;
    serial_opts.threads = 1;
    engine::TraceRunner serial_runner(node_cfg, {3, 5, 5 * util::kHour},
                                      sim::kDefaultBandwidthBytesPerSecond,
                                      serial_opts);
    const engine::TraceRunResults a = serial_runner.run(sc.trace, sc.workload);

    engine::TraceRunnerOptions parallel_opts;
    parallel_opts.threads = 4;
    parallel_opts.window_events = 256;
    engine::TraceRunner parallel_runner(node_cfg, {3, 5, 5 * util::kHour},
                                        sim::kDefaultBandwidthBytesPerSecond,
                                        parallel_opts);
    const engine::TraceRunResults b =
        parallel_runner.run(sc.trace, sc.workload);

    EXPECT_EQ(a.deliveries, b.deliveries) << "s" << seed;
    EXPECT_EQ(a.expected_deliveries, b.expected_deliveries) << "s" << seed;
    EXPECT_EQ(a.delivery_ratio, b.delivery_ratio) << "s" << seed;
    EXPECT_EQ(a.mean_delay_minutes, b.mean_delay_minutes) << "s" << seed;
    EXPECT_EQ(a.contacts_processed, b.contacts_processed) << "s" << seed;
    EXPECT_EQ(a.frames_delivered, b.frames_delivered) << "s" << seed;
    EXPECT_EQ(a.frames_dropped, b.frames_dropped) << "s" << seed;
    EXPECT_EQ(a.bytes_used, b.bytes_used) << "s" << seed;
    EXPECT_EQ(parallel_runner.last_run_stats().threads_used, 4u);
    EXPECT_GT(parallel_runner.last_run_stats().batches, 0u);
  }
}

}  // namespace
}  // namespace bsub
