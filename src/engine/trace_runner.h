// Replays a contact trace + workload through the live frame-driven engine.
//
// This is the bridge between the two substrates: the same scenario that
// drives the strategy-object simulator (sim::Simulator + core::BsubProtocol)
// can be pushed through real BsubNodes exchanging encoded frames. Agreement
// between the two is a strong end-to-end correctness check — every filter
// crosses a codec boundary here.
//
// Differences vs the simulator model (kept deliberately):
//   - roles come from the same BrokerElection rules, evaluated inline;
//   - all transfers are real frames charged at wire size (the simulator
//     charges analytic sizes);
//   - messages carry real bodies of the workload's size.
//
// Like the simulator, the runner replays through the shared scenario replay
// (sim/event_stream.h), which can shard one trace across cores: a contact
// only touches its two endpoint BsubNodes (and their election state), so
// node-disjoint contacts commute. Subscriptions, message bodies and the
// node-major delivery log come from the workload binding
// (engine/workload_binding.h), and frame tallies are relaxed atomics, so
// serial and parallel runs return byte-identical TraceRunResults.
#pragma once

#include <string_view>

#include "core/broker_allocation.h"
#include "engine/network.h"
#include "engine/workload_binding.h"
#include "metrics/collector.h"
#include "sim/parallel_executor.h"
#include "trace/contact_stream.h"
#include "trace/trace.h"
#include "workload/workload.h"

namespace bsub::engine {

/// Execution knobs; semantics are identical for every setting (see the
/// determinism contract above).
struct TraceRunnerOptions {
  /// 0 = util::default_thread_count() (honors BSUB_THREADS), 1 = serial.
  std::size_t threads = 0;
  std::size_t window_events = 4096;
};

class TraceRunner {
 public:
  TraceRunner(NodeConfig node_config, core::BrokerElection::Config election,
              double bandwidth_bytes_per_second =
                  sim::kDefaultBandwidthBytesPerSecond,
              TraceRunnerOptions options = {})
      : node_config_(node_config), election_config_(election),
        bandwidth_(bandwidth_bytes_per_second), options_(options) {}

  /// Builds a runner from a B-SUB protocol spec via live_config_from_spec
  /// (which throws util::ConfigError for a non-B-SUB spec, a bad
  /// parameter, or adaptive=1).
  static TraceRunner from_protocol_spec(
      std::string_view protocol_spec,
      double bandwidth_bytes_per_second = sim::kDefaultBandwidthBytesPerSecond,
      TraceRunnerOptions options = {});

  /// Runs a streamed scenario; deterministic across thread counts and
  /// bit-identical to running the stream's materialization. Peak memory is
  /// O(node state + two executor windows). Consumes the stream from its
  /// current position. Throws util::ConfigError, before any node exists,
  /// when the workload's node count differs from the stream's.
  TraceRunResults run(trace::ContactStream& contacts,
                      const workload::Workload& workload);

  /// Materialized-scenario convenience: adapts the trace to a stream.
  TraceRunResults run(const trace::ContactTrace& trace,
                      const workload::Workload& workload) {
    trace::MaterializedStream stream(trace);
    return run(stream, workload);
  }

  /// Execution-shape stats of the most recent run().
  const sim::ParallelRunStats& last_run_stats() const {
    return last_run_stats_;
  }

 private:
  NodeConfig node_config_;
  core::BrokerElection::Config election_config_;
  double bandwidth_;
  TraceRunnerOptions options_;
  sim::ParallelRunStats last_run_stats_;
};

}  // namespace bsub::engine
