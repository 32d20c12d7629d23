// Trace-driven DTN simulator (paper section VII's evaluation substrate).
//
// Replays a contact scenario against a materialized workload:
// message-creation events and contact events are merged in time order and
// dispatched to the protocol under test. Scenarios arrive either as a
// pull-based trace::ContactStream — the city-scale path, which never holds
// more than one scheduling window of events in memory — or as a
// materialized ContactTrace (a thin stream adapter over it).
//
// Deterministic: same scenario + workload + protocol state gives identical
// results — including across thread counts and across streamed vs.
// materialized input (the stream ordering contract makes both spell out the
// same event sequence). Events run through the shared scenario replay
// (event_stream.h). When the protocol opts in via
// Protocol::parallel_contacts_safe(), the windowed conflict-batch executor
// (parallel_executor.h) runs node-disjoint events concurrently while
// preserving every node's serial event order, so BSUB_THREADS=1 and
// N-thread runs produce byte-identical RunResults; otherwise the replay
// runs on one thread.
#pragma once

#include "metrics/collector.h"
#include "sim/link.h"
#include "sim/parallel_executor.h"
#include "sim/protocol.h"
#include "sim/protocol_registry.h"
#include "trace/contact_stream.h"
#include "trace/trace.h"
#include "workload/workload.h"

namespace bsub::sim {

struct SimulatorConfig {
  double bandwidth_bytes_per_second = kDefaultBandwidthBytesPerSecond;
  /// Worker threads for the contact loop: 0 = util::default_thread_count()
  /// (honors BSUB_THREADS), 1 = serial. Only takes effect when the protocol
  /// reports parallel_contacts_safe().
  std::size_t threads = 0;
  /// Events per conflict-scheduling window (see ParallelRunConfig).
  std::size_t window_events = 4096;
  /// Inline-vs-fanout threshold per batch (see ParallelRunConfig).
  std::size_t min_batch_fanout = 4;
};

class Simulator {
 public:
  explicit Simulator(SimulatorConfig config = {}) : config_(config) {}

  /// Runs `protocol` over a streamed scenario and returns the collected
  /// metrics. Peak memory is O(node state + one scheduling window); the
  /// contact count never materializes. Consumes the stream from its
  /// current position (callers reuse a stream by reset()). Throws
  /// util::ConfigError, before the protocol starts, when the workload's
  /// node count differs from the stream's.
  metrics::RunResults run(trace::ContactStream& contacts,
                          const workload::Workload& workload,
                          Protocol& protocol);

  /// Materialized-scenario convenience: adapts the trace to a stream.
  metrics::RunResults run(const trace::ContactTrace& trace,
                          const workload::Workload& workload,
                          Protocol& protocol) {
    trace::MaterializedStream stream(trace);
    return run(stream, workload, protocol);
  }

  /// Spec-driven runs: resolves `protocol_spec` against `registry` (throws
  /// util::ConfigError for an unknown name or bad parameter) and runs the
  /// freshly constructed protocol. The registry is a parameter — not a
  /// global — so the simulator stays a pure mechanism; callers use
  /// core::make_protocol_registry() for the full table.
  metrics::RunResults run(trace::ContactStream& contacts,
                          const workload::Workload& workload,
                          const ProtocolRegistry& registry,
                          std::string_view protocol_spec) {
    std::unique_ptr<Protocol> protocol = registry.make(protocol_spec);
    return run(contacts, workload, *protocol);
  }
  metrics::RunResults run(const trace::ContactTrace& trace,
                          const workload::Workload& workload,
                          const ProtocolRegistry& registry,
                          std::string_view protocol_spec) {
    trace::MaterializedStream stream(trace);
    return run(stream, workload, registry, protocol_spec);
  }

  /// Execution-shape stats of the most recent run() (windows, batches,
  /// batch-size histogram). Serial runs report threads_used == 1 and no
  /// batches.
  const ParallelRunStats& last_run_stats() const { return last_run_stats_; }

 private:
  SimulatorConfig config_;
  ParallelRunStats last_run_stats_;
};

}  // namespace bsub::sim
