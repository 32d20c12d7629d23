// Fleet runtime: thousands of live B-SUB nodes per reactor thread.
//
// The fleet runtime drives NodeRuntimes (net/node_runtime.h) from any
// trace::ContactStream on two engines:
//
//   run_loopback()  deterministic virtual time, sharded across reactor
//                   threads. Events run through the shared scenario replay
//                   (sim/event_stream.h) that the simulator and
//                   engine::TraceRunner use: node-disjoint contacts commute,
//                   so each worker thread owns a *lane* — a ManualClock +
//                   Reactor + LoopbackHub — and replays its contacts as
//                   independent virtual-time episodes (clock reset +
//                   reactor rebase per contact). NodeRuntimes carry the
//                   persistent per-node state between lanes. For
//                   decay_tick = 0, which this engine requires, results are
//                   bit-identical to engine::TraceRunner across any thread
//                   count; threads = 1 is the single-lane loopback replay.
//
//   run_udp()       real time over the fleet UDP plane
//                   (net/fleet/fleet_udp.h): nodes are sharded
//                   node-disjoint across reactor threads (home shard =
//                   node % shards), each shard multiplexes its nodes over
//                   one socket and batches its sends and receives.
//                   A driver thread replays the scenario as fast as an
//                   in-flight window allows, posting contact/role/publish
//                   commands to the owning shard over a wake pipe; each
//                   contact closes when its session goes idle and is
//                   aborted at a hard timeout. Real-time runs measure
//                   throughput and delivery latency; they are NOT
//                   bit-comparable to the virtual-time engines (real
//                   clocks, best-effort datagrams, no byte budgets).
//
// Both engines take subscriptions and message bodies from the workload
// binding (engine/workload_binding.h), and both reject, before any node or
// socket exists, a workload whose node count differs from the stream's.
//
// A FleetRuntime instance is single-run: construct, call run_loopback() or
// run_udp() once, then inspect node()/deliveries().
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "core/broker_allocation.h"
#include "engine/trace_runner.h"
#include "engine/workload_binding.h"
#include "metrics/collector.h"
#include "net/fleet/fleet_udp.h"
#include "net/node_runtime.h"
#include "net/reactor.h"
#include "sim/event_stream.h"
#include "sim/parallel_executor.h"
#include "trace/contact_stream.h"
#include "trace/trace.h"
#include "workload/workload.h"

namespace bsub::net {

struct FleetConfig {
  RuntimeConfig runtime;
  core::BrokerElection::Config election{3, 5, 5 * util::kHour};
  double bandwidth_bytes_per_second = sim::kDefaultBandwidthBytesPerSecond;

  // --- run_loopback() knobs (same semantics as TraceRunnerOptions) ---
  /// 0 = util::default_thread_count() (honors BSUB_THREADS), 1 = serial.
  std::size_t threads = 0;
  std::size_t window_events = 4096;
  std::size_t min_batch_fanout = 4;

  // --- run_udp() knobs ---
  /// Reactor threads, one socket each. Nodes home at node % shards.
  std::size_t shards = 1;
  FleetUdpConfig udp;
  /// Driver-side throttle: contacts issued but not yet completed.
  std::size_t max_inflight_contacts = 128;
  /// A contact still alive this long after connect is aborted (lost peer).
  util::Time contact_timeout = 2 * util::kSecond;
  /// How often a live contact is polled for "session idle -> close".
  util::Time idle_check_period = 2 * util::kMillisecond;
};

/// Builds a FleetConfig from a B-SUB protocol spec via
/// engine::live_config_from_spec (the mapping TraceRunner::from_protocol_spec
/// uses too). All non-protocol fields are taken from `base`. Throws
/// util::ConfigError for a non-B-SUB spec or adaptive=1.
FleetConfig fleet_config_from_spec(std::string_view protocol_spec,
                                   FleetConfig base = {});

struct FleetRunResults {
  /// Same semantic fields as the other substrates. For run_udp(),
  /// bytes_used stays 0 (real contacts have no byte budget) and
  /// mean_delay_minutes is derived from real delivery latencies.
  engine::TraceRunResults protocol;
  metrics::TransportStats transport;
  /// Execution shape (run_loopback() only).
  sim::ParallelRunStats exec;

  std::size_t nodes = 0;
  std::size_t reactor_threads = 0;

  // --- real-time measurements (run_udp(); wall_seconds also set by
  // run_loopback() for throughput comparisons) ---
  double wall_seconds = 0.0;
  double contacts_per_second = 0.0;
  double deliveries_per_second = 0.0;
  double p50_delivery_latency_ms = 0.0;
  double p99_delivery_latency_ms = 0.0;
  std::uint64_t contacts_timed_out = 0;

  // Syscall shape, summed over shards (run_udp()).
  std::uint64_t send_syscalls = 0;
  std::uint64_t recv_syscalls = 0;
  std::uint64_t datagrams_out = 0;
  std::uint64_t datagrams_in = 0;
  std::uint64_t sendq_drops = 0;
  std::uint64_t unroutable_drops = 0;
};

class FleetRuntime {
 public:
  explicit FleetRuntime(FleetConfig config = {});
  ~FleetRuntime();

  FleetRuntime(const FleetRuntime&) = delete;
  FleetRuntime& operator=(const FleetRuntime&) = delete;

  /// Deterministic multi-threaded loopback replay. Requires
  /// runtime.decay_tick == 0 (lanes have no timeline between contacts) and
  /// a workload over the stream's nodes; throws util::ConfigError
  /// otherwise.
  FleetRunResults run_loopback(trace::ContactStream& contacts,
                               const workload::Workload& workload);

  /// Real-time replay over the fleet UDP plane. Shard s binds
  /// udp.base_port + s; throws util::ConfigError, before any socket binds,
  /// when base_port is 0, the last shard's port would pass 65535, or the
  /// workload's node count differs from the stream's.
  FleetRunResults run_udp(trace::ContactStream& contacts,
                          const workload::Workload& workload);

  /// Materialized-scenario conveniences.
  FleetRunResults run_loopback(const trace::ContactTrace& trace,
                               const workload::Workload& workload) {
    trace::MaterializedStream stream(trace);
    return run_loopback(stream, workload);
  }
  FleetRunResults run_udp(const trace::ContactTrace& trace,
                          const workload::Workload& workload) {
    trace::MaterializedStream stream(trace);
    return run_udp(stream, workload);
  }

  /// Valid after a run.
  const engine::BsubNode& node(trace::NodeId id) const;
  /// All consumer deliveries, node-major — the canonical order shared with
  /// TraceRunner. Populated by run_loopback();
  /// empty after run_udp() (real-time runs only count and sample).
  std::vector<engine::DeliveryRecord> deliveries() const {
    return deliveries_.records();
  }

 private:
  struct Lane;
  struct Shard;
  struct Command;

  void require_unused();
  void make_nodes(std::size_t node_count, const workload::Workload& workload);

  // --- loopback engine ---
  Lane& lane_for_thread();
  void exec_loopback_event(const sim::ScenarioEvent& event,
                           const workload::Workload& workload);
  void exec_loopback_contact(Lane& lane, const trace::Contact& c);
  void pump_lane(Lane& lane, NodeRuntime& a, NodeRuntime& b, util::Time cap);

  // --- udp engine ---
  static std::uint64_t contact_key(std::uint32_t a, std::uint32_t b) {
    return (static_cast<std::uint64_t>(a) << 32) | b;
  }
  std::size_t shard_of(std::uint32_t node) const {
    return node % config_.shards;
  }
  void post(Shard& shard, const Command& cmd);
  void drain_inbox(Shard& shard);
  void exec_command(Shard& shard, const Command& cmd,
                    const workload::Workload& workload);
  void arm_idle_check(Shard& shard, std::uint32_t a, std::uint32_t b);
  void complete_contact(Shard& shard, std::uint64_t key);

  FleetConfig config_;
  metrics::TransportCounters counters_;

  std::unique_ptr<core::BrokerElection> election_;
  engine::DeliveryLog deliveries_;  ///< run_loopback() only
  std::atomic<std::uint64_t> contacts_processed_{0};
  std::atomic<std::uint64_t> bytes_used_{0};

  // Loopback lanes, created on demand (one per executing thread).
  std::mutex lanes_mu_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::uint64_t run_token_ = 0;

  // UDP shards and real-time bookkeeping.
  std::vector<std::unique_ptr<Shard>> shards_;
  const workload::Workload* workload_ = nullptr;
  /// Publish instant per workload message id (-1 until published).
  std::unique_ptr<std::atomic<std::int64_t>[]> publish_ms_;
  std::atomic<std::uint64_t> issued_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> timed_out_{0};
  std::atomic<std::uint64_t> live_deliveries_{0};

  bool ran_ = false;
  /// Declared last: NodeRuntime teardown (unbind) may touch lanes/shards.
  std::vector<std::unique_ptr<NodeRuntime>> nodes_;
};

}  // namespace bsub::net
