// The workload side of a scenario replay, shared by every engine substrate:
// engine::TraceRunner, the fleet's loopback and UDP engines
// (net/fleet/fleet_runtime.h) and the tests' serial EngineReplay. It fixes
//   - which keys a node subscribes to: its workload interests;
//   - what a workload message looks like on the wire: its id, key name, a
//     body of size_bytes filler bytes, a creation time and its TTL;
//   - how deliveries are logged and summarized: one log per node, read in
//     node-major order, so the mean-delay float sum is the same for every
//     execution schedule.
// Each of these is written once, so the substrates the differential tests
// compare cannot drift apart on them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "engine/node.h"
#include "engine/wire.h"
#include "trace/contact.h"
#include "util/time.h"
#include "workload/workload.h"

namespace bsub::engine {

/// One completed consumer delivery.
struct DeliveryRecord {
  NodeId consumer = 0;
  std::uint64_t message_id = 0;
  std::string key;
  util::Time at = 0;
};

/// What an engine substrate reports for one scenario replay.
struct TraceRunResults {
  std::uint64_t deliveries = 0;          ///< unique (message, consumer)
  std::uint64_t expected_deliveries = 0;
  double delivery_ratio = 0.0;
  double mean_delay_minutes = 0.0;
  std::uint64_t contacts_processed = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t frames_dropped = 0;
  std::uint64_t bytes_used = 0;
};

/// Subscribes `node`, scenario node `n`, to n's workload interests.
void subscribe_interests(BsubNode& node, const workload::Workload& workload,
                         trace::NodeId n);

/// The wire form of workload message `m`. `created` is its publish instant:
/// the message's own creation time in trace-time replays, the reactor's
/// clock in real-time runs.
ContentMessage content_message(const workload::Workload& workload,
                               const workload::Message& m,
                               util::Time created);

/// Per-node delivery logs over the scenario's dense node ids. A node's log
/// is written only during that node's own events, so node-disjoint
/// contacts running concurrently never share one.
class DeliveryLog {
 public:
  DeliveryLog() = default;
  explicit DeliveryLog(std::size_t node_count) : logs_(node_count) {}

  /// Routes `node`'s consumer deliveries into log `n`, replacing the node's
  /// delivery handler.
  void attach(BsubNode& node, NodeId n);

  /// Every delivery, node-major (then per-node arrival order).
  std::vector<DeliveryRecord> records() const;

  /// Fills deliveries, expected_deliveries, delivery_ratio and
  /// mean_delay_minutes; each delay is measured from the message's
  /// workload creation time, summed in node-major order.
  void summarize(const workload::Workload& workload,
                 TraceRunResults& out) const;

 private:
  std::vector<std::vector<DeliveryRecord>> logs_;
};

}  // namespace bsub::engine
