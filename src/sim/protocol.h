// Protocol strategy interface for the trace-driven simulator.
//
// A protocol owns all per-node state (buffers, filters, roles) and reacts to
// the two event kinds the simulator replays: message creation at a producer
// and pairwise contacts. Every transmission must pass through the contact's
// Link so that the byte budget is honored, and deliveries/forwardings must
// be reported to the metrics Collector.
#pragma once

#include "metrics/collector.h"
#include "sim/link.h"
#include "trace/contact.h"
#include "trace/trace.h"
#include "util/time.h"
#include "workload/workload.h"

namespace bsub::sim {

/// Static facts about the scenario, known before replay. This is all a
/// protocol may assume up front: streamed scenarios never materialize a
/// ContactTrace, so per-node state is sized from here.
struct ScenarioInfo {
  std::size_t node_count = 0;
};

class Protocol {
 public:
  virtual ~Protocol() = default;

  /// Called once before replay with the scenario's static facts.
  virtual void on_start(const ScenarioInfo& scenario,
                        const workload::Workload& workload,
                        metrics::Collector& collector) = 0;

  /// Convenience for materialized scenarios (tests, small experiments).
  /// Derived classes that override the ScenarioInfo form should pull this
  /// in with `using sim::Protocol::on_start;`.
  void on_start(const trace::ContactTrace& trace,
                const workload::Workload& workload,
                metrics::Collector& collector) {
    on_start(ScenarioInfo{trace.node_count()}, workload, collector);
  }

  /// A producer created a message at `now` (== msg.created).
  virtual void on_message_created(const workload::Message& msg,
                                  util::Time now) = 0;

  /// Nodes `a` and `b` are in contact during [now, now + link budget's
  /// duration). All transfers go through `link`.
  virtual void on_contact(trace::NodeId a, trace::NodeId b, util::Time now,
                          util::Time duration, Link& link) = 0;

  /// Called once after the last event.
  virtual void on_end(util::Time /*now*/) {}

  /// Opt-in to the parallel executor: return true iff
  /// concurrent on_contact/on_message_created calls for *node-disjoint*
  /// events are safe — all mutable state is per-node, and any global
  /// tallies are commutative (relaxed atomics) or reduced canonically.
  /// Defaults to false so external Protocol subclasses (e.g. test doubles
  /// that log a global event order) keep the serial path untouched.
  virtual bool parallel_contacts_safe() const { return false; }

  /// Human-readable protocol name for reports.
  virtual const char* name() const = 0;
};

}  // namespace bsub::sim
