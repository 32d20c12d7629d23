// PUSH baseline (paper section VII-A): epidemic flooding.
//
// A node replicates every message it stores to every encountered node that
// does not yet have a copy, subject to the contact's byte budget. PUSH is
// the delivery-ratio/delay upper bound and the overhead worst case.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/expiry_index.h"
#include "sim/protocol.h"
#include "util/id_set.h"

namespace bsub::routing {

class PushProtocol final : public sim::Protocol {
 public:
  using sim::Protocol::on_start;
  void on_start(const sim::ScenarioInfo& scenario,
                const workload::Workload& workload,
                metrics::Collector& collector) override;
  void on_message_created(const workload::Message& msg,
                          util::Time now) override;
  void on_contact(trace::NodeId a, trace::NodeId b, util::Time now,
                  util::Time duration, sim::Link& link) override;
  const char* name() const override { return "PUSH"; }
  /// All run state lives in per-node vectors; collector tallies commute.
  bool parallel_contacts_safe() const override { return true; }

 private:
  void transfer(trace::NodeId from, trace::NodeId to, util::Time now,
                sim::Link& link);
  void purge(trace::NodeId node, util::Time now);

  const workload::Workload* workload_ = nullptr;
  metrics::Collector* collector_ = nullptr;
  // buffers_[n]: ids of live messages held by n, in acquisition order.
  std::vector<std::vector<workload::MessageId>> buffers_;
  // seen_[n]: ids n has (or had) a copy of; prevents re-replication. A node
  // that never receives a copy allocates nothing; one that does holds bits
  // up to the highest id it has seen.
  std::vector<util::DenseIdSet> seen_;
  // expiry_[n]: earliest-expiry gate over buffers_[n]; a purge scans only
  // when some held copy could actually have expired, so contacts with
  // nothing expired cost O(1).
  std::vector<sim::ExpiryIndex> expiry_;
};

}  // namespace bsub::routing
