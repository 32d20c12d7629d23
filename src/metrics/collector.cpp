#include "metrics/collector.h"

#include <algorithm>

namespace bsub::metrics {

void Collector::set_expected(std::uint64_t messages_created,
                             std::uint64_t expected_deliveries) {
  messages_created_ = messages_created;
  expected_deliveries_ = expected_deliveries;
}

void Collector::reserve_nodes(std::size_t node_count) {
  if (logs_.size() < node_count) logs_.resize(node_count);
}

Collector::NodeLog& Collector::node_log(trace::NodeId node) {
  // Serial-only growth: concurrent runs must have called reserve_nodes()
  // first, so this branch never fires while workers hold NodeLog pointers.
  if (node >= logs_.size()) logs_.resize(node + 1);
  auto& log = logs_[node];
  if (log == nullptr) log = std::make_unique<NodeLog>();
  return *log;
}

void Collector::record_forwarding(const workload::Message& msg) {
  ++forwardings_;
  message_bytes_ += msg.size_bytes;
}

void Collector::record_delivery(const workload::Message& msg,
                                trace::NodeId node, util::Time now,
                                bool interested, bool falsely_injected) {
  NodeLog& log = node_log(node);
  if (!log.delivered.insert(msg.id)) return;
  if (interested) {
    ++log.interested;
    log.delay_minutes.push_back(util::to_minutes(now - msg.created));
  }
  if (!interested || falsely_injected) ++log.false_deliveries;
}

bool Collector::delivered(workload::MessageId id, trace::NodeId node) const {
  if (node >= logs_.size()) return false;
  const NodeLog* log = logs_[node].get();
  return log != nullptr && log->delivered.contains(id);
}

RunResults Collector::results() const {
  RunResults r;
  r.messages_created = messages_created_;
  r.expected_deliveries = expected_deliveries_;
  r.forwardings = forwardings_.load();
  r.message_bytes = message_bytes_.load();
  r.control_bytes = control_bytes_.load();

  // Canonical reduce: node-id order, each node's samples in its own trace
  // order. Serial and parallel runs feed identical per-node logs, so the
  // floating-point sums below associate identically — bit-equal results.
  std::uint64_t total_delivered = 0;
  util::PercentileTracker delays;
  for (const auto& log : logs_) {
    if (log == nullptr) continue;  // no deliveries: contributes nothing
    total_delivered += log->delivered.size();
    r.interested_deliveries += log->interested;
    r.false_deliveries += log->false_deliveries;
    for (double d : log->delay_minutes) delays.add(d);
  }

  if (expected_deliveries_ > 0) {
    r.delivery_ratio = static_cast<double>(r.interested_deliveries) /
                       static_cast<double>(expected_deliveries_);
  }
  if (!delays.empty()) {
    r.mean_delay_minutes = delays.mean();
    r.median_delay_minutes = delays.median();
    r.max_delay_minutes = delays.percentile(100.0);
  }
  if (total_delivered > 0) {
    r.forwardings_per_delivery = static_cast<double>(r.forwardings) /
                                 static_cast<double>(total_delivered);
    r.false_positive_rate = static_cast<double>(r.false_deliveries) /
                            static_cast<double>(total_delivered);
  }
  r.hot_path = hot_path_.snapshot();
  return r;
}

}  // namespace bsub::metrics
