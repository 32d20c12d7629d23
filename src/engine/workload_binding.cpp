#include "engine/workload_binding.h"

namespace bsub::engine {

void subscribe_interests(BsubNode& node, const workload::Workload& workload,
                         trace::NodeId n) {
  for (workload::KeyId k : workload.interests_of(n)) {
    node.subscribe(workload.keys().name(k));
  }
}

ContentMessage content_message(const workload::Workload& workload,
                               const workload::Message& m,
                               util::Time created) {
  ContentMessage cm;
  cm.id = m.id;
  cm.key = workload.keys().name(m.key);
  cm.body.assign(m.size_bytes, 0x5A);
  cm.created = created;
  cm.ttl = m.ttl;
  return cm;
}

void DeliveryLog::attach(BsubNode& node, NodeId n) {
  // The vector's element, not `this`: a log moved after attach keeps its
  // per-node buffers in place.
  std::vector<DeliveryRecord>* log = &logs_[n];
  node.set_delivery_handler(
      [log, n](const ContentMessage& msg, util::Time at) {
        log->push_back(DeliveryRecord{n, msg.id, msg.key, at});
      });
}

std::vector<DeliveryRecord> DeliveryLog::records() const {
  std::vector<DeliveryRecord> out;
  for (const auto& log : logs_) out.insert(out.end(), log.begin(), log.end());
  return out;
}

void DeliveryLog::summarize(const workload::Workload& workload,
                            TraceRunResults& out) const {
  const std::vector<workload::Message>& messages = workload.messages();
  std::uint64_t deliveries = 0;
  double delay_sum = 0.0;
  for (const auto& log : logs_) {
    for (const DeliveryRecord& d : log) {
      // Workload ids are dense (messages()[i].id == i).
      delay_sum += util::to_minutes(d.at - messages[d.message_id].created);
    }
    deliveries += log.size();
  }
  out.deliveries = deliveries;
  out.expected_deliveries = workload.expected_deliveries();
  if (out.expected_deliveries > 0) {
    out.delivery_ratio = static_cast<double>(out.deliveries) /
                         static_cast<double>(out.expected_deliveries);
  }
  if (out.deliveries > 0) {
    out.mean_delay_minutes =
        delay_sum / static_cast<double>(out.deliveries);
  }
}

}  // namespace bsub::engine
