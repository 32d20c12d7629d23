#include "routing/push.h"

#include <algorithm>

namespace bsub::routing {

void PushProtocol::on_start(const sim::ScenarioInfo& scenario,
                            const workload::Workload& workload,
                            metrics::Collector& collector) {
  workload_ = &workload;
  collector_ = &collector;
  buffers_.assign(scenario.node_count, {});
  seen_.assign(scenario.node_count, nullptr);
  seen_words_ = (workload.messages().size() + 63) / 64;
  expiry_.assign(scenario.node_count, {});
}

void PushProtocol::mark_seen(trace::NodeId node, workload::MessageId id) {
  std::uint64_t* bits = seen_[node];
  if (bits == nullptr) {
    bits = seen_pool_.acquire_array<std::uint64_t>(seen_words_);
    std::fill(bits, bits + seen_words_, 0);
    seen_[node] = bits;
  }
  bits[id >> 6] |= std::uint64_t{1} << (id & 63);
}

void PushProtocol::on_message_created(const workload::Message& msg,
                                      util::Time /*now*/) {
  buffers_[msg.producer].push_back(msg.id);
  mark_seen(msg.producer, msg.id);
  expiry_[msg.producer].add(msg.expiry(), msg.id);
}

void PushProtocol::on_contact(trace::NodeId a, trace::NodeId b, util::Time now,
                              util::Time /*duration*/, sim::Link& link) {
  purge(a, now);
  purge(b, now);
  transfer(a, b, now, link);
  transfer(b, a, now, link);
}

void PushProtocol::transfer(trace::NodeId from, trace::NodeId to,
                            util::Time now, sim::Link& link) {
  const auto& messages = workload_->messages();
  for (workload::MessageId id : buffers_[from]) {
    if (seen(to, id)) continue;
    const workload::Message& msg = messages[id];
    if (!link.try_send(msg.size_bytes)) break;
    collector_->record_forwarding(msg);
    mark_seen(to, id);
    buffers_[to].push_back(id);
    expiry_[to].add(msg.expiry(), id);
    if (workload_->is_interested(to, msg.key)) {
      collector_->record_delivery(msg, to, now, /*interested=*/true);
    }
  }
}

void PushProtocol::purge(trace::NodeId node, util::Time now) {
  // Expired copies can only exist once the earliest registered expiry is
  // due; otherwise the scan is provably a no-op and is skipped.
  if (!expiry_[node].due(now)) {
    ++collector_->hot_path().purge_scans_skipped;
    return;
  }
  ++collector_->hot_path().purge_scans_run;
  expiry_[node].drop_due(now);
  const auto& messages = workload_->messages();
  std::erase_if(buffers_[node], [&](workload::MessageId id) {
    return messages[id].expired_at(now);
  });
}

}  // namespace bsub::routing
