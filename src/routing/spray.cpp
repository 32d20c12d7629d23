#include "routing/spray.h"

namespace bsub::routing {

void SprayProtocol::on_start(const sim::ScenarioInfo& scenario,
                             const workload::Workload& workload,
                             metrics::Collector& collector) {
  workload_ = &workload;
  collector_ = &collector;
  sources_.assign(scenario.node_count, {});
  relayed_.assign(scenario.node_count, {});
}

void SprayProtocol::on_message_created(const workload::Message& msg,
                                       util::Time /*now*/) {
  sources_[msg.producer].add(msg, copies_);
  ++collector_->hot_path().payload_copies_avoided;
}

void SprayProtocol::on_contact(trace::NodeId a, trace::NodeId b,
                               util::Time now, util::Time /*duration*/,
                               sim::Link& link) {
  purge(a, now);
  purge(b, now);
  // Deliveries first (they satisfy consumers directly), then sprays.
  deliver(a, b, now, link);
  deliver(b, a, now, link);
  spray(a, b, now, link);
  spray(b, a, now, link);
}

void SprayProtocol::spray(trace::NodeId producer, trace::NodeId peer,
                          util::Time now, sim::Link& link) {
  sim::KeyedBuffer& sources = sources_[producer];
  if (sources.size == 0) return;
  // Spraying ignores interests: every bucket, merged by id. A source whose
  // copy budget runs out leaves after the walk, which holds spans into the
  // buckets.
  thread_local std::vector<sim::Run> runs;
  thread_local std::vector<const workload::Message*> exhausted;
  runs.clear();
  exhausted.clear();
  for (sim::KeyedBuffer::Bucket& bucket : sources.buckets) {
    if (!bucket.entries.empty()) runs.emplace_back(bucket.entries);
  }
  sim::KeyedBuffer& held = relayed_[peer];
  std::uint64_t visited = 0;
  std::uint64_t sprayed = 0;
  sim::visit_in_id_order(runs, visited, [&](sim::KeyedBuffer::Entry& e) {
    const workload::Message& msg = *e.msg;
    // The delivered-guard (same as deliver()'s): a peer that already
    // received this message holds the payload — re-sending it would
    // double-charge forwardings/bytes and burn a spray copy that could
    // still reach an unserved node.
    if (e.copies_left == 0 || held.contains(msg.key, msg.id) ||
        msg.producer == peer || collector_->delivered(msg.id, peer)) {
      return true;
    }
    if (!link.try_send(msg.size_bytes)) return false;
    collector_->record_forwarding(msg);
    held.add(msg, 0);  // share the producer's payload
    ++sprayed;
    // A spray copy that lands on its consumer is also a delivery.
    if (workload_->is_interested(peer, msg.key)) {
      collector_->record_delivery(msg, peer, now, /*interested=*/true);
    }
    if (--e.copies_left == 0) exhausted.push_back(&msg);
    return true;
  });
  for (const workload::Message* msg : exhausted) {
    sources.erase(msg->key, msg->id);
  }
  auto& hp = collector_->hot_path();
  hp.buffer_entries_visited += visited;
  if (sprayed > 0) hp.payload_copies_avoided += sprayed;
}

void SprayProtocol::deliver(trace::NodeId holder, trace::NodeId consumer,
                            util::Time now, sim::Link& link) {
  // Only the buckets of the consumer's interest keys are offered, merged
  // by id: first the holder's own messages (direct delivery spends no
  // copy), then its sprayed copies. A full link ends the contact's
  // deliveries.
  thread_local std::vector<sim::Run> runs;
  const std::span<const workload::KeyId> keys =
      workload_->interests_of(consumer);
  std::uint64_t visited = 0;
  auto offer = [&](sim::KeyedBuffer::Entry& e) {
    const workload::Message& msg = *e.msg;
    if (msg.producer == consumer) return true;
    if (collector_->delivered(e.id, consumer)) return true;
    if (!link.try_send(msg.size_bytes)) return false;
    collector_->record_forwarding(msg);
    collector_->record_delivery(msg, consumer, now, /*interested=*/true);
    return true;
  };
  for (sim::KeyedBuffer* buffer : {&sources_[holder], &relayed_[holder]}) {
    runs.clear();
    sim::select_keys(*buffer, keys, runs);
    if (!sim::visit_in_id_order(runs, visited, offer)) break;
  }
  if (visited > 0) collector_->hot_path().buffer_entries_visited += visited;
}

void SprayProtocol::purge(trace::NodeId node, util::Time now) {
  auto& hp = collector_->hot_path();
  sources_[node].purge(now, workload_->messages(), hp);
  relayed_[node].purge(now, workload_->messages(), hp);
}

}  // namespace bsub::routing
