#include "routing/spray.h"

namespace bsub::routing {

void SprayProtocol::on_start(const sim::ScenarioInfo& scenario,
                             const workload::Workload& workload,
                             metrics::Collector& collector) {
  workload_ = &workload;
  collector_ = &collector;
  produced_.assign(scenario.node_count, {});
  relayed_.assign(scenario.node_count, {});
  produced_expiry_.assign(scenario.node_count, {});
}

void SprayProtocol::on_message_created(const workload::Message& msg,
                                       util::Time /*now*/) {
  produced_[msg.producer].emplace(
      msg.id, SourceMessage{sim::borrow_message(msg), copies_});
  ++collector_->hot_path().payload_copies_avoided;
  produced_expiry_[msg.producer].add(msg.expiry(), msg.id);
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
  for (auto it = produced_[producer].begin();
       it != produced_[producer].end();) {
    SourceMessage& sm = it->second;
    const workload::Message& msg = *sm.msg;
    // The delivered-guard (same as deliver()'s): a peer that already
    // received this message holds the payload — re-sending it would
    // double-charge forwardings/bytes and burn a spray copy that could
    // still reach an unserved node.
    if (sm.copies_left == 0 || relayed_[peer].contains(msg.id) ||
        msg.producer == peer || collector_->delivered(msg.id, peer)) {
      ++it;
      continue;
    }
    if (!link.try_send(msg.size_bytes)) break;
    collector_->record_forwarding(msg);
    relayed_[peer].add(sm.msg);  // share the producer's payload
    // A spray copy that lands on its consumer is also a delivery.
    if (workload_->is_interested(peer, msg.key)) {
      collector_->record_delivery(msg, peer, now, /*interested=*/true);
    }
    if (--sm.copies_left == 0) {
      it = produced_[producer].erase(it);
    } else {
      ++it;
    }
  }
}

void SprayProtocol::deliver(trace::NodeId holder, trace::NodeId consumer,
                            util::Time now, sim::Link& link) {
  // Producer-held messages deliver directly too (and do not spend copies).
  for (const auto& [id, sm] : produced_[holder]) {
    if (!workload_->is_interested(consumer, sm.msg->key) ||
        sm.msg->producer == consumer) {
      continue;
    }
    if (collector_->delivered(id, consumer)) continue;
    if (!link.try_send(sm.msg->size_bytes)) return;
    collector_->record_forwarding(*sm.msg);
    collector_->record_delivery(*sm.msg, consumer, now, /*interested=*/true);
  }
  for (const auto& [id, msg] : relayed_[holder]) {
    if (!workload_->is_interested(consumer, msg->key) ||
        msg->producer == consumer) {
      continue;
    }
    if (collector_->delivered(id, consumer)) continue;
    if (!link.try_send(msg->size_bytes)) return;
    collector_->record_forwarding(*msg);
    collector_->record_delivery(*msg, consumer, now, /*interested=*/true);
  }
}

void SprayProtocol::purge(trace::NodeId node, util::Time now) {
  auto& hp = collector_->hot_path();
  sim::ExpiryIndex& idx = produced_expiry_[node];
  if (!idx.due(now)) {
    ++hp.purge_scans_skipped;
  } else {
    ++hp.purge_scans_run;
    auto& buffer = produced_[node];
    idx.pop_due(now, [&](workload::MessageId id) {
      auto it = buffer.find(id);
      if (it != buffer.end() && it->second.msg->expired_at(now)) {
        buffer.erase(it);
      }
    });
  }
  relayed_[node].purge_expired(now);
}

void SprayProtocol::on_end(util::Time /*now*/) {
  auto& hp = collector_->hot_path();
  for (const sim::MessageStore& store : relayed_) {
    const sim::MessageStore::Stats& s = store.stats();
    hp.purge_scans_skipped += s.purges_skipped;
    hp.purge_scans_run += s.purges_scanned;
    hp.payload_copies_avoided += s.shared_adds;
  }
}

}  // namespace bsub::routing
