#include "routing/pull.h"

#include <cassert>

namespace bsub::routing {

std::size_t pull_announce_wire_size(const workload::Workload& workload,
                                    trace::NodeId consumer) {
  std::size_t bytes = 0;
  for (workload::KeyId k : workload.interests_of(consumer)) {
    bytes += workload.keys().name(k).size();
  }
  return bytes;
}

void PullProtocol::on_start(const sim::ScenarioInfo& scenario,
                            const workload::Workload& workload,
                            metrics::Collector& collector) {
  workload_ = &workload;
  collector_ = &collector;
  produced_.assign(scenario.node_count, {});
  // Interests are set here and never change during a run; a mid-run
  // interest change would have to come back through on_start, which
  // re-invalidates every cached announce size.
  announce_bytes_.assign(scenario.node_count, kAnnounceUnknown);
}

void PullProtocol::on_message_created(const workload::Message& msg,
                                      util::Time /*now*/) {
  // The simulator hands a reference into the workload's stable message
  // table; producers borrow it instead of copying.
  produced_[msg.producer].add(msg, 0);
  ++collector_->hot_path().payload_copies_avoided;
}

void PullProtocol::on_contact(trace::NodeId a, trace::NodeId b, util::Time now,
                              util::Time /*duration*/, sim::Link& link) {
  auto& hp = collector_->hot_path();
  produced_[a].purge(now, workload_->messages(), hp);
  produced_[b].purge(now, workload_->messages(), hp);
  pull(a, b, now, link);
  pull(b, a, now, link);
}

void PullProtocol::pull(trace::NodeId consumer, trace::NodeId producer,
                        util::Time now, sim::Link& link) {
  // The consumer announces its interests: raw key strings. The size is a
  // pure function of the consumer's (static) interest set, so it is
  // computed once per consumer, not once per contact.
  std::uint32_t& announce_bytes = announce_bytes_[consumer];
  auto& hp = collector_->hot_path();
  if (announce_bytes == kAnnounceUnknown) {
    announce_bytes = static_cast<std::uint32_t>(
        pull_announce_wire_size(*workload_, consumer));
    ++hp.encode_cache_misses;
  } else {
    ++hp.encode_cache_hits;
  }
  assert(announce_bytes == pull_announce_wire_size(*workload_, consumer) &&
         "cached announce size diverged from the wire-size formula");
  if (!link.try_send(announce_bytes)) return;
  collector_->record_control_bytes(announce_bytes);

  // Only the buckets of the consumer's interest keys are offered; merged
  // by id, they go out in creation order.
  thread_local std::vector<sim::Run> runs;
  runs.clear();
  sim::select_keys(produced_[producer], workload_->interests_of(consumer),
                   runs);
  std::uint64_t visited = 0;
  sim::visit_in_id_order(runs, visited, [&](sim::KeyedBuffer::Entry& e) {
    if (collector_->delivered(e.id, consumer)) return true;
    if (!link.try_send(e.msg->size_bytes)) return false;
    collector_->record_forwarding(*e.msg);
    collector_->record_delivery(*e.msg, consumer, now, /*interested=*/true);
    return true;
  });
  if (visited > 0) hp.buffer_entries_visited += visited;
}

}  // namespace bsub::routing
