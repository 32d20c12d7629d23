// Serial engine::Network replay of a (trace, workload) scenario that keeps
// its Network for introspection — TraceRunner discards its Network at
// return. Same event merge as TraceRunner (a message created at or before a
// contact's start goes first), same election, per-node delivery log, so the
// delivery order is the canonical node-major one every substrate reports.
#pragma once

#include <cstddef>
#include <utility>

#include "core/broker_allocation.h"
#include "engine/network.h"
#include "trace/trace.h"
#include "workload/workload.h"

namespace bsub::testing {

class EngineReplay {
 public:
  EngineReplay(const trace::ContactTrace& trace,
               const workload::Workload& workload,
               engine::NodeConfig node_config,
               core::BrokerElection::Config election_config)
      : net_(node_config), election_(trace.node_count(), election_config) {
    net_.use_per_node_delivery_log(trace.node_count());
    for (trace::NodeId n = 0; n < trace.node_count(); ++n) {
      engine::BsubNode& node = net_.add_node(n);
      for (workload::KeyId k : workload.interests_of(n)) {
        node.subscribe(workload.keys().name(k));
      }
    }
    const auto& contacts = trace.contacts();
    const auto& messages = workload.messages();
    std::size_t ci = 0, mi = 0;
    while (ci < contacts.size() || mi < messages.size()) {
      const bool take_message =
          mi < messages.size() &&
          (ci >= contacts.size() ||
           messages[mi].created <= contacts[ci].start);
      if (take_message) {
        const workload::Message& m = messages[mi++];
        engine::ContentMessage cm;
        cm.id = m.id;
        cm.key = workload.keys().name(m.key);
        cm.body.assign(m.size_bytes, 0x5A);
        cm.created = m.created;
        cm.ttl = m.ttl;
        net_.node(m.producer).publish(std::move(cm), m.created);
        continue;
      }
      const trace::Contact& c = contacts[ci++];
      election_.on_contact(c.a, c.b, c.start);
      net_.node(c.a).set_broker(election_.is_broker(c.a));
      net_.node(c.b).set_broker(election_.is_broker(c.b));
      net_.contact(c.a, c.b, c.start, c.duration());
    }
  }

  engine::Network& net() { return net_; }

 private:
  engine::Network net_;
  core::BrokerElection election_;
};

}  // namespace bsub::testing
