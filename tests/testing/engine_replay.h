// Serial engine::Network replay of a (trace, workload) scenario that keeps
// its Network for introspection — TraceRunner discards its Network at
// return. Its merge loop is written out here on purpose: an independent
// statement of the tie rule (a message created at or before a contact's
// start goes first) next to sim::ScenarioEventStream. Subscriptions,
// message bodies and the node-major delivery log come from the workload
// binding every substrate shares.
#pragma once

#include <cstddef>
#include <vector>

#include "core/broker_allocation.h"
#include "engine/network.h"
#include "engine/workload_binding.h"
#include "trace/trace.h"
#include "workload/workload.h"

namespace bsub::testing {

class EngineReplay {
 public:
  EngineReplay(const trace::ContactTrace& trace,
               const workload::Workload& workload,
               engine::NodeConfig node_config,
               core::BrokerElection::Config election_config)
      : net_(node_config), election_(trace.node_count(), election_config),
        deliveries_(trace.node_count()) {
    for (trace::NodeId n = 0; n < trace.node_count(); ++n) {
      engine::BsubNode& node = net_.add_node(n);
      engine::subscribe_interests(node, workload, n);
      deliveries_.attach(node, n);
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
        net_.node(m.producer)
            .publish(engine::content_message(workload, m, m.created),
                     m.created);
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
  /// Every delivery in the canonical node-major order.
  std::vector<engine::DeliveryRecord> deliveries() const {
    return deliveries_.records();
  }

 private:
  engine::Network net_;
  core::BrokerElection election_;
  engine::DeliveryLog deliveries_;
};

}  // namespace bsub::testing
