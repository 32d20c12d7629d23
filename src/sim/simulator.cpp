#include "sim/simulator.h"

#include <vector>

#include "sim/event_stream.h"

namespace bsub::sim {

metrics::RunResults Simulator::run(trace::ContactStream& contacts,
                                   const workload::Workload& workload,
                                   Protocol& protocol) {
  ScenarioEventStream events(contacts, workload);
  const std::size_t node_count = events.node_count();

  metrics::Collector collector;
  collector.set_expected(workload.messages().size(),
                         workload.expected_deliveries());
  collector.reserve_nodes(node_count);
  protocol.on_start(ScenarioInfo{node_count}, workload, collector);

  // A protocol that does not opt into parallel contacts runs on one thread:
  // the executor's fill-then-run path, in merge order.
  ParallelRunConfig pcfg;
  pcfg.threads = protocol.parallel_contacts_safe() ? config_.threads : 1;
  pcfg.window_events = config_.window_events;
  pcfg.min_batch_fanout = config_.min_batch_fanout;

  const std::vector<workload::Message>& messages = workload.messages();
  const double bandwidth = config_.bandwidth_bytes_per_second;
  const ReplayStats replay =
      replay_scenario(events, pcfg, [&](const ScenarioEvent& e) {
        if (e.is_message) {
          const workload::Message& m = messages[e.message_index];
          protocol.on_message_created(m, m.created);
          return;
        }
        Link link(e.contact.duration(), bandwidth);
        protocol.on_contact(e.contact.a, e.contact.b, e.contact.start,
                            e.contact.duration(), link);
      });
  last_run_stats_ = replay.exec;

  protocol.on_end(replay.end);
  return collector.results();
}

}  // namespace bsub::sim
