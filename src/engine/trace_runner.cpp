#include "engine/trace_runner.h"

#include <atomic>
#include <cstdint>

#include "sim/event_stream.h"

namespace bsub::engine {

TraceRunner TraceRunner::from_protocol_spec(std::string_view protocol_spec,
                                            double bandwidth_bytes_per_second,
                                            TraceRunnerOptions options) {
  const LiveConfig live = live_config_from_spec(protocol_spec);
  return TraceRunner(live.node, live.election, bandwidth_bytes_per_second,
                     options);
}

TraceRunResults TraceRunner::run(trace::ContactStream& contacts,
                                 const workload::Workload& workload) {
  sim::ScenarioEventStream events(contacts, workload);
  const std::size_t node_count = events.node_count();
  Network net(node_config_);
  core::BrokerElection election(node_count, election_config_);

  // Per-node delivery logs give a canonical node-major order shared by
  // serial and parallel runs (the Network's arrival-order log would make
  // the mean-delay float sum depend on the execution schedule).
  DeliveryLog deliveries(node_count);
  for (trace::NodeId n = 0; n < node_count; ++n) {
    BsubNode& node = net.add_node(n);
    subscribe_interests(node, workload, n);
    deliveries.attach(node, n);
  }

  const auto& messages = workload.messages();

  // Frame tallies commute (integer sums), so relaxed atomics keep them
  // schedule-independent.
  std::atomic<std::uint64_t> contacts_processed{0};
  std::atomic<std::uint64_t> frames_delivered{0};
  std::atomic<std::uint64_t> frames_dropped{0};
  std::atomic<std::uint64_t> bytes_used{0};

  sim::ParallelRunConfig pcfg;
  pcfg.threads = options_.threads;
  pcfg.window_events = options_.window_events;
  last_run_stats_ =
      sim::replay_scenario(events, pcfg, [&](const sim::ScenarioEvent& e) {
        if (e.is_message) {
          const workload::Message& m = messages[e.message_index];
          net.node(m.producer)
              .publish(content_message(workload, m, m.created), m.created);
          return;
        }
        const trace::Contact& c = e.contact;
        // Election decides roles, exactly as in the simulator protocol. It
        // only mutates the two endpoints' state, so it is safe next to any
        // concurrent node-disjoint event.
        election.on_contact(c.a, c.b, c.start);
        net.node(c.a).set_broker(election.is_broker(c.a));
        net.node(c.b).set_broker(election.is_broker(c.b));

        const ContactReport report =
            net.contact(c.a, c.b, c.start, c.duration(), bandwidth_);
        contacts_processed.fetch_add(1, std::memory_order_relaxed);
        frames_delivered.fetch_add(report.frames_delivered,
                                   std::memory_order_relaxed);
        frames_dropped.fetch_add(report.frames_dropped,
                                 std::memory_order_relaxed);
        bytes_used.fetch_add(report.bytes_used, std::memory_order_relaxed);
      }).exec;

  TraceRunResults results;
  results.contacts_processed = contacts_processed.load();
  results.frames_delivered = frames_delivered.load();
  results.frames_dropped = frames_dropped.load();
  results.bytes_used = bytes_used.load();
  // Nodes already deduplicate deliveries per consumer.
  deliveries.summarize(workload, results);
  return results;
}

}  // namespace bsub::engine
