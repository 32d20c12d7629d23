// Spray-and-Wait-style baseline (Spyropoulos et al., adapted to pub-sub).
//
// Interest-OBLIVIOUS replication with interest-aware delivery: the producer
// hands copies of each message to the first L distinct nodes it meets
// (regardless of their interests); each relay then delivers its copy to any
// consumer whose interest key matches exactly, one hop, and never re-sprays.
//
// This is not in the paper; it is the natural ablation between PUSH
// (replicate to everyone) and B-SUB (replicate only to brokers whose relay
// filter matches): it shows what TCBF-guided copy *placement* buys over
// blind placement at the same copy budget.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/keyed_buffer.h"
#include "sim/protocol.h"

namespace bsub::routing {

class SprayProtocol final : public sim::Protocol {
 public:
  /// `copies` is the spray budget L per message (the paper's C-limit analog,
  /// default matching B-SUB's 3).
  explicit SprayProtocol(std::uint32_t copies = 3) : copies_(copies) {}

  using sim::Protocol::on_start;
  void on_start(const sim::ScenarioInfo& scenario,
                const workload::Workload& workload,
                metrics::Collector& collector) override;
  void on_message_created(const workload::Message& msg,
                          util::Time now) override;
  void on_contact(trace::NodeId a, trace::NodeId b, util::Time now,
                  util::Time duration, sim::Link& link) override;
  const char* name() const override { return "SPRAY"; }
  /// All run state lives in per-node vectors; collector tallies commute.
  bool parallel_contacts_safe() const override { return true; }

 private:
  /// Producer side: spray copies of own messages to the peer.
  void spray(trace::NodeId producer, trace::NodeId peer, util::Time now,
             sim::Link& link);
  /// Any holder (producer or relay) delivers exact-match messages.
  void deliver(trace::NodeId holder, trace::NodeId consumer, util::Time now,
               sim::Link& link);
  void purge(trace::NodeId node, util::Time now);

  std::uint32_t copies_;
  const workload::Workload* workload_ = nullptr;
  metrics::Collector* collector_ = nullptr;
  /// Each node's own messages, with their spray copies left; a source
  /// leaves when its budget is spent.
  std::vector<sim::KeyedBuffer> sources_;
  /// Each node's sprayed copies (copies_left unused).
  std::vector<sim::KeyedBuffer> relayed_;
};

}  // namespace bsub::routing
