// PULL baseline (paper section VII-A): one-hop interest-driven collection.
//
// A node only collects messages it is interested in, and only from direct
// neighbors' own productions — no relaying ever happens. PULL is the
// overhead lower bound but pays in delivery ratio and delay.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/keyed_buffer.h"
#include "sim/protocol.h"

namespace bsub::routing {

/// Exact wire size of `consumer`'s interest announcement: the raw key
/// strings, back to back — sum of |name(k)| over interests_of(consumer).
/// The named formula (style of bloom's encoded_*_wire_size) so the cached
/// per-consumer size below has a ground truth to be asserted against.
std::size_t pull_announce_wire_size(const workload::Workload& workload,
                                    trace::NodeId consumer);

class PullProtocol final : public sim::Protocol {
 public:
  using sim::Protocol::on_start;
  void on_start(const sim::ScenarioInfo& scenario,
                const workload::Workload& workload,
                metrics::Collector& collector) override;
  void on_message_created(const workload::Message& msg,
                          util::Time now) override;
  void on_contact(trace::NodeId a, trace::NodeId b, util::Time now,
                  util::Time duration, sim::Link& link) override;
  const char* name() const override { return "PULL"; }
  /// All run state lives in per-node vectors; collector tallies commute.
  bool parallel_contacts_safe() const override { return true; }

 private:
  /// `consumer` pulls matching messages produced by `producer`.
  void pull(trace::NodeId consumer, trace::NodeId producer, util::Time now,
            sim::Link& link);

  const workload::Workload* workload_ = nullptr;
  metrics::Collector* collector_ = nullptr;
  std::vector<sim::KeyedBuffer> produced_;  // each node's own messages

  /// Cached per-consumer announce size (pull_announce_wire_size), filled
  /// lazily on a consumer's first pull. Interests are fixed after on_start —
  /// the only interest-change point — which resets every slot to the
  /// sentinel; an assert re-checks the formula on every cached use in debug
  /// builds.
  static constexpr std::uint32_t kAnnounceUnknown = UINT32_MAX;
  std::vector<std::uint32_t> announce_bytes_;
};

}  // namespace bsub::routing
