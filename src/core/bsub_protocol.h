// B-SUB: the complete publish-subscribe protocol (paper section V).
//
// Per contact between nodes x and y, in order:
//   1. TTL housekeeping on both buffers.
//   2. Broker election bookkeeping and rules (section V-B).
//   3. If both are brokers: exchange relay filters, make preferential-query
//      forwarding decisions on the pre-merge filters, then M-merge
//      (section V-C/V-D; A-merge available as the bogus-counter ablation).
//   4. Direct delivery both ways: each side reports a counter-less BF of its
//      interests; the other side hands over matching buffered messages
//      (producer-to-consumer and broker-to-consumer unified; section V-D).
//   5. Interest propagation: each side facing a broker sends its genuine
//      filter, A-merged into the broker's relay filter (section V-C).
//   6. Broker pickup: a broker sends its counter-less relay BF to the other
//      side, which replicates matching messages it produced, bounded by the
//      copy limit C (section V-D).
// Every transmission is gated by the contact's byte budget.
#pragma once

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/broker_allocation.h"
#include "core/config.h"
#include "core/interest_manager.h"
#include "sim/keyed_buffer.h"
#include "sim/protocol.h"
#include "util/id_set.h"

namespace bsub::core {

class BsubProtocol final : public sim::Protocol {
 public:
  explicit BsubProtocol(BsubConfig config = {});
  ~BsubProtocol() override;

  using sim::Protocol::on_start;
  void on_start(const sim::ScenarioInfo& scenario,
                const workload::Workload& workload,
                metrics::Collector& collector) override;
  void on_message_created(const workload::Message& msg,
                          util::Time now) override;
  void on_contact(trace::NodeId a, trace::NodeId b, util::Time now,
                  util::Time duration, sim::Link& link) override;
  const char* name() const override { return "B-SUB"; }

  /// All mutable run state is per-node (buffers, filters, caches keyed by
  /// node) or commutative (relaxed-atomic tallies); the adaptive-DF cache is
  /// mutex-guarded and value-deterministic. See each member's comment.
  bool parallel_contacts_safe() const override { return true; }

  const BsubConfig& config() const { return config_; }

  /// Observability for tests and experiments (valid after on_start).
  const BrokerElection& election() const { return *election_; }
  const InterestManager& interests() const { return *interests_; }

  /// Mutable access for deployments that preset roles (and for tests that
  /// pin the election state). Valid after on_start.
  BrokerElection& election_mutable() { return *election_; }
  InterestManager& interests_mutable() { return *interests_; }

  /// Lifetime count of relay-filter false-positive pickups (ground truth).
  std::uint64_t false_injections() const {
    return false_injections_.load(std::memory_order_relaxed);
  }

  /// A broker-to-broker preference below this many counter units is
  /// floating-point rounding, not routing state: a genuine preference is
  /// at least DF/60,000 per millisecond of reinforcement offset (about
  /// 1.5e-6 at Eq. 5's DF, 8e-7 at Fig. 9's smallest nonzero DF), while
  /// two relays that M-merged to identical doubles and then decayed
  /// through their own lazy bases differ by a few ULPs.
  static constexpr double kRoundingTie = 1e-9;

  /// Breakdown of message-body transmissions by protocol step.
  struct TrafficBreakdown {
    std::uint64_t pickups = 0;           ///< producer -> broker replicas
    std::uint64_t broker_transfers = 0;  ///< broker -> broker custody moves
    std::uint64_t deliveries = 0;        ///< transfers to a consumer
    /// The broker_transfers made on a preference below kRoundingTie:
    /// custody that moved on a rounding tie (measured, not prevented).
    std::uint64_t tie_transfers = 0;
  };
  /// Snapshot of the (atomic) traffic tallies; by value so readers never
  /// observe a torn struct while executor threads are still bumping it.
  TrafficBreakdown traffic() const {
    return TrafficBreakdown{
        traffic_pickups_.load(std::memory_order_relaxed),
        traffic_broker_transfers_.load(std::memory_order_relaxed),
        traffic_deliveries_.load(std::memory_order_relaxed),
        traffic_tie_transfers_.load(std::memory_order_relaxed)};
  }

  /// Time-averaged false-positive rate of the brokers' relay filters,
  /// measured by probing each relay with known-absent keys at every pickup
  /// opportunity (instrumentation; costs no protocol bytes). This is the
  /// operative FPR the paper's Fig. 9(d) tracks: it rises with relay load
  /// and falls as the DF drains interests.
  double measured_relay_fpr() const;

 private:
  /// Per-node broker-custody state, materialized on the first copy taken
  /// into custody. Only nodes that ever carried pay for the buffer and the
  /// two id sets (bitmaps over the workload's dense message ids); a null
  /// entry reads as an empty buffer.
  struct CarrierState {
    /// Messages this node carries for others.
    sim::KeyedBuffer carried;
    /// Copies whose pickup was a relay false positive (a subset of carried).
    util::DenseIdSet falsely_injected;
    /// Loop prevention: ids ever held, including every id in carried —
    /// refused again, so a copy's broker-to-broker walk visits each broker
    /// at most once.
    util::DenseIdSet carried_ever;
  };

  /// Per-node wire artifacts that are static for a run (a node's interest
  /// set never changes after on_start): the counter-less interest report,
  /// the genuine filter, their exact encoded sizes, and the keys the report
  /// matches. Built on first use; every later contact reuses them (an
  /// encode-cache hit).
  struct NodeFilterCache {
    bloom::BloomFilter report;
    std::size_t report_bytes = 0;
    bloom::Tcbf genuine;
    std::size_t genuine_bytes = 0;
    /// Every key of the universe the report contains, ascending: the
    /// node's interests plus the report's Bloom false positives. Direct
    /// delivery offers exactly these keys' buckets.
    std::vector<workload::KeyId> report_keys;
  };

  /// Precomputed filter bit positions per key: the key universe and the
  /// filter geometry are both fixed for a run, so every membership probe in
  /// the contact loop reuses these instead of re-deriving k positions from
  /// the hash pair.
  const util::IndexArray& key_indices(workload::KeyId key) const {
    return key_indices_[key];
  }

  void build_filter_cache(NodeFilterCache& fc, trace::NodeId node) const;
  const NodeFilterCache& node_filters(trace::NodeId node);

  /// Materializing accessors (only the contact's own endpoints are ever
  /// touched, so writes to the pointer slots are race-free when only
  /// node-disjoint events run concurrently, same as every other per-node
  /// vector here).
  sim::KeyedBuffer& produced_state(trace::NodeId node) {
    auto& p = produced_[node];
    if (p == nullptr) p = std::make_unique<sim::KeyedBuffer>();
    return *p;
  }
  CarrierState& carrier_state(trace::NodeId node) {
    auto& c = carrier_[node];
    if (c == nullptr) c = std::make_unique<CarrierState>();
    return *c;
  }
  /// Custody check: has `node` ever held `id`? Covers what it holds now,
  /// since every carried id enters carried_ever. Null-safe (null = never
  /// carried).
  bool ever_carried(trace::NodeId node, workload::MessageId id) const {
    const CarrierState* c = carrier_[node].get();
    return c != nullptr && c->carried_ever.contains(id);
  }

  void purge(trace::NodeId node, util::Time now);
  void broker_exchange(trace::NodeId a, trace::NodeId b, util::Time now,
                       sim::Link& link);
  void forward_between_brokers(trace::NodeId from, trace::NodeId to,
                               const bloom::Tcbf& filter_from,
                               const bloom::Tcbf& filter_to, sim::Link& link);
  void direct_delivery(trace::NodeId from, trace::NodeId to, util::Time now,
                       sim::Link& link);
  void propagate_interest(trace::NodeId consumer, trace::NodeId broker,
                          util::Time now, sim::Link& link);
  void broker_pickup(trace::NodeId producer, trace::NodeId broker,
                     util::Time now, sim::Link& link);
  void maybe_update_adaptive_df(trace::NodeId node, util::Time now);

  BsubConfig config_;
  const workload::Workload* workload_ = nullptr;
  metrics::Collector* collector_ = nullptr;
  std::unique_ptr<BrokerElection> election_;
  std::unique_ptr<InterestManager> interests_;

  /// Lazy per-node producer/custody state: one pointer per node, null until
  /// the node first publishes / first takes custody. The overwhelming
  /// majority of nodes at city scale never do either, so they cost 16 bytes
  /// here instead of ~180 bytes of empty container headers. Produced
  /// entries carry the message's remaining broker-copy budget.
  std::vector<std::unique_ptr<sim::KeyedBuffer>> produced_;
  std::vector<std::unique_ptr<CarrierState>> carrier_;

  /// Per-key filter bit positions, indexed by KeyId (built at on_start).
  std::vector<util::IndexArray> key_indices_;

  /// Static wire artifacts, deduplicated by interest set: a NodeFilterCache
  /// is a pure function of the node's subscription *set* (plus the run's
  /// filter params), so nodes sharing a set share one entry. Per node: one
  /// pointer, null until the node's first use (so encode-cache hits and
  /// misses are counted per node, not per shared entry). The index map and
  /// deque are mutex-guarded; built entries are immutable and deque-stable,
  /// so the pointer fast path takes no lock.
  std::vector<const NodeFilterCache*> filter_ptr_;
  std::deque<NodeFilterCache> shared_filters_;
  std::map<std::vector<workload::KeyId>, NodeFilterCache*> filter_index_;
  std::mutex filter_mu_;

  /// Cache for the adaptive-DF Eq. 4 evaluations, keyed by degree. Shared
  /// across nodes, so it is mutex-guarded; harmless for determinism because
  /// the cached value is a pure function of the key (degree).
  std::mutex emin_mu_;
  std::unordered_map<std::size_t, double> emin_cache_;

  /// Commutative tallies — relaxed atomics so concurrent executor threads
  /// can bump them; integer addition makes the totals
  /// schedule-independent.
  std::atomic<std::uint64_t> false_injections_{0};
  std::atomic<std::uint64_t> traffic_pickups_{0};
  std::atomic<std::uint64_t> traffic_broker_transfers_{0};
  std::atomic<std::uint64_t> traffic_deliveries_{0};
  std::atomic<std::uint64_t> traffic_tie_transfers_{0};
  std::atomic<std::uint64_t> fpr_probes_{0};
  std::atomic<std::uint64_t> fpr_hits_{0};
};

}  // namespace bsub::core
