// Decentralized broker election (paper section V-B).
//
// Every non-broker node tracks, over a sliding time window W:
//   - the distinct peers it met (its "degree"),
//   - the distinct brokers it met,
//   - the degrees of the brokers it met (to estimate the broker average).
//
// On each contact, a non-broker node applies the election rules to its peer:
//   - if it met fewer than B_l brokers in W and the peer is a normal node,
//     it designates the peer a broker;
//   - if it met more than B_u brokers in W and the peer is a broker whose
//     degree is below the average broker degree it has observed, it demotes
//     the peer to a normal node (less "popular" nodes lose brokership, so
//     socially-active nodes end up doing the forwarding).
// Brokers themselves never run the rules.
//
// Per-node storage is cache-dense and pooled: one 56-byte NodeState holding
// a ring buffer of window meetings and a single open-addressing peer table
// (meeting + broker-meeting counts per peer), both allocated from a
// per-election BlockPool arena. Idle nodes cost just the NodeState; active
// windows cost ~16 bytes per meeting + ~16 bytes per live peer. The plain
// one-deque-plus-two-maps model in tests/testing/reference_election.h runs
// the identical prune/record/elect sequence (including the order of
// floating-point add/subtract on the broker-degree average); the election
// tests hold the two in lock-step, contact by contact.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "trace/contact.h"
#include "util/pool.h"
#include "util/time.h"

namespace bsub::core {

class BrokerElection {
 public:
  struct Config {
    std::uint32_t lower = 3;              ///< B_l
    std::uint32_t upper = 5;              ///< B_u
    util::Time window = 5 * util::kHour;  ///< W
  };

  BrokerElection(std::size_t node_count, Config config);

  bool is_broker(trace::NodeId node) const { return broker_[node] != 0; }
  void set_broker(trace::NodeId node, bool broker);

  /// Records the meeting in both nodes' windows and applies the election
  /// rules (non-broker sides only). Role flips take effect immediately.
  void on_contact(trace::NodeId a, trace::NodeId b, util::Time now);

  std::size_t broker_count() const;
  double broker_fraction() const;

  /// Distinct peers `node` met within the window ending at `now`. Pure
  /// read-only query: the window is filtered on read instead of pruning
  /// stored state, so metrics code needs no mutable access. Equals what
  /// prune-then-count reports (meeting times are non-decreasing per node —
  /// the engines execute each node's contacts in trace order).
  std::size_t degree(trace::NodeId node, util::Time now) const;

  /// Distinct brokers `node` met within the window ending at `now` (pure
  /// read-only query, same contract as degree()).
  std::size_t brokers_met(trace::NodeId node, util::Time now) const;

  /// Lifetime counters, for observability and tests.
  std::uint64_t promotions() const {
    return promotions_.load(std::memory_order_relaxed);
  }
  std::uint64_t demotions() const {
    return demotions_.load(std::memory_order_relaxed);
  }

  /// Bytes held for per-node window state: the fixed NodeState array plus
  /// the pool slabs behind the rings and tables.
  std::size_t state_bytes_reserved() const;

 private:
  /// Compact meeting record: 16 bytes. Bit 31 of `degree_flag` is the
  /// peer-was-broker flag; the low 31 bits are the peer's degree at meeting
  /// time (what the peer would report in the handshake).
  struct Meeting {
    util::Time time;
    trace::NodeId peer;
    std::uint32_t degree_flag;
  };
  static constexpr std::uint32_t kBrokerFlag = 0x80000000u;

  /// Open-addressing table entry (12 bytes): meetings still in window with
  /// this peer, and how many of those were broker meetings. meetings == 0
  /// marks an empty slot (erasure backward-shifts, no tombstones).
  struct PeerEntry {
    trace::NodeId peer;
    std::uint32_t meetings;
    std::uint32_t broker_meetings;
  };

  /// Always-resident per-node state: 56 bytes. Ring and table blocks come
  /// from the election's BlockPool and are recycled on growth.
  struct NodeState {
    Meeting* ring = nullptr;
    PeerEntry* table = nullptr;
    std::uint32_t ring_cap = 0;  ///< power of two (0 until first meeting)
    std::uint32_t ring_head = 0;
    std::uint32_t ring_size = 0;
    std::uint32_t table_cap = 0;  ///< power of two (0 until first meeting)
    std::uint32_t distinct_peers = 0;    ///< live table entries
    std::uint32_t distinct_brokers = 0;  ///< entries with broker_meetings > 0
    std::uint64_t broker_degree_n = 0;
    double broker_degree_sum = 0.0;
  };

  static std::uint32_t hash_id(trace::NodeId id) {
    std::uint32_t x = id * 0x9E3779B1u;
    x ^= x >> 16;
    return x;
  }

  Meeting& ring_at(NodeState& s, std::uint32_t i) const {
    return s.ring[(s.ring_head + i) & (s.ring_cap - 1)];
  }
  const Meeting& ring_at(const NodeState& s, std::uint32_t i) const {
    return s.ring[(s.ring_head + i) & (s.ring_cap - 1)];
  }

  /// find_index's "peer not in the table".
  static constexpr std::uint32_t kNoIndex = 0xFFFFFFFFu;

  void ring_push(NodeState& s, const Meeting& m);
  std::uint32_t find_index(const NodeState& s, trace::NodeId peer) const;
  PeerEntry& table_entry(NodeState& s, trace::NodeId peer);
  void grow_table(NodeState& s);
  void erase_entry(NodeState& s, std::uint32_t i);

  void prune(NodeState& s, util::Time now);
  void record(trace::NodeId self, trace::NodeId peer, util::Time now);
  void elect(trace::NodeId self, trace::NodeId peer, util::Time now);

  Config config_;
  // One byte per node, NOT vector<bool>: the bit-packed specialization
  // would make writes to neighboring nodes race under the conflict-batch
  // executor even though the *logical* elements are disjoint. All reads and
  // writes during a run touch only the contact's two endpoints.
  std::vector<std::uint8_t> broker_;
  std::vector<NodeState> state_;
  /// Arena for ring/table blocks. Shared across nodes, so acquire/release
  /// lock internally; blocks in use are touched only by the worker that
  /// owns the node (batch barriers order cross-batch reuse).
  util::BlockPool pool_;
  // Commutative tallies, safe to bump from concurrent batch workers.
  std::atomic<std::uint64_t> promotions_{0};
  std::atomic<std::uint64_t> demotions_{0};
};

}  // namespace bsub::core
