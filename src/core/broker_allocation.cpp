#include "core/broker_allocation.h"

#include <algorithm>
#include <cassert>

namespace bsub::core {

BrokerElection::BrokerElection(std::size_t node_count, Config config)
    : config_(config), broker_(node_count, 0), state_(node_count) {
  assert(config.window > 0);
  assert(config.lower <= config.upper);
}

void BrokerElection::set_broker(trace::NodeId node, bool broker) {
  broker_[node] = broker ? 1 : 0;
}

// --- ring + table plumbing -------------------------------------------------

void BrokerElection::ring_push(NodeState& s, const Meeting& m) {
  if (s.ring_size == s.ring_cap) {
    const std::uint32_t new_cap = s.ring_cap == 0 ? 8 : s.ring_cap * 2;
    Meeting* fresh = pool_.acquire_array<Meeting>(new_cap);
    for (std::uint32_t i = 0; i < s.ring_size; ++i) fresh[i] = ring_at(s, i);
    pool_.release_array(s.ring, s.ring_cap);
    s.ring = fresh;
    s.ring_cap = new_cap;
    s.ring_head = 0;
  }
  ring_at(s, s.ring_size) = m;
  ++s.ring_size;
}

std::uint32_t BrokerElection::find_index(const NodeState& s,
                                         trace::NodeId peer) const {
  if (s.table_cap == 0) return kNoIndex;
  const std::uint32_t mask = s.table_cap - 1;
  for (std::uint32_t i = hash_id(peer) & mask;; i = (i + 1) & mask) {
    const PeerEntry& e = s.table[i];
    if (e.meetings == 0) return kNoIndex;
    if (e.peer == peer) return i;
  }
}

void BrokerElection::grow_table(NodeState& s) {
  const std::uint32_t new_cap = s.table_cap == 0 ? 8 : s.table_cap * 2;
  PeerEntry* fresh = pool_.acquire_array<PeerEntry>(new_cap);
  std::fill(fresh, fresh + new_cap, PeerEntry{0, 0, 0});
  const std::uint32_t mask = new_cap - 1;
  for (std::uint32_t i = 0; i < s.table_cap; ++i) {
    const PeerEntry& e = s.table[i];
    if (e.meetings == 0) continue;
    std::uint32_t j = hash_id(e.peer) & mask;
    while (fresh[j].meetings != 0) j = (j + 1) & mask;
    fresh[j] = e;
  }
  pool_.release_array(s.table, s.table_cap);
  s.table = fresh;
  s.table_cap = new_cap;
}

BrokerElection::PeerEntry& BrokerElection::table_entry(NodeState& s,
                                                       trace::NodeId peer) {
  // Keep the probe load under 3/4 counting the slot this call may claim.
  if (s.table_cap == 0 || (s.distinct_peers + 1) * 4 > s.table_cap * 3) {
    grow_table(s);
  }
  const std::uint32_t mask = s.table_cap - 1;
  for (std::uint32_t i = hash_id(peer) & mask;; i = (i + 1) & mask) {
    PeerEntry& e = s.table[i];
    if (e.meetings == 0) {
      e.peer = peer;
      e.broker_meetings = 0;
      return e;  // claimed; the caller's increment makes it live
    }
    if (e.peer == peer) return e;
  }
}

void BrokerElection::erase_entry(NodeState& s, std::uint32_t i) {
  // Backward-shift deletion: no tombstones, probes stay short.
  const std::uint32_t mask = s.table_cap - 1;
  std::uint32_t j = i;
  for (;;) {
    s.table[i].meetings = 0;
    for (;;) {
      j = (j + 1) & mask;
      if (s.table[j].meetings == 0) return;
      const std::uint32_t k = hash_id(s.table[j].peer) & mask;
      // Entry j may fill hole i only if its home slot k does not lie in the
      // (cyclic) open interval (i, j].
      if (i <= j ? (k <= i || k > j) : (k <= i && k > j)) break;
    }
    s.table[i] = s.table[j];
    i = j;
  }
}

void BrokerElection::prune(NodeState& s, util::Time now) {
  const util::Time cutoff = now - config_.window;
  while (s.ring_size != 0 && ring_at(s, 0).time < cutoff) {
    const Meeting m = ring_at(s, 0);
    const std::uint32_t idx = find_index(s, m.peer);
    assert(idx != kNoIndex);
    PeerEntry& e = s.table[idx];
    if ((m.degree_flag & kBrokerFlag) != 0) {
      if (--e.broker_meetings == 0) --s.distinct_brokers;
      s.broker_degree_sum -=
          static_cast<double>(m.degree_flag & ~kBrokerFlag);
      --s.broker_degree_n;
    }
    if (--e.meetings == 0) {
      --s.distinct_peers;
      erase_entry(s, idx);
    }
    s.ring_head = (s.ring_head + 1) & (s.ring_cap - 1);
    --s.ring_size;
  }
}

// --- election logic --------------------------------------------------------

void BrokerElection::record(trace::NodeId self, trace::NodeId peer,
                            util::Time now) {
  const bool peer_broker = broker_[peer] != 0;
  // The peer's degree is what the peer would report in the handshake:
  // its own distinct-peer count over its (already-updated) window.
  const std::uint32_t peer_degree = state_[peer].distinct_peers;
  NodeState& s = state_[self];
  prune(s, now);
  assert(peer_degree < kBrokerFlag);
  Meeting m{now, peer, peer_degree | (peer_broker ? kBrokerFlag : 0)};
  ring_push(s, m);
  PeerEntry& e = table_entry(s, peer);
  if (e.meetings++ == 0) ++s.distinct_peers;
  if (peer_broker) {
    if (e.broker_meetings++ == 0) ++s.distinct_brokers;
    s.broker_degree_sum += static_cast<double>(peer_degree);
    ++s.broker_degree_n;
  }
}

void BrokerElection::elect(trace::NodeId self, trace::NodeId peer,
                           util::Time now) {
  if (broker_[self]) return;  // brokers do not run the election rules
  NodeState& s = state_[self];
  prune(s, now);
  if (s.distinct_brokers < config_.lower && !broker_[peer]) {
    broker_[peer] = 1;
    promotions_.fetch_add(1, std::memory_order_relaxed);
  } else if (s.distinct_brokers > config_.upper && broker_[peer]) {
    // Demote only below-average brokers, so popular nodes keep the role.
    if (s.broker_degree_n > 0) {
      const double avg =
          s.broker_degree_sum / static_cast<double>(s.broker_degree_n);
      const double peer_degree =
          static_cast<double>(state_[peer].distinct_peers);
      if (peer_degree < avg) {
        broker_[peer] = 0;
        demotions_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
}

void BrokerElection::on_contact(trace::NodeId a, trace::NodeId b,
                                util::Time now) {
  assert(a != b);
  // Record both sides first (roles as of contact start), then run the rules.
  record(a, b, now);
  record(b, a, now);
  elect(a, b, now);
  elect(b, a, now);
}

std::size_t BrokerElection::broker_count() const {
  std::size_t n = 0;
  for (std::uint8_t b : broker_) n += b != 0;
  return n;
}

double BrokerElection::broker_fraction() const {
  return broker_.empty() ? 0.0
                         : static_cast<double>(broker_count()) /
                               static_cast<double>(broker_.size());
}

// --- read-only window queries ----------------------------------------------
//
// Both queries skip the stale *prefix* of the meeting sequence (exactly the
// entries prune would pop) and count distinct peers over the remainder, so
// they return precisely what the historical prune-then-count reported —
// without needing mutable access.

namespace {
std::size_t count_distinct(std::vector<trace::NodeId>& scratch) {
  std::sort(scratch.begin(), scratch.end());
  return static_cast<std::size_t>(
      std::unique(scratch.begin(), scratch.end()) - scratch.begin());
}
}  // namespace

std::size_t BrokerElection::degree(trace::NodeId node, util::Time now) const {
  const util::Time cutoff = now - config_.window;
  thread_local std::vector<trace::NodeId> scratch;
  scratch.clear();
  const NodeState& s = state_[node];
  std::uint32_t i = 0;
  while (i < s.ring_size && ring_at(s, i).time < cutoff) ++i;
  for (; i < s.ring_size; ++i) scratch.push_back(ring_at(s, i).peer);
  return count_distinct(scratch);
}

std::size_t BrokerElection::brokers_met(trace::NodeId node,
                                        util::Time now) const {
  const util::Time cutoff = now - config_.window;
  thread_local std::vector<trace::NodeId> scratch;
  scratch.clear();
  const NodeState& s = state_[node];
  std::uint32_t i = 0;
  while (i < s.ring_size && ring_at(s, i).time < cutoff) ++i;
  for (; i < s.ring_size; ++i) {
    const Meeting& m = ring_at(s, i);
    if ((m.degree_flag & kBrokerFlag) != 0) scratch.push_back(m.peer);
  }
  return count_distinct(scratch);
}

std::size_t BrokerElection::state_bytes_reserved() const {
  return state_.capacity() * sizeof(NodeState) + pool_.bytes_reserved() +
         broker_.capacity();
}

}  // namespace bsub::core
