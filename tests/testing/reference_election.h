// Reference model of the broker election (paper section V-B), the oracle
// for core::BrokerElection's pooled ring + open-addressing layout.
//
// Per node: one deque of window meetings plus two hash maps (distinct peers
// and distinct brokers met, with meeting counts). It runs the same
// prune / record / elect sequence as the production class — including the
// order of floating-point add/subtract on the broker-degree sum — so every
// role flip, count and window answer must agree exactly, contact by
// contact. The window queries filter meetings by time instead of skipping
// a pruned prefix, an independent formulation of the same answer (meeting
// times are non-decreasing per node).
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "core/broker_allocation.h"

namespace bsub::testing {

class ReferenceElection {
 public:
  ReferenceElection(std::size_t node_count,
                    core::BrokerElection::Config config)
      : config_(config), broker_(node_count, false), state_(node_count) {}

  bool is_broker(trace::NodeId node) const { return broker_[node]; }
  void set_broker(trace::NodeId node, bool broker) { broker_[node] = broker; }

  std::size_t broker_count() const {
    return static_cast<std::size_t>(
        std::count(broker_.begin(), broker_.end(), true));
  }
  std::uint64_t promotions() const { return promotions_; }
  std::uint64_t demotions() const { return demotions_; }

  /// Records both sides first (roles as of contact start), then runs the
  /// rules for each non-broker side.
  void on_contact(trace::NodeId a, trace::NodeId b, util::Time now) {
    record(a, b, now);
    record(b, a, now);
    elect(a, b, now);
    elect(b, a, now);
  }

  std::size_t degree(trace::NodeId node, util::Time now) const {
    return distinct_in_window(node, now, /*brokers_only=*/false);
  }
  std::size_t brokers_met(trace::NodeId node, util::Time now) const {
    return distinct_in_window(node, now, /*brokers_only=*/true);
  }

 private:
  struct Meeting {
    util::Time time;
    trace::NodeId peer;
    bool peer_was_broker;
    std::size_t peer_degree;
  };
  struct NodeState {
    std::deque<Meeting> meetings;
    std::unordered_map<trace::NodeId, std::uint32_t> peer_counts;
    std::unordered_map<trace::NodeId, std::uint32_t> broker_counts;
    double broker_degree_sum = 0.0;
    std::uint64_t broker_degree_n = 0;
  };

  void prune(NodeState& s, util::Time now) {
    const util::Time cutoff = now - config_.window;
    while (!s.meetings.empty() && s.meetings.front().time < cutoff) {
      const Meeting& m = s.meetings.front();
      if (--s.peer_counts[m.peer] == 0) s.peer_counts.erase(m.peer);
      if (m.peer_was_broker) {
        if (--s.broker_counts[m.peer] == 0) s.broker_counts.erase(m.peer);
        s.broker_degree_sum -= static_cast<double>(m.peer_degree);
        --s.broker_degree_n;
      }
      s.meetings.pop_front();
    }
  }

  void record(trace::NodeId self, trace::NodeId peer, util::Time now) {
    const bool peer_broker = broker_[peer];
    // What the peer would report in the handshake: its distinct-peer count
    // over its (already-updated) window.
    const std::size_t peer_degree = state_[peer].peer_counts.size();
    NodeState& s = state_[self];
    prune(s, now);
    s.meetings.push_back(Meeting{now, peer, peer_broker, peer_degree});
    ++s.peer_counts[peer];
    if (peer_broker) {
      ++s.broker_counts[peer];
      s.broker_degree_sum += static_cast<double>(peer_degree);
      ++s.broker_degree_n;
    }
  }

  void elect(trace::NodeId self, trace::NodeId peer, util::Time now) {
    if (broker_[self]) return;  // brokers do not run the election rules
    NodeState& s = state_[self];
    prune(s, now);
    const std::size_t brokers_seen = s.broker_counts.size();
    if (brokers_seen < config_.lower && !broker_[peer]) {
      broker_[peer] = true;
      ++promotions_;
    } else if (brokers_seen > config_.upper && broker_[peer] &&
               s.broker_degree_n > 0) {
      // Demote only below-average brokers.
      const double avg =
          s.broker_degree_sum / static_cast<double>(s.broker_degree_n);
      if (static_cast<double>(state_[peer].peer_counts.size()) < avg) {
        broker_[peer] = false;
        ++demotions_;
      }
    }
  }

  std::size_t distinct_in_window(trace::NodeId node, util::Time now,
                                 bool brokers_only) const {
    const util::Time cutoff = now - config_.window;
    std::unordered_set<trace::NodeId> peers;
    for (const Meeting& m : state_[node].meetings) {
      if (m.time >= cutoff && (!brokers_only || m.peer_was_broker)) {
        peers.insert(m.peer);
      }
    }
    return peers.size();
  }

  core::BrokerElection::Config config_;
  std::vector<bool> broker_;
  std::vector<NodeState> state_;
  std::uint64_t promotions_ = 0;
  std::uint64_t demotions_ = 0;
};

/// Success iff `election` and `model` agree on everything a contact between
/// `a` and `b` at `now` can change: both roles, both nodes' window answers,
/// and the lifetime promotion and demotion counts.
inline ::testing::AssertionResult agree_after_contact(
    const core::BrokerElection& election, const ReferenceElection& model,
    trace::NodeId a, trace::NodeId b, util::Time now) {
  for (const trace::NodeId n : {a, b}) {
    if (election.is_broker(n) != model.is_broker(n)) {
      return ::testing::AssertionFailure()
             << "role of node " << n << " diverged at t=" << now;
    }
    if (election.degree(n, now) != model.degree(n, now) ||
        election.brokers_met(n, now) != model.brokers_met(n, now)) {
      return ::testing::AssertionFailure()
             << "window of node " << n << " diverged at t=" << now;
    }
  }
  if (election.promotions() != model.promotions() ||
      election.demotions() != model.demotions()) {
    return ::testing::AssertionFailure()
           << "promotion/demotion counts diverged at t=" << now;
  }
  return ::testing::AssertionSuccess();
}

}  // namespace bsub::testing
