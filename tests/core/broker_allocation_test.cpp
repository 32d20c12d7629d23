#include "core/broker_allocation.h"

#include <gtest/gtest.h>

#include "testing/reference_election.h"
#include "trace/synthetic.h"

namespace bsub::core {
namespace {

using util::kHour;
using util::kMinute;

TEST(BrokerElection, StartsWithNoBrokers) {
  BrokerElection e(10, {});
  EXPECT_EQ(e.broker_count(), 0u);
  EXPECT_DOUBLE_EQ(e.broker_fraction(), 0.0);
  for (trace::NodeId n = 0; n < 10; ++n) EXPECT_FALSE(e.is_broker(n));
}

TEST(BrokerElection, SetBrokerDirectly) {
  BrokerElection e(5, {});
  e.set_broker(2, true);
  EXPECT_TRUE(e.is_broker(2));
  EXPECT_EQ(e.broker_count(), 1u);
  EXPECT_DOUBLE_EQ(e.broker_fraction(), 0.2);
}

TEST(BrokerElection, UserBelowLowerBoundPromotesPeer) {
  // A user that has met fewer than B_l brokers designates its peer.
  BrokerElection e(3, {3, 5, 5 * kHour});
  e.on_contact(0, 1, kMinute);
  // Node 0 saw 0 brokers (< 3): promotes 1. Node 1 likewise promotes 0?
  // Node 1's rule runs after 0's flip; the contact already recorded 0 as a
  // non-broker meeting, but the promotion rule only needs the peer's current
  // role, so 1 promotes 0 as well.
  EXPECT_TRUE(e.is_broker(1));
  EXPECT_GE(e.promotions(), 1u);
}

TEST(BrokerElection, BrokersDoNotRunElectionRules) {
  BrokerElection e(3, {3, 5, 5 * kHour});
  e.set_broker(0, true);
  e.on_contact(0, 1, kMinute);
  // Node 0 is a broker: it must not promote node 1. Node 1 is a user that
  // has now met 1 broker (< 3) and will promote its peer — but the peer is
  // already a broker, so nothing changes there.
  EXPECT_EQ(e.promotions(), 0u);
}

TEST(BrokerElection, DegreeCountsDistinctPeersInWindow) {
  BrokerElection e(5, {3, 5, kHour});
  e.on_contact(0, 1, kMinute);
  e.on_contact(0, 2, 2 * kMinute);
  e.on_contact(0, 1, 3 * kMinute);  // repeat
  EXPECT_EQ(e.degree(0, 3 * kMinute), 2u);
}

TEST(BrokerElection, WindowPruningForgetsOldMeetings) {
  BrokerElection e(5, {3, 5, kHour});
  e.on_contact(0, 1, kMinute);
  EXPECT_EQ(e.degree(0, kMinute), 1u);
  EXPECT_EQ(e.degree(0, 2 * kHour), 0u);  // pruned
}

TEST(BrokerElection, BrokersMetTracksRoleAtMeetingTime) {
  BrokerElection e(5, {0, 100, kHour});  // thresholds neutralized
  e.set_broker(1, true);
  e.on_contact(0, 1, kMinute);
  EXPECT_EQ(e.brokers_met(0, kMinute), 1u);
  e.set_broker(2, false);
  e.on_contact(0, 2, 2 * kMinute);
  EXPECT_EQ(e.brokers_met(0, 2 * kMinute), 1u);  // 2 was not a broker
}

TEST(BrokerElection, DemotionRequiresBelowAverageDegree) {
  // Build a user (node 0) that has met more than B_u brokers, then have it
  // meet a low-degree broker: that broker is demoted.
  BrokerElection e(10, {0, 2, 10 * kHour});
  for (trace::NodeId b = 1; b <= 4; ++b) e.set_broker(b, true);
  // Give brokers 1..3 high degree by having them meet many nodes.
  for (trace::NodeId b = 1; b <= 3; ++b) {
    for (trace::NodeId peer = 5; peer <= 9; ++peer) {
      e.on_contact(b, peer, kMinute);
    }
  }
  // Node 0 meets the well-connected brokers (brokers_met climbs to 3 > 2).
  e.on_contact(0, 1, 10 * kMinute);
  e.on_contact(0, 2, 11 * kMinute);
  e.on_contact(0, 3, 12 * kMinute);
  ASSERT_GT(e.brokers_met(0, 13 * kMinute), 2u);
  // Broker 4 has degree 0 (never met anyone) — below average: demoted.
  e.on_contact(0, 4, 13 * kMinute);
  EXPECT_FALSE(e.is_broker(4));
  EXPECT_GE(e.demotions(), 1u);
}

TEST(BrokerElection, HighDegreeBrokerSurvivesDemotionPressure) {
  BrokerElection e(12, {0, 1, 10 * kHour});
  for (trace::NodeId b = 1; b <= 3; ++b) e.set_broker(b, true);
  // Broker 1: degree 6; brokers 2, 3: degree 1.
  for (trace::NodeId peer = 4; peer <= 9; ++peer) {
    e.on_contact(1, peer, kMinute);
  }
  e.on_contact(2, 4, kMinute);
  e.on_contact(3, 4, kMinute);
  // Node 0 meets the two weak brokers first (builds its average), then the
  // strong one: above-average broker 1 must survive.
  e.on_contact(0, 2, 10 * kMinute);
  e.on_contact(0, 3, 11 * kMinute);
  ASSERT_GT(e.brokers_met(0, 12 * kMinute), 1u);
  e.on_contact(0, 1, 12 * kMinute);
  EXPECT_TRUE(e.is_broker(1));
}

TEST(BrokerElection, BootstrapsFromZeroBrokersOnRealTrace) {
  trace::SyntheticTraceConfig cfg;
  cfg.node_count = 40;
  cfg.contact_count = 8000;
  cfg.duration = util::kDay;
  cfg.seed = 17;
  auto t = trace::generate_trace(cfg);
  BrokerElection e(40, {3, 5, 5 * kHour});
  for (const auto& c : t.contacts()) e.on_contact(c.a, c.b, c.start);
  // Some brokers exist; not everyone became one.
  EXPECT_GT(e.broker_count(), 0u);
  EXPECT_LT(e.broker_count(), 40u);
  EXPECT_GT(e.promotions(), 0u);
}

TEST(BrokerElection, PaperThresholdsSustainAStableBrokerMinority) {
  // Section VII-A: thresholds 3/5 with W = 5 h maintain ~30% brokers on the
  // real traces. On our denser synthetic traces the same thresholds settle
  // lower (a handful of hub brokers already satisfies everyone's B_l) —
  // the invariant we hold is a stable non-trivial minority; see
  // bench/ablation_brokers for the threshold-to-fraction mapping.
  auto t = trace::generate_trace(trace::haggle_infocom06_config(23));
  BrokerElection e(t.node_count(), {3, 5, 5 * kHour});
  for (const auto& c : t.contacts()) e.on_contact(c.a, c.b, c.start);
  EXPECT_GT(e.broker_fraction(), 0.03);
  EXPECT_LT(e.broker_fraction(), 0.60);
}

TEST(BrokerElection, PopularNodesEndUpAsBrokers) {
  // The stated goal of V-B: socially active nodes hold brokership. Compare
  // the mean trace-degree of brokers vs non-brokers at the end.
  auto t = trace::generate_trace(trace::haggle_infocom06_config(29));
  BrokerElection e(t.node_count(), {3, 5, 5 * kHour});
  for (const auto& c : t.contacts()) e.on_contact(c.a, c.b, c.start);
  auto deg = t.degrees();
  double broker_deg = 0.0, user_deg = 0.0;
  std::size_t brokers = 0, users = 0;
  for (trace::NodeId n = 0; n < t.node_count(); ++n) {
    if (e.is_broker(n)) {
      broker_deg += static_cast<double>(deg[n]);
      ++brokers;
    } else {
      user_deg += static_cast<double>(deg[n]);
      ++users;
    }
  }
  ASSERT_GT(brokers, 0u);
  ASSERT_GT(users, 0u);
  EXPECT_GE(broker_deg / brokers, user_deg / users * 0.9);
}

TEST(BrokerElection, QueriesAreConstAndDoNotPerturbState) {
  BrokerElection e(5, {3, 5, kHour});
  e.on_contact(0, 1, kMinute);
  e.on_contact(0, 2, 2 * kMinute);
  // degree()/brokers_met() are read-only window filters: callable through a
  // const ref, and repeated queries (including past-window ones that would
  // prune under the old mutate-on-read scheme) see identical answers.
  const BrokerElection& ce = e;
  EXPECT_EQ(ce.degree(0, 2 * kMinute), 2u);
  EXPECT_EQ(ce.degree(0, 2 * kHour), 0u);  // filtered, not pruned
  EXPECT_EQ(ce.degree(0, 2 * kMinute), 2u);
  // Roles are recorded at meeting time: node 0 was a user when node 1 met
  // it, even though that contact then promoted node 0.
  EXPECT_EQ(ce.brokers_met(0, 2 * kMinute), 0u);
  EXPECT_EQ(ce.brokers_met(1, 2 * kMinute), 0u);
}

TEST(BrokerElection, CompactStateMatchesReferenceOnRealTrace) {
  // The pooled ring + open-addressing layout must be observation-for-
  // observation identical to the plain deque + hash-map model, role flips
  // included, across a dense synthetic trace (rings wrap, tables grow and
  // rehash, windows prune): compared after every contact.
  auto t = trace::generate_trace(trace::haggle_infocom06_config(31));
  const BrokerElection::Config config{3, 5, 5 * kHour};
  BrokerElection compact(t.node_count(), config);
  testing::ReferenceElection model(t.node_count(), config);
  for (const auto& c : t.contacts()) {
    compact.on_contact(c.a, c.b, c.start);
    model.on_contact(c.a, c.b, c.start);
    ASSERT_TRUE(
        testing::agree_after_contact(compact, model, c.a, c.b, c.start));
  }
  EXPECT_EQ(compact.broker_count(), model.broker_count());
  const util::Time end = t.end_time();
  for (trace::NodeId n = 0; n < t.node_count(); ++n) {
    ASSERT_EQ(compact.degree(n, end), model.degree(n, end)) << "node " << n;
    ASSERT_EQ(compact.brokers_met(n, end), model.brokers_met(n, end))
        << "node " << n;
  }
}

TEST(BrokerElection, CompactStateMatchesReferenceUnderWindowChurn) {
  // Tiny window forces constant pruning; a small node set forces repeat
  // meetings (table erasure + backward shift paths).
  trace::SyntheticTraceConfig cfg;
  cfg.node_count = 8;
  cfg.contact_count = 4000;
  cfg.duration = util::kDay;
  cfg.seed = 37;
  auto t = trace::generate_trace(cfg);
  const BrokerElection::Config config{2, 3, 10 * kMinute};
  BrokerElection compact(8, config);
  testing::ReferenceElection model(8, config);
  for (const auto& c : t.contacts()) {
    compact.on_contact(c.a, c.b, c.start);
    model.on_contact(c.a, c.b, c.start);
    ASSERT_TRUE(
        testing::agree_after_contact(compact, model, c.a, c.b, c.start));
  }
  EXPECT_GT(compact.demotions(), 0u);  // the churn reaches the demotion rule
  for (trace::NodeId n = 0; n < 8; ++n) {
    EXPECT_EQ(compact.is_broker(n), model.is_broker(n)) << "node " << n;
    EXPECT_EQ(compact.degree(n, t.end_time()), model.degree(n, t.end_time()));
  }
}

TEST(BrokerElection, StateBytesReservedGrowsWithActivity) {
  BrokerElection e(100, {3, 5, kHour});
  const std::size_t idle = e.state_bytes_reserved();
  EXPECT_GT(idle, 0u);  // the fixed NodeState array
  for (trace::NodeId p = 1; p < 50; ++p) e.on_contact(0, p, kMinute);
  EXPECT_GT(e.state_bytes_reserved(), idle);  // rings/tables came from pool
}

}  // namespace
}  // namespace bsub::core
