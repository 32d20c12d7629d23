#include "core/bsub_protocol.h"

#include "core/df_tuning.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "bloom/tcbf_codec.h"
#include "sim/simulator.h"
#include "testing/scenario.h"
#include "trace/synthetic.h"

namespace bsub::core {
namespace {

using bsub::testing::contact;
using bsub::testing::make_message;
using bsub::testing::two_keys;
using util::from_minutes;

/// A link with an effectively unlimited budget.
sim::Link big_link() { return sim::Link(util::kHour, 1e9); }

/// Config with the election neutralized so tests control roles directly.
BsubConfig pinned_roles_config() {
  BsubConfig cfg;
  cfg.broker_lower = 0;        // never promote
  cfg.broker_upper = 1000000;  // never demote
  cfg.df_per_minute = 0.0;     // no decay unless a test enables it
  return cfg;
}

/// Drives the protocol by hand: trace only provides node count.
struct Harness {
  workload::KeySet keys = two_keys();
  trace::ContactTrace trace;
  workload::Workload workload;
  metrics::Collector collector;
  BsubProtocol proto;

  Harness(std::size_t nodes, std::vector<workload::KeyId> interests,
          std::vector<workload::Message> messages,
          BsubConfig cfg = pinned_roles_config())
      : trace(nodes, {contact(0, 1, 0)}),  // placeholder contact
        workload(keys, nodes, std::move(interests), std::move(messages)),
        proto(cfg) {
    proto.on_start(trace, workload, collector);
  }

  void create_all_messages() {
    for (const auto& m : workload.messages()) {
      proto.on_message_created(m, m.created);
    }
  }

  void meet(trace::NodeId a, trace::NodeId b, double minute) {
    sim::Link link = big_link();
    proto.on_contact(a, b, from_minutes(minute), util::kHour, link);
  }
};

TEST(BsubProtocol, ConsumerInterestReachesBrokerRelay) {
  Harness h(2, {0, 1}, {});
  h.proto.election_mutable().set_broker(1, true);
  h.meet(0, 1, 1.0);
  // Node 0's interest (key 0 = "alpha") must now be in broker 1's relay.
  EXPECT_TRUE(
      h.proto.interests_mutable().relay(1, from_minutes(1)).contains("alpha"));
}

TEST(BsubProtocol, DirectProducerToConsumerDelivery) {
  Harness h(2, {0, 0}, {make_message(0, 0, 0)});
  h.create_all_messages();
  h.meet(0, 1, 5.0);
  auto r = h.collector.results();
  EXPECT_EQ(r.interested_deliveries, 1u);
  EXPECT_EQ(r.false_deliveries, 0u);
  EXPECT_NEAR(r.mean_delay_minutes, 5.0, 1e-9);
}

TEST(BsubProtocol, NonMatchingMessageNotDeliveredDirectly) {
  // Node 1 wants "beta"; producer has "alpha".
  Harness h(2, {0, 1}, {make_message(0, 0, 0)});
  h.create_all_messages();
  h.meet(0, 1, 5.0);
  EXPECT_EQ(h.collector.results().interested_deliveries, 0u);
}

TEST(BsubProtocol, ThreeHopPubSubPath) {
  // Nodes: 0 producer, 1 broker, 2 consumer (key 0). The consumer never
  // meets the producer; delivery must go through the broker.
  Harness h(3, {1, 1, 0}, {make_message(0, 0, 0)});
  h.proto.election_mutable().set_broker(1, true);
  h.create_all_messages();
  h.meet(2, 1, 1.0);   // interest propagation: consumer -> broker
  h.meet(0, 1, 10.0);  // pickup: producer -> broker
  h.meet(1, 2, 20.0);  // delivery: broker -> consumer
  auto r = h.collector.results();
  EXPECT_EQ(r.interested_deliveries, 1u);
  EXPECT_NEAR(r.mean_delay_minutes, 20.0, 1e-9);
  EXPECT_EQ(r.forwardings, 2u);  // pickup + delivery
  EXPECT_EQ(h.proto.false_injections(), 0u);
}

TEST(BsubProtocol, NoPickupWithoutPropagatedInterest) {
  // The broker's relay is empty: it must not pick anything up.
  Harness h(3, {1, 1, 0}, {make_message(0, 0, 0)});
  h.proto.election_mutable().set_broker(1, true);
  h.create_all_messages();
  h.meet(0, 1, 10.0);  // producer meets broker with empty relay
  EXPECT_EQ(h.collector.results().forwardings, 0u);
}

TEST(BsubProtocol, CopyLimitBoundsBrokerReplicas) {
  BsubConfig cfg = pinned_roles_config();
  cfg.copy_limit = 2;
  // Producer 0; brokers 1, 2, 3 all primed with consumer 4's interest.
  Harness h(5, {1, 1, 1, 1, 0}, {make_message(0, 0, 0)}, cfg);
  for (trace::NodeId b = 1; b <= 3; ++b) {
    h.proto.election_mutable().set_broker(b, true);
  }
  h.create_all_messages();
  for (trace::NodeId b = 1; b <= 3; ++b) h.meet(4, b, 1.0);  // interests
  for (trace::NodeId b = 1; b <= 3; ++b) h.meet(0, b, 10.0); // pickups
  // Only copy_limit pickups may happen.
  EXPECT_EQ(h.collector.results().forwardings, 2u);
  // After the limit, the producer forgot the message: a later direct meeting
  // with the consumer delivers nothing from the producer. The brokers still
  // deliver their copies.
  h.meet(0, 4, 20.0);
  EXPECT_EQ(h.collector.results().interested_deliveries, 0u);
  h.meet(1, 4, 30.0);
  EXPECT_EQ(h.collector.results().interested_deliveries, 1u);
}

TEST(BsubProtocol, DirectDeliveryDoesNotConsumeCopies) {
  BsubConfig cfg = pinned_roles_config();
  cfg.copy_limit = 1;
  // Producer 0, consumers 1 and 2, broker 3 primed by consumer 2.
  Harness h(4, {1, 0, 0, 1}, {make_message(0, 0, 0)}, cfg);
  h.proto.election_mutable().set_broker(3, true);
  h.create_all_messages();
  h.meet(1, 0, 1.0);  // direct delivery to consumer 1 (no copy spent)
  h.meet(2, 3, 2.0);  // consumer 2 primes broker 3
  h.meet(0, 3, 5.0);  // pickup still possible: copy budget intact
  h.meet(3, 2, 9.0);  // broker delivers to consumer 2
  EXPECT_EQ(h.collector.results().interested_deliveries, 2u);
}

TEST(BsubProtocol, BrokerExchangeMMergesRelays) {
  Harness h(3, {0, 1, 1}, {});
  h.proto.election_mutable().set_broker(1, true);
  h.proto.election_mutable().set_broker(2, true);
  h.meet(0, 1, 1.0);  // consumer 0 ("alpha") primes broker 1
  h.meet(1, 2, 5.0);  // broker-broker exchange
  EXPECT_TRUE(
      h.proto.interests_mutable().relay(2, from_minutes(5)).contains("alpha"));
}

TEST(BsubProtocol, PreferentialForwardingMovesMessageToBetterBroker) {
  // Broker 1 carries a message but broker 2 is closer to the consumer
  // (higher relay counter via repeated reinforcement).
  Harness h(4, {1, 1, 1, 0}, {make_message(0, 0, 0)});
  h.proto.election_mutable().set_broker(1, true);
  h.proto.election_mutable().set_broker(2, true);
  h.create_all_messages();
  h.meet(3, 1, 1.0);  // consumer primes broker 1 once
  h.meet(3, 2, 2.0);  // consumer primes broker 2 twice (stronger)
  h.meet(3, 2, 3.0);
  h.meet(0, 1, 10.0);  // producer -> broker 1 pickup
  ASSERT_EQ(h.collector.results().forwardings, 1u);
  h.meet(1, 2, 20.0);  // broker exchange: message should move to broker 2
  EXPECT_EQ(h.collector.results().forwardings, 2u);
  // Single custody: broker 1 dropped it; only broker 2 can deliver now.
  h.meet(1, 3, 25.0);
  EXPECT_EQ(h.collector.results().interested_deliveries, 0u);
  h.meet(2, 3, 30.0);
  EXPECT_EQ(h.collector.results().interested_deliveries, 1u);
}

TEST(BsubProtocol, NoBackwardForwardingBetweenBrokers) {
  // After the message moves 1 -> 2, a second meeting must not bounce it
  // back (reverse preference is negative).
  Harness h(4, {1, 1, 1, 0}, {make_message(0, 0, 0)});
  h.proto.election_mutable().set_broker(1, true);
  h.proto.election_mutable().set_broker(2, true);
  h.create_all_messages();
  h.meet(3, 2, 1.0);
  h.meet(3, 2, 2.0);
  h.meet(3, 1, 3.0);
  h.meet(0, 1, 10.0);
  h.meet(1, 2, 20.0);  // moves to 2
  auto before = h.collector.results().forwardings;
  h.meet(1, 2, 21.0);  // must not move again
  EXPECT_EQ(h.collector.results().forwardings, before);
}

TEST(BsubProtocol, FalselyInjectedCopyKeepsItsMarkAcrossCustody) {
  // Broker 1's relay holds "target"'s bits only because other keys'
  // genuine filters set them, so its pickup of a "target" message is a
  // false injection. Custody then moves the copy to broker 2, which a real
  // "target" subscriber primed, and broker 2 hands it to that subscriber:
  // an interested delivery that still counts as a false one.
  const bloom::BloomParams params = pinned_roles_config().filter_params;
  std::vector<workload::KeyInfo> universe = {{"target", 0}, {"filler", 0}};
  int n = 0;
  for (const std::size_t bit : util::bloom_indices(util::hash_pair("target"),
                                                   params.k, params.m)) {
    for (;; ++n) {  // the next "cover-<n>" that sets this bit of "target"
      const std::string name = "cover-" + std::to_string(n);
      const util::IndexArray bits =
          util::bloom_indices(util::hash_pair(name), params.k, params.m);
      if (std::find(bits.begin(), bits.end(), bit) != bits.end()) {
        universe.push_back({name, 0});
        ++n;
        break;
      }
    }
  }
  for (workload::KeyInfo& key : universe) {
    key.weight = 1.0 / static_cast<double>(universe.size());
  }
  const workload::KeySet keys(universe);
  constexpr workload::KeyId kTarget = 0;
  constexpr workload::KeyId kFiller = 1;
  std::vector<workload::KeyId> covers;
  for (workload::KeyId k = 2; k < keys.size(); ++k) covers.push_back(k);
  bloom::BloomFilter filler_report(params);
  filler_report.insert("filler");
  ASSERT_FALSE(filler_report.contains("target"));

  // 0 produces; 1 and 2 are brokers; 3 subscribes to the cover keys, 4 to
  // "target".
  const trace::ContactTrace trace(5, {contact(0, 1, 0)});
  const workload::Workload workload(
      keys, 5, {{kFiller}, {kFiller}, {kFiller}, covers, {kTarget}},
      {make_message(0, kTarget, 0)});
  metrics::Collector collector;
  BsubProtocol proto(pinned_roles_config());
  proto.on_start(trace, workload, collector);
  proto.election_mutable().set_broker(1, true);
  proto.election_mutable().set_broker(2, true);
  proto.on_message_created(workload.messages()[0], 0);
  auto meet = [&](trace::NodeId a, trace::NodeId b, double minute) {
    sim::Link link = big_link();
    proto.on_contact(a, b, from_minutes(minute), util::kHour, link);
  };

  meet(3, 1, 1.0);  // the cover keys set every bit of "target" in relay 1
  ASSERT_TRUE(proto.interests().relay_snapshot(1).contains("target"));
  meet(4, 2, 2.0);  // the subscriber primes broker 2 twice
  meet(4, 2, 3.0);
  meet(0, 1, 4.0);  // pickup on the relay false positive
  ASSERT_EQ(proto.traffic().pickups, 1u);
  ASSERT_EQ(proto.false_injections(), 1u);
  ASSERT_GT(bloom::preference(proto.interests().relay_snapshot(2),
                              proto.interests().relay_snapshot(1), "target"),
            0.0);
  meet(1, 2, 5.0);  // custody moves to the better broker
  ASSERT_EQ(proto.traffic().broker_transfers, 1u);
  ASSERT_EQ(collector.results().interested_deliveries, 0u);
  meet(2, 4, 6.0);
  const metrics::RunResults r = collector.results();
  EXPECT_EQ(proto.traffic().deliveries, 1u);
  EXPECT_EQ(r.interested_deliveries, 1u);
  EXPECT_EQ(r.false_deliveries, 1u);
  EXPECT_DOUBLE_EQ(r.false_positive_rate, 1.0);
}

TEST(BsubProtocol, DecayErasesStaleInterests) {
  BsubConfig cfg = pinned_roles_config();
  cfg.df_per_minute = 1.0;  // C=50 drains in 50 minutes
  Harness h(3, {1, 1, 0}, {make_message(0, 0, from_minutes(100))}, cfg);
  h.proto.election_mutable().set_broker(1, true);
  h.meet(2, 1, 1.0);  // consumer primes broker
  h.create_all_messages();
  h.meet(0, 1, 100.0);  // 99 minutes later: interest long gone, no pickup
  EXPECT_EQ(h.collector.results().forwardings, 0u);
}

TEST(BsubProtocol, ReinforcementKeepsInterestAliveUnderDecay) {
  BsubConfig cfg = pinned_roles_config();
  cfg.df_per_minute = 1.0;
  Harness h(3, {1, 1, 0}, {make_message(0, 0, from_minutes(100))}, cfg);
  h.proto.election_mutable().set_broker(1, true);
  // Consumer meets the broker every 30 minutes: counters pile up.
  for (int m = 0; m <= 90; m += 30) h.meet(2, 1, m);
  h.create_all_messages();
  h.meet(0, 1, 100.0);
  EXPECT_EQ(h.collector.results().forwardings, 1u);  // pickup happened
}

TEST(BsubProtocol, ExpiredMessagesPurgedEverywhere) {
  Harness h(3, {1, 1, 0},
            {make_message(0, 0, 0, /*ttl=*/from_minutes(15))});
  h.proto.election_mutable().set_broker(1, true);
  h.create_all_messages();
  h.meet(2, 1, 1.0);
  h.meet(0, 1, 5.0);  // picked up at t=5
  ASSERT_EQ(h.collector.results().forwardings, 1u);
  h.meet(1, 2, 30.0);  // expired at 15: no delivery
  EXPECT_EQ(h.collector.results().interested_deliveries, 0u);
}

TEST(BsubProtocol, ControlBytesAreAccounted) {
  Harness h(2, {0, 1}, {});
  h.proto.election_mutable().set_broker(1, true);
  h.meet(0, 1, 1.0);
  EXPECT_GT(h.collector.results().control_bytes, 0u);
}

// --- Send order under a byte budget ----------------------------------------
//
// Every test above runs on a link that never fills. These use a link that
// admits the contact's filters plus exactly N bodies, and pin which N go
// out: the N lowest ids among the messages that pass, interleaved across
// the matching keys, never key by key.

constexpr workload::KeyId kAlpha = 0;
constexpr workload::KeyId kBeta = 1;
constexpr workload::KeyId kGamma = 2;
constexpr workload::KeyId kDelta = 3;
constexpr std::uint32_t kBodyBytes = 100;

struct BudgetHarness {
  workload::KeySet keys = workload::KeySet(
      {{"alpha", 0.25}, {"beta", 0.25}, {"gamma", 0.25}, {"delta", 0.25}});
  trace::ContactTrace trace;
  workload::Workload workload;
  metrics::Collector collector;
  BsubProtocol proto;

  /// Node 0 produces one message per entry of `message_keys`, in that id
  /// order (created a second apart).
  BudgetHarness(std::vector<std::vector<workload::KeyId>> interests,
                const std::vector<workload::KeyId>& message_keys)
      : trace(interests.size(), {contact(0, 1, 0)}),
        workload(keys, trace.node_count(), std::move(interests),
                 messages_of(message_keys)),
        proto(pinned_roles_config()) {
    proto.on_start(trace, workload, collector);
    for (const auto& m : workload.messages()) {
      proto.on_message_created(m, m.created);
    }
  }

  static std::vector<workload::Message> messages_of(
      const std::vector<workload::KeyId>& message_keys) {
    std::vector<workload::Message> out;
    for (std::size_t i = 0; i < message_keys.size(); ++i) {
      out.push_back(make_message(0, message_keys[i],
                                 util::from_seconds(static_cast<double>(i)),
                                 util::kDay, kBodyBytes));
    }
    return out;
  }

  void meet(trace::NodeId a, trace::NodeId b, double minute) {
    sim::Link link = big_link();
    meet(a, b, minute, link);
  }
  void meet(trace::NodeId a, trace::NodeId b, double minute, sim::Link& link) {
    proto.on_contact(a, b, from_minutes(minute), util::kHour, link);
  }

  /// A link whose budget is `control` bytes of filters plus `bodies` bodies.
  static sim::Link budget_link(std::size_t control, std::size_t bodies) {
    return sim::Link(util::kSecond,
                     static_cast<double>(control + bodies * kBodyBytes));
  }

  /// Exact wire size of a node's interest report.
  std::size_t report_bytes(trace::NodeId node) const {
    std::vector<std::string_view> names;
    for (workload::KeyId k : workload.interests_of(node)) {
      names.push_back(keys.name(k));
    }
    return bloom::encoded_bloom_wire_size(proto.interests().make_report(names));
  }

  /// Exact wire size of a broker's relay filter shipped counter-less.
  std::size_t relay_bloom_bytes(trace::NodeId broker) const {
    const bloom::Tcbf& relay = proto.interests().relay_snapshot(broker);
    return bloom::encoded_bloom_wire_size(relay.popcount(), relay.params());
  }

  /// Exact wire size of a broker's relay filter with full counters.
  std::size_t relay_full_bytes(trace::NodeId broker) const {
    return bloom::encoded_tcbf_wire_size(
        proto.interests().relay_snapshot(broker),
        bloom::CounterEncoding::kFull);
  }

  std::vector<workload::MessageId> delivered_to(trace::NodeId node) const {
    std::vector<workload::MessageId> ids;
    for (const auto& m : workload.messages()) {
      if (collector.delivered(m.id, node)) ids.push_back(m.id);
    }
    return ids;
  }

  /// The `n` lowest ids among the messages whose key is in `wanted`.
  std::vector<workload::MessageId> lowest_ids(
      std::vector<workload::KeyId> wanted, std::size_t n) const {
    std::vector<workload::MessageId> ids;
    for (const auto& m : workload.messages()) {
      if (ids.size() < n &&
          std::find(wanted.begin(), wanted.end(), m.key) != wanted.end()) {
        ids.push_back(m.id);
      }
    }
    return ids;
  }
};

TEST(BsubBudgetOrder, ProducerSendsLowestIdsAcrossConsumerKeys) {
  // Consumer 1 wants alpha and beta. Key by key would send alpha's 1,4,5,8
  // or beta's 0,3,7,9; id order sends 0,1,3,4.
  BudgetHarness h({{kDelta}, {kAlpha, kBeta}},
                  {kBeta, kAlpha, kGamma, kBeta, kAlpha, kAlpha, kGamma,
                   kBeta, kAlpha, kBeta});
  sim::Link link = BudgetHarness::budget_link(h.report_bytes(1), 4);
  h.meet(0, 1, 5.0, link);
  const std::vector<workload::MessageId> want = {0, 1, 3, 4};
  EXPECT_EQ(h.lowest_ids({kAlpha, kBeta}, 4), want);
  EXPECT_EQ(h.delivered_to(1), want);
  EXPECT_EQ(h.proto.traffic().deliveries, 4u);
}

TEST(BsubBudgetOrder, CarriedCopiesGoOutInIdOrderAcrossKeys) {
  // Broker 1 picks up every alpha/beta message for consumer 2, then offers
  // its carried copies to 2 over a link that fits three bodies.
  BudgetHarness h({{kDelta}, {kDelta}, {kAlpha, kBeta}},
                  {kBeta, kGamma, kAlpha, kAlpha, kBeta, kGamma, kAlpha,
                   kBeta});
  h.proto.election_mutable().set_broker(1, true);
  h.meet(2, 1, 1.0);  // consumer primes the broker with both keys
  h.meet(0, 1, 2.0);  // pickup of every alpha/beta message
  ASSERT_EQ(h.proto.traffic().pickups, 6u);
  sim::Link link = BudgetHarness::budget_link(h.report_bytes(2), 3);
  h.meet(1, 2, 3.0, link);
  const std::vector<workload::MessageId> want = {0, 2, 3};
  EXPECT_EQ(h.lowest_ids({kAlpha, kBeta}, 3), want);
  EXPECT_EQ(h.delivered_to(2), want);
}

TEST(BsubBudgetOrder, PickupTakesLowestIdsAcrossRelayKeys) {
  // Broker 1's relay routes alpha and beta; the producer's link fits the
  // three filters of the contact plus four bodies.
  BudgetHarness h({{kDelta}, {kDelta}, {kAlpha, kBeta}},
                  {kAlpha, kGamma, kBeta, kBeta, kAlpha, kBeta, kAlpha,
                   kGamma, kAlpha});
  h.proto.election_mutable().set_broker(1, true);
  h.meet(2, 1, 1.0);
  const std::size_t control =
      h.report_bytes(1) + h.report_bytes(0) + h.relay_bloom_bytes(1);
  sim::Link link = BudgetHarness::budget_link(control, 4);
  h.meet(0, 1, 2.0, link);
  EXPECT_EQ(h.proto.traffic().pickups, 4u);
  // What the broker took is what it can hand to the consumer.
  h.meet(1, 2, 3.0);
  const std::vector<workload::MessageId> want = {0, 2, 3, 4};
  EXPECT_EQ(h.lowest_ids({kAlpha, kBeta}, 4), want);
  EXPECT_EQ(h.delivered_to(2), want);
}

TEST(BsubBudgetOrder, BrokerForwardingRanksByPreferenceThenId) {
  // Broker 2 is the better custodian for every key: alpha and beta at the
  // same preference, gamma higher. Gamma goes first, then alpha and beta
  // merged by id.
  BudgetHarness h({{kDelta}, {kDelta}, {kDelta}, {kAlpha, kBeta}, {kGamma}},
                  {kAlpha, kBeta, kGamma, kAlpha, kBeta, kGamma, kBeta,
                   kAlpha, kAlpha, kBeta});
  h.proto.election_mutable().set_broker(1, true);
  h.proto.election_mutable().set_broker(2, true);
  h.meet(3, 1, 1.0);  // broker 1: alpha, beta, gamma once
  h.meet(4, 1, 1.5);
  h.meet(3, 2, 2.0);  // broker 2: alpha, beta twice, gamma three times
  h.meet(3, 2, 2.5);
  for (double minute : {3.0, 3.5, 4.0}) h.meet(4, 2, minute);
  h.meet(0, 1, 5.0);  // broker 1 picks up all ten messages
  ASSERT_EQ(h.proto.traffic().pickups, 10u);

  const bloom::Tcbf& relay1 = h.proto.interests().relay_snapshot(1);
  const bloom::Tcbf& relay2 = h.proto.interests().relay_snapshot(2);
  const double pref_alpha = bloom::preference(relay2, relay1, "alpha");
  ASSERT_GT(pref_alpha, 0.0);
  ASSERT_EQ(bloom::preference(relay2, relay1, "beta"), pref_alpha);
  ASSERT_GT(bloom::preference(relay2, relay1, "gamma"), pref_alpha);

  const std::size_t control = h.relay_full_bytes(1) + h.relay_full_bytes(2);
  sim::Link link = BudgetHarness::budget_link(control, 5);
  h.meet(1, 2, 10.0, link);
  EXPECT_EQ(h.proto.traffic().broker_transfers, 5u);
  // What moved is what broker 2 can hand to the consumers.
  h.meet(2, 3, 20.0);
  h.meet(2, 4, 21.0);
  EXPECT_EQ(h.delivered_to(4), (std::vector<workload::MessageId>{2, 5}));
  EXPECT_EQ(h.delivered_to(3), (std::vector<workload::MessageId>{0, 1, 3}));
  EXPECT_EQ(h.lowest_ids({kAlpha, kBeta}, 3),
            (std::vector<workload::MessageId>{0, 1, 3}));
}

TEST(BsubBufferWalk, ContactVisitsOnlyTheMatchingKeysEntries) {
  // The producer holds 1,000 beta messages and 3 alpha ones; the consumer
  // wants alpha. Neither is a broker, so the contact's only buffer walk is
  // direct delivery, and it touches the alpha bucket alone.
  std::vector<workload::Message> messages;
  for (int i = 0; i < 1000; ++i) {
    messages.push_back(make_message(0, 1, from_minutes(0.01 * i)));
  }
  for (int i = 0; i < 3; ++i) {
    messages.push_back(make_message(0, 0, from_minutes(0.5 + 0.01 * i)));
  }
  Harness h(2, {1, 0}, std::move(messages));
  h.create_all_messages();
  h.meet(1, 0, 20.0);
  const metrics::RunResults r = h.collector.results();
  EXPECT_EQ(r.interested_deliveries, 3u);
  EXPECT_EQ(r.hot_path.buffer_entries_visited, 3u);
}

TEST(BsubProtocol, RunsEndToEndOnSyntheticTrace) {
  trace::SyntheticTraceConfig tcfg;
  tcfg.node_count = 30;
  tcfg.contact_count = 6000;
  tcfg.duration = util::kDay;
  tcfg.seed = 77;
  auto t = trace::generate_trace(tcfg);
  auto keys = workload::twitter_trend_keys();
  workload::WorkloadConfig wcfg;
  wcfg.ttl = 6 * util::kHour;
  workload::Workload w(t, keys, wcfg);

  BsubConfig cfg;
  cfg.df_per_minute =
      compute_df(t, wcfg.ttl, cfg.filter_params, cfg.initial_counter)
          .df_per_minute;
  BsubProtocol proto(cfg);
  sim::Simulator sim;
  auto r = sim.run(t, w, proto);
  EXPECT_GT(r.delivery_ratio, 0.05);
  EXPECT_GT(r.forwardings, 0u);
  EXPECT_GT(proto.election().broker_count(), 0u);
}

TEST(BsubProtocol, DeterministicAcrossRuns) {
  trace::SyntheticTraceConfig tcfg;
  tcfg.node_count = 20;
  tcfg.contact_count = 3000;
  tcfg.duration = util::kDay;
  tcfg.seed = 88;
  auto t = trace::generate_trace(tcfg);
  auto keys = workload::twitter_trend_keys();
  workload::Workload w(t, keys, {});

  auto run_once = [&] {
    BsubProtocol proto;
    sim::Simulator sim;
    return sim.run(t, w, proto);
  };
  auto r1 = run_once();
  auto r2 = run_once();
  EXPECT_EQ(r1.interested_deliveries, r2.interested_deliveries);
  EXPECT_EQ(r1.forwardings, r2.forwardings);
  EXPECT_EQ(r1.false_deliveries, r2.false_deliveries);
  EXPECT_EQ(r1.control_bytes, r2.control_bytes);
  EXPECT_DOUBLE_EQ(r1.mean_delay_minutes, r2.mean_delay_minutes);
}

TEST(BsubProtocol, AdaptiveDfModeRunsAndDelivers) {
  trace::SyntheticTraceConfig tcfg;
  tcfg.node_count = 25;
  tcfg.contact_count = 4000;
  tcfg.duration = util::kDay;
  tcfg.seed = 91;
  auto t = trace::generate_trace(tcfg);
  auto keys = workload::twitter_trend_keys();
  workload::WorkloadConfig wcfg;
  wcfg.ttl = 6 * util::kHour;
  workload::Workload w(t, keys, wcfg);
  BsubConfig cfg;
  cfg.adaptive_df = true;
  cfg.df_window = wcfg.ttl;
  BsubProtocol proto(cfg);
  sim::Simulator sim;
  auto r = sim.run(t, w, proto);
  EXPECT_GT(r.interested_deliveries, 0u);
}

TEST(BsubTieTransfers, NoDecayMeansNoRoundingTies) {
  // Two brokers that M-merged hold identical counters; each then decays
  // them through its own lazy base, which leaves them a few ULPs apart, so
  // custody can move on a "preference" that is only rounding. At DF 0 no
  // base exists and every broker-to-broker move rides a real preference;
  // at Eq. 5's DF the same run moves custody on such ties.
  trace::SyntheticTraceConfig tcfg;
  tcfg.node_count = 30;
  tcfg.contact_count = 6000;
  tcfg.duration = util::kDay;
  tcfg.seed = 77;
  const auto t = trace::generate_trace(tcfg);
  const auto keys = workload::twitter_trend_keys();
  workload::WorkloadConfig wcfg;
  wcfg.ttl = 6 * util::kHour;
  const workload::Workload w(t, keys, wcfg);
  auto run = [&](double df) {
    BsubConfig cfg;
    cfg.df_per_minute = df;
    BsubProtocol proto(cfg);
    sim::Simulator().run(t, w, proto);
    return proto.traffic();
  };
  const BsubProtocol::TrafficBreakdown still = run(0.0);
  EXPECT_GT(still.broker_transfers, 0u);
  EXPECT_EQ(still.tie_transfers, 0u);
  const BsubProtocol::TrafficBreakdown decaying = run(
      compute_df(t, wcfg.ttl, BsubConfig{}.filter_params, 50.0).df_per_minute);
  EXPECT_GT(decaying.tie_transfers, 0u);
  EXPECT_LE(decaying.tie_transfers, decaying.broker_transfers);
}

}  // namespace
}  // namespace bsub::core
