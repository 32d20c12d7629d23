#include <gtest/gtest.h>

#include "engine/network.h"

namespace bsub::engine {
namespace {

using util::from_minutes;
using util::kHour;

ContentMessage msg(std::uint64_t id, std::string key, util::Time created,
                   util::Time ttl = util::kDay) {
  ContentMessage m;
  m.id = id;
  m.key = std::move(key);
  m.body = std::vector<std::uint8_t>(100, 0xAB);
  m.created = created;
  m.ttl = ttl;
  return m;
}

/// Owning copies of one node step's frames, which are views valid only
/// until the next step on this thread.
std::vector<std::vector<std::uint8_t>> owned(Frames frames) {
  std::vector<std::vector<std::uint8_t>> out;
  for (const auto& f : frames) out.emplace_back(f.begin(), f.end());
  return out;
}

NodeConfig no_decay() {
  NodeConfig cfg;
  cfg.df_per_minute = 0.0;
  return cfg;
}

TEST(Engine, DirectDeliveryProducerToConsumer) {
  Network net(no_decay());
  BsubNode& producer = net.add_node(1);
  BsubNode& consumer = net.add_node(2);
  consumer.subscribe("NewMoon");
  producer.publish(msg(1, "NewMoon", from_minutes(1)), from_minutes(1));

  net.contact(1, 2, from_minutes(5), kHour);
  ASSERT_EQ(net.deliveries().size(), 1u);
  EXPECT_EQ(net.deliveries()[0].consumer, 2u);
  EXPECT_EQ(net.deliveries()[0].key, "NewMoon");
  EXPECT_EQ(net.deliveries()[0].at, from_minutes(5));
}

TEST(Engine, NonSubscriberGetsNothing) {
  Network net(no_decay());
  net.add_node(1).publish(msg(1, "NewMoon", 0), 0);
  net.add_node(2).subscribe("Yankees");
  net.contact(1, 2, from_minutes(5), kHour);
  EXPECT_TRUE(net.deliveries().empty());
}

TEST(Engine, DuplicateContactsDeliverOnce) {
  Network net(no_decay());
  net.add_node(1).publish(msg(1, "NewMoon", 0), 0);
  net.add_node(2).subscribe("NewMoon");
  net.contact(1, 2, from_minutes(5), kHour);
  net.contact(1, 2, from_minutes(10), kHour);
  EXPECT_EQ(net.deliveries().size(), 1u);
}

TEST(Engine, ThreeHopViaBroker) {
  Network net(no_decay());
  BsubNode& producer = net.add_node(1);
  BsubNode& broker = net.add_node(2);
  BsubNode& consumer = net.add_node(3);
  broker.set_broker(true);
  consumer.subscribe("NewMoon");
  producer.publish(msg(1, "NewMoon", 0), 0);

  // Consumer primes the broker, broker picks up from producer, broker
  // delivers; producer and consumer never meet.
  net.contact(3, 2, from_minutes(1), kHour);
  EXPECT_TRUE(broker.relay_filter().contains("NewMoon"));
  net.contact(1, 2, from_minutes(10), kHour);
  EXPECT_EQ(broker.carried_count(), 1u);
  net.contact(2, 3, from_minutes(20), kHour);
  ASSERT_EQ(net.deliveries().size(), 1u);
  EXPECT_EQ(net.deliveries()[0].consumer, 3u);
}

TEST(Engine, NoPickupWithoutPrimedRelay) {
  Network net(no_decay());
  net.add_node(1).publish(msg(1, "NewMoon", 0), 0);
  BsubNode& broker = net.add_node(2);
  broker.set_broker(true);
  net.contact(1, 2, from_minutes(5), kHour);
  EXPECT_EQ(broker.carried_count(), 0u);
}

TEST(Engine, CopyLimitStopsReplication) {
  NodeConfig cfg = no_decay();
  cfg.copy_limit = 2;
  Network net(cfg);
  BsubNode& producer = net.add_node(1);
  producer.publish(msg(1, "NewMoon", 0), 0);
  for (NodeId b = 2; b <= 4; ++b) {
    BsubNode& broker = net.add_node(b);
    broker.set_broker(true);
  }
  BsubNode& consumer = net.add_node(5);
  consumer.subscribe("NewMoon");
  for (NodeId b = 2; b <= 4; ++b) net.contact(5, b, from_minutes(1), kHour);
  for (NodeId b = 2; b <= 4; ++b) net.contact(1, b, from_minutes(10), kHour);
  std::size_t carried = 0;
  for (NodeId b = 2; b <= 4; ++b) carried += net.node(b).carried_count();
  EXPECT_EQ(carried, 2u);
  EXPECT_EQ(producer.produced_count(), 0u);  // budget exhausted, forgotten
}

TEST(Engine, DecayErasesRouteAndGatesDelivery) {
  NodeConfig cfg;
  cfg.df_per_minute = 1.0;  // C = 50 -> 50-minute route lifetime
  Network net(cfg);
  net.add_node(1).publish(msg(1, "NewMoon", 0, 10 * kHour), 0);
  BsubNode& broker = net.add_node(2);
  broker.set_broker(true);
  BsubNode& consumer = net.add_node(3);
  consumer.subscribe("NewMoon");

  net.contact(3, 2, from_minutes(1), kHour);   // prime
  net.contact(1, 2, from_minutes(10), kHour);  // pickup (route alive)
  ASSERT_EQ(broker.carried_count(), 1u);
  net.contact(2, 3, from_minutes(120), kHour);  // route decayed: gated
  EXPECT_TRUE(net.deliveries().empty());
  // Re-priming reopens the route.
  net.contact(3, 2, from_minutes(130), kHour);
  net.contact(2, 3, from_minutes(131), kHour);
  EXPECT_EQ(net.deliveries().size(), 1u);
}

TEST(Engine, PreferentialTransferBetweenBrokers) {
  Network net(no_decay());
  net.add_node(1).publish(msg(1, "NewMoon", 0), 0);
  BsubNode& b1 = net.add_node(2);
  BsubNode& b2 = net.add_node(3);
  b1.set_broker(true);
  b2.set_broker(true);
  BsubNode& consumer = net.add_node(4);
  consumer.subscribe("NewMoon");

  net.contact(4, 2, from_minutes(1), kHour);  // prime b1 once
  net.contact(4, 3, from_minutes(2), kHour);  // prime b2 twice: stronger
  net.contact(4, 3, from_minutes(3), kHour);
  net.contact(1, 2, from_minutes(10), kHour);  // pickup at b1
  ASSERT_EQ(b1.carried_count(), 1u);
  net.contact(2, 3, from_minutes(20), kHour);  // moves to b2
  EXPECT_EQ(b1.carried_count(), 0u);
  EXPECT_EQ(b2.carried_count(), 1u);
}

TEST(Engine, BudgetExhaustionDropsFrames) {
  Network net(no_decay());
  BsubNode& producer = net.add_node(1);
  BsubNode& consumer = net.add_node(2);
  consumer.subscribe("NewMoon");
  for (std::uint64_t i = 0; i < 50; ++i) {
    producer.publish(msg(i, "NewMoon", 0), 0);
  }
  // A very short/slow contact: only part of the exchange fits.
  ContactReport report =
      net.contact(1, 2, from_minutes(5), util::kSecond, 500.0);
  EXPECT_GT(report.frames_dropped, 0u);
  EXPECT_LT(net.deliveries().size(), 50u);
  EXPECT_LE(report.bytes_used, 500u);
}

TEST(Engine, TtlExpiryPurgesEverywhere) {
  Network net(no_decay());
  net.add_node(1).publish(msg(1, "NewMoon", 0, from_minutes(30)), 0);
  BsubNode& consumer = net.add_node(2);
  consumer.subscribe("NewMoon");
  net.contact(1, 2, from_minutes(60), kHour);  // expired before the meeting
  EXPECT_TRUE(net.deliveries().empty());
}

TEST(Engine, MultiSubscriptionConsumer) {
  Network net(no_decay());
  BsubNode& producer = net.add_node(1);
  producer.publish(msg(1, "NewMoon", 0), 0);
  producer.publish(msg(2, "Yankees", 0), 0);
  producer.publish(msg(3, "LadyGaga", 0), 0);
  BsubNode& consumer = net.add_node(2);
  consumer.subscribe("NewMoon");
  consumer.subscribe("LadyGaga");
  net.contact(1, 2, from_minutes(5), kHour);
  EXPECT_EQ(net.deliveries().size(), 2u);
}

TEST(Engine, HelloCacheSurvivesDecayThatClearsNoBit) {
  // The relay's hello projection only changes when a bit does: decay only
  // clears bits and merges only set them.
  Network net;  // default DF: 0.1 per minute, counters start at 50
  BsubNode& broker = net.add_node(1);
  broker.set_broker(true);
  net.add_node(2).subscribe("NewMoon");
  net.contact(2, 1, from_minutes(1), kHour);  // A-merges NewMoon's bits
  ASSERT_TRUE(broker.relay_filter().contains("NewMoon"));

  const auto first = owned(broker.begin_contact(from_minutes(2)));
  const std::uint64_t hits = broker.frame_cache_hits();
  const std::uint64_t misses = broker.frame_cache_misses();
  const std::uint64_t epoch = broker.relay_filter().epoch();

  // Ten minutes of decay drain every counter by 1 and clear none: the
  // relay's epoch moves, its bits do not, so the hello is a cache hit.
  const auto decayed = owned(broker.begin_contact(from_minutes(12)));
  EXPECT_NE(broker.relay_filter().epoch(), epoch);
  EXPECT_EQ(decayed, first);
  EXPECT_EQ(broker.frame_cache_hits(), hits + 1);
  EXPECT_EQ(broker.frame_cache_misses(), misses);

  // A merge that sets a new bit forces a re-encode.
  net.add_node(3).subscribe("Eclipse");
  net.contact(3, 1, from_minutes(20), kHour);
  ASSERT_TRUE(broker.relay_filter().contains("Eclipse"));
  const std::uint64_t misses_before_merge = broker.frame_cache_misses();
  const auto merged = owned(broker.begin_contact(from_minutes(21)));
  EXPECT_EQ(broker.frame_cache_misses(), misses_before_merge + 1);
  EXPECT_NE(merged, first);

  // A decay that drains a counter to zero clears its bit and forces a
  // re-encode too: NewMoon's counters (~50 at minute 1) are gone by minute
  // 510, Eclipse's (~50 at minute 20) are not.
  const std::uint64_t misses_before_drain = broker.frame_cache_misses();
  const auto drained = owned(broker.begin_contact(from_minutes(510)));
  EXPECT_FALSE(broker.relay_filter().contains("NewMoon"));
  EXPECT_TRUE(broker.relay_filter().contains("Eclipse"));
  EXPECT_EQ(broker.frame_cache_misses(), misses_before_drain + 1);
  EXPECT_NE(drained, merged);

  // Every hello, hit or miss, equals a fresh encoding of the current state.
  HelloFrame expect;
  expect.sender = 1;
  expect.is_broker = true;
  expect.interest_report = bloom::BloomFilter(NodeConfig{}.filter_params);
  expect.relay_report = broker.relay_filter().to_bloom_filter();
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0], encode(expect));
}

TEST(Engine, DuplicateNodeIdThrows) {
  Network net;
  net.add_node(1);
  EXPECT_THROW(net.add_node(1), std::invalid_argument);
  EXPECT_THROW(net.node(99), std::out_of_range);
}

TEST(Engine, GarbageFramesAreDropped) {
  Network net(no_decay());
  BsubNode& node = net.add_node(1);
  std::vector<std::uint8_t> garbage = {0xDE, 0xAD, 0xBE, 0xEF};
  EXPECT_TRUE(node.handle(garbage, from_minutes(1)).empty());
}

TEST(Engine, ForeignFilterGeometryFramesAreDropped) {
  // A broker on the default geometry (m = 256) with a primed relay meets a
  // broker configured with m = 512, whose genuine and relay frames can be
  // neither merged nor ranked: both are dropped like garbage, without
  // throwing and without touching (or decaying) the relay.
  Network net;  // default DF > 0, so any relay access would decay it
  BsubNode& broker = net.add_node(1);
  broker.set_broker(true);
  net.add_node(2).subscribe("NewMoon");
  net.contact(2, 1, from_minutes(1), kHour);
  ASSERT_TRUE(broker.relay_filter().contains("NewMoon"));

  NodeConfig wide_cfg;
  wide_cfg.filter_params = {512, 4};
  BsubNode wide(3, wide_cfg);
  wide.set_broker(true);
  wide.subscribe("NewMoon");
  const auto hello = owned(broker.begin_contact(from_minutes(30)));
  ASSERT_EQ(hello.size(), 1u);
  const auto frames = owned(wide.handle(hello[0], from_minutes(30)));
  ASSERT_EQ(frames.size(), 2u);  // its genuine filter, then its relay
  const std::uint64_t epoch = broker.relay_filter().epoch();
  for (const auto& frame : frames) {
    Frames out;
    EXPECT_NO_THROW(out = broker.handle(frame, from_minutes(40)));
    EXPECT_TRUE(out.empty());
  }
  EXPECT_EQ(broker.relay_filter().epoch(), epoch);
}

}  // namespace
}  // namespace bsub::engine
