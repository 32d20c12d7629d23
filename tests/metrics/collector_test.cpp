#include "metrics/collector.h"

#include <gtest/gtest.h>

namespace bsub::metrics {
namespace {

workload::Message msg(workload::MessageId id, util::Time created = 0) {
  workload::Message m;
  m.id = id;
  m.key = 0;
  m.producer = 0;
  m.size_bytes = 100;
  m.created = created;
  m.ttl = util::kHour;
  return m;
}

TEST(Collector, EmptyResults) {
  Collector c;
  RunResults r = c.results();
  EXPECT_EQ(r.interested_deliveries, 0u);
  EXPECT_DOUBLE_EQ(r.delivery_ratio, 0.0);
  EXPECT_DOUBLE_EQ(r.false_positive_rate, 0.0);
  EXPECT_DOUBLE_EQ(r.forwardings_per_delivery, 0.0);
}

TEST(Collector, DeliveryRatio) {
  Collector c;
  c.set_expected(10, 4);
  c.record_delivery(msg(1), 1, util::kMinute, true);
  c.record_delivery(msg(2), 2, util::kMinute, true);
  RunResults r = c.results();
  EXPECT_EQ(r.interested_deliveries, 2u);
  EXPECT_DOUBLE_EQ(r.delivery_ratio, 0.5);
}

TEST(Collector, DuplicateDeliveriesIgnored) {
  Collector c;
  c.set_expected(10, 4);
  c.record_delivery(msg(1), 1, util::kMinute, true);
  c.record_delivery(msg(1), 1, 2 * util::kMinute, true);
  EXPECT_EQ(c.results().interested_deliveries, 1u);
}

TEST(Collector, SameMessageDifferentNodesBothCount) {
  Collector c;
  c.set_expected(10, 4);
  c.record_delivery(msg(1), 1, util::kMinute, true);
  c.record_delivery(msg(1), 2, util::kMinute, true);
  EXPECT_EQ(c.results().interested_deliveries, 2u);
}

TEST(Collector, DelayStatistics) {
  Collector c;
  c.set_expected(10, 10);
  c.record_delivery(msg(1, 0), 1, 10 * util::kMinute, true);
  c.record_delivery(msg(2, 0), 2, 30 * util::kMinute, true);
  RunResults r = c.results();
  EXPECT_DOUBLE_EQ(r.mean_delay_minutes, 20.0);
  EXPECT_DOUBLE_EQ(r.median_delay_minutes, 20.0);
}

TEST(Collector, UninterestedDeliveryCountsAsFalse) {
  Collector c;
  c.set_expected(10, 10);
  c.record_delivery(msg(1), 1, util::kMinute, true);
  c.record_delivery(msg(2), 2, util::kMinute, false);
  RunResults r = c.results();
  EXPECT_EQ(r.false_deliveries, 1u);
  EXPECT_DOUBLE_EQ(r.false_positive_rate, 0.5);
}

TEST(Collector, FalselyInjectedInterestedDeliveryCountsBothWays) {
  // Delivered to an interested consumer, but via a false-positive pickup:
  // counts toward delivery ratio AND toward the FPR numerator.
  Collector c;
  c.set_expected(10, 10);
  c.record_delivery(msg(1), 1, util::kMinute, true, /*falsely_injected=*/true);
  RunResults r = c.results();
  EXPECT_EQ(r.interested_deliveries, 1u);
  EXPECT_EQ(r.false_deliveries, 1u);
  EXPECT_DOUBLE_EQ(r.false_positive_rate, 1.0);
}

TEST(Collector, FalseDeliveriesExcludedFromDelay) {
  Collector c;
  c.set_expected(10, 10);
  c.record_delivery(msg(1, 0), 1, 10 * util::kMinute, true);
  c.record_delivery(msg(2, 0), 2, 1000 * util::kMinute, false);
  EXPECT_DOUBLE_EQ(c.results().mean_delay_minutes, 10.0);
}

TEST(Collector, ForwardingsPerDelivery) {
  Collector c;
  c.set_expected(10, 10);
  c.record_forwarding(msg(1));
  c.record_forwarding(msg(1));
  c.record_forwarding(msg(2));
  c.record_delivery(msg(1), 1, util::kMinute, true);
  RunResults r = c.results();
  EXPECT_EQ(r.forwardings, 3u);
  EXPECT_DOUBLE_EQ(r.forwardings_per_delivery, 3.0);
}

TEST(Collector, ByteAccounting) {
  Collector c;
  c.record_forwarding(msg(1));  // 100 bytes
  c.record_control_bytes(42);
  RunResults r = c.results();
  EXPECT_EQ(r.message_bytes, 100u);
  EXPECT_EQ(r.control_bytes, 42u);
}

TEST(Collector, DeliveredLookup) {
  Collector c;
  c.record_delivery(msg(5), 3, util::kMinute, true);
  EXPECT_TRUE(c.delivered(5, 3));
  EXPECT_FALSE(c.delivered(5, 4));
  EXPECT_FALSE(c.delivered(6, 3));
}

TEST(Collector, TransportStatsMergeSums) {
  TransportStats a{.datagrams_sent = 2, .frames_sent = 5, .session_opens = 1};
  TransportStats b{.datagrams_sent = 3, .frames_sent = 1,
                   .reassembly_failures = 4};
  a.merge(b);
  EXPECT_EQ(a.datagrams_sent, 5u);
  EXPECT_EQ(a.frames_sent, 6u);
  EXPECT_EQ(a.session_opens, 1u);
  EXPECT_EQ(a.reassembly_failures, 4u);
}

TEST(Collector, FalseDeliveryAlsoDedupes) {
  Collector c;
  c.set_expected(10, 10);
  c.record_delivery(msg(1), 1, util::kMinute, false);
  c.record_delivery(msg(1), 1, util::kMinute, true);  // ignored: already seen
  RunResults r = c.results();
  EXPECT_EQ(r.interested_deliveries, 0u);
  EXPECT_EQ(r.false_deliveries, 1u);
}

TEST(Collector, OutOfOrderFarApartIdsKeepDedupAndTotals) {
  // A node's delivered set is a bitmap grown to the highest id it holds: a
  // far id first, then low ids across word boundaries, then every id again.
  Collector c;
  c.set_expected(200000, 10);
  const workload::MessageId ids[] = {150000, 3, 64, 63, 65, 0, 100001};
  for (workload::MessageId id : ids) {
    c.record_delivery(msg(id), 1, util::kMinute, true);
  }
  c.record_delivery(msg(7), 1, util::kMinute, false);
  for (workload::MessageId id : ids) {
    c.record_delivery(msg(id), 1, 2 * util::kMinute, true);  // ignored
  }
  c.record_delivery(msg(7), 1, 2 * util::kMinute, true);  // ignored
  for (workload::MessageId id : ids) EXPECT_TRUE(c.delivered(id, 1)) << id;
  EXPECT_TRUE(c.delivered(7, 1));
  for (workload::MessageId id : {1u, 62u, 66u, 149999u, 150001u, 999999u}) {
    EXPECT_FALSE(c.delivered(id, 1)) << id;
  }
  EXPECT_FALSE(c.delivered(150000, 2));  // another node's set
  for (int i = 0; i < 4; ++i) c.record_forwarding(msg(0));
  const RunResults r = c.results();
  EXPECT_DOUBLE_EQ(r.forwardings_per_delivery, 4.0 / 8.0);
  EXPECT_EQ(r.interested_deliveries, 7u);
  EXPECT_EQ(r.false_deliveries, 1u);
  EXPECT_DOUBLE_EQ(r.false_positive_rate, 1.0 / 8.0);
  EXPECT_DOUBLE_EQ(r.delivery_ratio, 0.7);
  EXPECT_DOUBLE_EQ(r.mean_delay_minutes, 1.0);  // first deliveries only
  EXPECT_DOUBLE_EQ(r.max_delay_minutes, 1.0);
}

}  // namespace
}  // namespace bsub::metrics
