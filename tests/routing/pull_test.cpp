#include "routing/pull.h"

#include <gtest/gtest.h>

#include "sim/simulator.h"
#include "testing/scenario.h"
#include "trace/synthetic.h"

namespace bsub::routing {
namespace {

using bsub::testing::contact;
using bsub::testing::make_message;
using bsub::testing::two_keys;

TEST(Pull, CollectsMatchingMessageFromNeighbor) {
  auto keys = two_keys();
  trace::ContactTrace t(2, {contact(0, 1, 10)});
  workload::Workload w(keys, 2, {1, 0}, {make_message(0, 0, 0)});
  PullProtocol pull;
  sim::Simulator sim;
  auto r = sim.run(t, w, pull);
  EXPECT_EQ(r.interested_deliveries, 1u);
  EXPECT_EQ(r.forwardings, 1u);
  EXPECT_GT(r.control_bytes, 0u);  // the interest announcement
}

TEST(Pull, IgnoresNonMatchingMessages) {
  auto keys = two_keys();
  trace::ContactTrace t(2, {contact(0, 1, 10)});
  // Node 1 wants key 1; node 0 produced key 0.
  workload::Workload w(keys, 2, {0, 1}, {make_message(0, 0, 0)});
  PullProtocol pull;
  sim::Simulator sim;
  auto r = sim.run(t, w, pull);
  EXPECT_EQ(r.interested_deliveries, 0u);
  EXPECT_EQ(r.forwardings, 0u);
}

TEST(Pull, StrictlyOneHop) {
  // Chain 0-1-2 with node 2 interested: PULL never relays through 1.
  auto keys = two_keys();
  trace::ContactTrace t(3, {contact(0, 1, 10), contact(1, 2, 20)});
  workload::Workload w(keys, 3, {1, 0, 0}, {make_message(0, 0, 0)});
  PullProtocol pull;
  sim::Simulator sim;
  auto r = sim.run(t, w, pull);
  // Node 1 is interested (key 0) and adjacent: delivered. Node 2 never
  // meets the producer: not delivered.
  EXPECT_EQ(r.interested_deliveries, 1u);
  EXPECT_LT(r.delivery_ratio, 1.0);
}

TEST(Pull, NoDuplicatePulls) {
  auto keys = two_keys();
  trace::ContactTrace t(2, {contact(0, 1, 10), contact(0, 1, 20)});
  workload::Workload w(keys, 2, {1, 0}, {make_message(0, 0, 0)});
  PullProtocol pull;
  sim::Simulator sim;
  auto r = sim.run(t, w, pull);
  EXPECT_EQ(r.forwardings, 1u);
}

TEST(Pull, ExpiredMessagesNotServed) {
  auto keys = two_keys();
  trace::ContactTrace t(2, {contact(0, 1, 60)});
  workload::Workload w(keys, 2, {1, 0},
                       {make_message(0, 0, 0, util::from_minutes(30))});
  PullProtocol pull;
  sim::Simulator sim;
  auto r = sim.run(t, w, pull);
  EXPECT_EQ(r.interested_deliveries, 0u);
}

TEST(Pull, PullsBothDirectionsInOneContact) {
  auto keys = two_keys();
  trace::ContactTrace t(2, {contact(0, 1, 10)});
  workload::Workload w(keys, 2, {1, 0},
                       {make_message(0, 0, 0), make_message(1, 1, 0)});
  PullProtocol pull;
  sim::Simulator sim;
  auto r = sim.run(t, w, pull);
  EXPECT_EQ(r.interested_deliveries, 2u);
}

TEST(Pull, AnnounceBytesMatchTheWireSizeFormula) {
  auto keys = two_keys();
  // Node 0 wants "beta" (4 bytes), node 1 wants "alpha" (5 bytes); they
  // meet three times. Every contact announces both directions from the
  // cached sizes, so control bytes are exactly 3 x (4 + 5).
  trace::ContactTrace t(2, {contact(0, 1, 10), contact(0, 1, 30),
                            contact(0, 1, 50)});
  workload::Workload w(keys, 2, {1, 0}, {make_message(0, 0, 0)});
  EXPECT_EQ(pull_announce_wire_size(w, 0), 4u);
  EXPECT_EQ(pull_announce_wire_size(w, 1), 5u);
  PullProtocol pull;
  sim::Simulator sim;
  auto r = sim.run(t, w, pull);
  EXPECT_EQ(r.control_bytes, 3u * (4u + 5u));
  // Two consumers fill the cache once each; the remaining four announces
  // are cache hits.
  EXPECT_EQ(r.hot_path.encode_cache_misses, 2u);
  EXPECT_EQ(r.hot_path.encode_cache_hits, 4u);
}

TEST(Pull, CachedAnnounceSizesMatchNaiveRecomputationReference) {
  trace::SyntheticTraceConfig cfg;
  cfg.node_count = 15;
  cfg.contact_count = 2000;
  cfg.duration = util::kDay;
  cfg.seed = 43;
  auto t = trace::generate_trace(cfg);
  auto keys = workload::twitter_trend_keys();
  workload::Workload w(t, keys, {});
  sim::Simulator sim;
  PullProtocol cached;
  auto fast = sim.run(t, w, cached);
  // Recorded while the naive path (announce size recomputed from the raw
  // key strings every contact) still ran beside the cache and matched it
  // on this scenario; only the execution-shape counters may differ.
  EXPECT_EQ(fast.control_bytes, 41648u);
  EXPECT_EQ(fast.message_bytes, 33717u);
  EXPECT_EQ(fast.interested_deliveries, 499u);
  EXPECT_EQ(fast.forwardings, 499u);
  EXPECT_GT(fast.hot_path.encode_cache_hits, 0u);
  EXPECT_EQ(fast.hot_path.encode_cache_misses, t.node_count());
}

TEST(Pull, NeverFalseDelivers) {
  trace::SyntheticTraceConfig cfg;
  cfg.node_count = 15;
  cfg.contact_count = 2000;
  cfg.duration = util::kDay;
  cfg.seed = 31;
  auto t = trace::generate_trace(cfg);
  auto keys = workload::twitter_trend_keys();
  workload::Workload w(t, keys, {});
  PullProtocol pull;
  sim::Simulator sim;
  auto r = sim.run(t, w, pull);
  EXPECT_EQ(r.false_deliveries, 0u);  // exact string matching, no filters
}

TEST(Pull, ForwardingsPerDeliveryIsOne) {
  // Every PULL transfer is itself a delivery, so the ratio is exactly 1
  // whenever anything is delivered.
  trace::SyntheticTraceConfig cfg;
  cfg.node_count = 15;
  cfg.contact_count = 2000;
  cfg.duration = util::kDay;
  cfg.seed = 37;
  auto t = trace::generate_trace(cfg);
  auto keys = workload::twitter_trend_keys();
  workload::Workload w(t, keys, {});
  PullProtocol pull;
  sim::Simulator sim;
  auto r = sim.run(t, w, pull);
  ASSERT_GT(r.interested_deliveries, 0u);
  EXPECT_DOUBLE_EQ(r.forwardings_per_delivery, 1.0);
}

}  // namespace
}  // namespace bsub::routing
