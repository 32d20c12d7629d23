#include "workload/workload.h"

#include <gtest/gtest.h>

#include <map>

#include "trace/synthetic.h"
#include "util/errors.h"

namespace bsub::workload {
namespace {

trace::ContactTrace small_trace(std::uint64_t seed = 4) {
  trace::SyntheticTraceConfig cfg;
  cfg.node_count = 20;
  cfg.contact_count = 2000;
  cfg.duration = util::kDay;
  cfg.seed = seed;
  return trace::generate_trace(cfg);
}

TEST(Workload, EveryNodeHasOneInterest) {
  auto t = small_trace();
  KeySet keys = twitter_trend_keys();
  Workload w(t, keys, {});
  EXPECT_EQ(w.node_count(), 20u);
  for (trace::NodeId n = 0; n < 20; ++n) {
    EXPECT_EQ(w.interests_of(n).size(), 1u);
    EXPECT_LT(w.interest_of(n), keys.size());
  }
}

TEST(Workload, SubscriberListsAreConsistent) {
  auto t = small_trace();
  KeySet keys = twitter_trend_keys();
  Workload w(t, keys, {});
  for (KeyId k = 0; k < keys.size(); ++k) {
    for (trace::NodeId n : w.subscribers_of(k)) {
      EXPECT_EQ(w.interest_of(n), k);
    }
  }
  std::size_t total = 0;
  for (KeyId k = 0; k < keys.size(); ++k) total += w.subscribers_of(k).size();
  EXPECT_EQ(total, 20u);  // each node subscribes exactly once
}

TEST(Workload, MessagesSortedAndWithinHorizon) {
  auto t = small_trace();
  KeySet keys = twitter_trend_keys();
  WorkloadConfig cfg;
  cfg.ttl = 2 * util::kHour;
  Workload w(t, keys, cfg);
  ASSERT_FALSE(w.messages().empty());
  util::Time prev = -1;
  for (const Message& m : w.messages()) {
    EXPECT_GE(m.created, prev);
    prev = m.created;
    EXPECT_GE(m.created, t.start_time());
    EXPECT_LT(m.created, t.end_time());
    EXPECT_EQ(m.ttl, cfg.ttl);
    EXPECT_GE(m.size_bytes, 1u);
    EXPECT_LE(m.size_bytes, kMaxMessageBytes);
    EXPECT_LT(m.producer, 20u);
    EXPECT_LT(m.key, keys.size());
  }
}

TEST(Workload, MessageIdsAreDense) {
  auto t = small_trace();
  Workload w(t, twitter_trend_keys(), {});
  for (std::size_t i = 0; i < w.messages().size(); ++i) {
    EXPECT_EQ(w.messages()[i].id, i);
  }
}

TEST(Workload, DeterministicForSameSeed) {
  auto t = small_trace();
  KeySet keys = twitter_trend_keys();
  WorkloadConfig cfg;
  cfg.seed = 42;
  Workload w1(t, keys, cfg);
  Workload w2(t, keys, cfg);
  ASSERT_EQ(w1.node_count(), w2.node_count());
  for (trace::NodeId n = 0; n < w1.node_count(); ++n) {
    const auto i1 = w1.interests_of(n);
    const auto i2 = w2.interests_of(n);
    ASSERT_TRUE(std::equal(i1.begin(), i1.end(), i2.begin(), i2.end()));
  }
  ASSERT_EQ(w1.messages().size(), w2.messages().size());
  for (std::size_t i = 0; i < w1.messages().size(); ++i) {
    EXPECT_EQ(w1.messages()[i].created, w2.messages()[i].created);
    EXPECT_EQ(w1.messages()[i].key, w2.messages()[i].key);
  }
}

TEST(Workload, HigherCentralityProducesMore) {
  auto t = small_trace();
  Workload w(t, twitter_trend_keys(), {});
  std::map<trace::NodeId, int> produced;
  for (const Message& m : w.messages()) ++produced[m.producer];
  // Compare the most and least central nodes with nonzero centrality.
  trace::NodeId hi = 0, lo = 0;
  for (trace::NodeId n = 1; n < 20; ++n) {
    if (w.centrality()[n] > w.centrality()[hi]) hi = n;
    if (w.centrality()[n] < w.centrality()[lo]) lo = n;
  }
  if (w.centrality()[hi] > 2.0 * w.centrality()[lo] &&
      w.centrality()[lo] > 0.0) {
    EXPECT_GT(produced[hi], produced[lo]);
  }
}

TEST(Workload, BaseRateCalibration) {
  // The minimum-centrality node produces ~R_hat * duration messages.
  auto t = small_trace();
  WorkloadConfig cfg;
  cfg.base_rate_per_minute = 1.0 / 30.0;
  Workload w(t, twitter_trend_keys(), cfg);
  const double duration_min = util::to_minutes(t.end_time() - t.start_time());
  const double min_expected = duration_min / 30.0;
  // Total across 20 nodes is at least 20x the base-rate count.
  EXPECT_GT(static_cast<double>(w.messages().size()), min_expected * 10.0);
}

TEST(Workload, ExpectedDeliveriesExcludesProducer) {
  auto t = small_trace();
  Workload w(t, twitter_trend_keys(), {});
  std::uint64_t manual = 0;
  for (const Message& m : w.messages()) {
    for (trace::NodeId s : w.subscribers_of(m.key)) {
      manual += (s != m.producer);
    }
  }
  EXPECT_EQ(w.expected_deliveries(), manual);
  EXPECT_GT(w.expected_deliveries(), 0u);
}

TEST(Workload, EmptyTraceYieldsNoMessages) {
  trace::ContactTrace empty(5, {});
  Workload w(empty, twitter_trend_keys(), {});
  EXPECT_TRUE(w.messages().empty());
  EXPECT_EQ(w.expected_deliveries(), 0u);
}

// The explicit constructors check what expected_deliveries() and every
// replay index by: one interest entry per node, keys inside the key set,
// producers inside the node range. Each case is checked on both
// constructors.
Message message(KeyId key, trace::NodeId producer) {
  Message m;
  m.key = key;
  m.producer = producer;
  m.size_bytes = 10;
  m.ttl = util::kHour;
  return m;
}

TEST(Workload, ExplicitConstructorsRejectAnInterestCountOtherThanNodeCount) {
  const KeySet keys = twitter_trend_keys();
  EXPECT_THROW(Workload(keys, 3, std::vector<KeyId>{0, 1}, {}),
               util::ConfigError);
  EXPECT_THROW(
      Workload(keys, 1, std::vector<std::vector<KeyId>>{{0}, {1}}, {}),
      util::ConfigError);
}

TEST(Workload, ExplicitConstructorsRejectAnInterestKeyOutsideTheKeySet) {
  const KeySet keys = twitter_trend_keys();
  const auto bad = static_cast<KeyId>(keys.size());
  EXPECT_THROW(Workload(keys, 2, std::vector<KeyId>{0, bad}, {}),
               util::ConfigError);
  EXPECT_THROW(
      Workload(keys, 2, std::vector<std::vector<KeyId>>{{0}, {1, bad}}, {}),
      util::ConfigError);
}

TEST(Workload, ExplicitConstructorsRejectAMessageKeyOutsideTheKeySet) {
  const KeySet keys = twitter_trend_keys();
  const auto bad = static_cast<KeyId>(keys.size());
  EXPECT_THROW(
      Workload(keys, 2, std::vector<KeyId>{0, 1}, {message(bad, 0)}),
      util::ConfigError);
  EXPECT_THROW(Workload(keys, 2, std::vector<std::vector<KeyId>>{{0}, {1}},
                        {message(bad, 0)}),
               util::ConfigError);
}

TEST(Workload, MultiInterestConstructorRejectsANodeWithNoInterest) {
  const KeySet keys = twitter_trend_keys();
  EXPECT_THROW(
      Workload(keys, 2, std::vector<std::vector<KeyId>>{{0}, {}}, {}),
      util::ConfigError);
}

TEST(Workload, TraceConstructorRejectsZeroInterestsPerNode) {
  const KeySet keys = twitter_trend_keys();
  const trace::ContactTrace trace(
      3, {trace::Contact{0, 1, 0, util::kMinute}}, "three");
  WorkloadConfig cfg;
  cfg.interests_per_node = 0;
  EXPECT_THROW(Workload(trace, keys, cfg), util::ConfigError);
}

TEST(Workload, ExplicitConstructorsRejectAProducerOutsideTheNodes) {
  const KeySet keys = twitter_trend_keys();
  EXPECT_THROW(Workload(keys, 2, std::vector<KeyId>{0, 1}, {message(0, 2)}),
               util::ConfigError);
  EXPECT_THROW(Workload(keys, 2, std::vector<std::vector<KeyId>>{{0}, {1}},
                        {message(0, 2)}),
               util::ConfigError);
  // In range on both constructors.
  EXPECT_NO_THROW(
      Workload(keys, 2, std::vector<KeyId>{0, 1}, {message(0, 1)}));
}

}  // namespace
}  // namespace bsub::workload
