#include "core/interest_manager.h"

#include <gtest/gtest.h>

namespace bsub::core {
namespace {

constexpr bloom::BloomParams kPaper{256, 4};
constexpr double kC = 50.0;

InterestManager make_manager(double df = 1.0, std::size_t nodes = 4) {
  return InterestManager(nodes, kPaper, kC, df);
}

TEST(InterestManager, RelayStartsEmpty) {
  auto im = make_manager();
  EXPECT_TRUE(im.relay(0, 0).empty());
}

TEST(InterestManager, MakeGenuineContainsKeyAtFullStrength) {
  auto im = make_manager();
  bloom::Tcbf g = im.make_genuine("NewMoon");
  EXPECT_TRUE(g.contains("NewMoon"));
  EXPECT_EQ(g.min_counter("NewMoon"), kC);
}

TEST(InterestManager, MakeReportIsPlainBloomFilter) {
  auto im = make_manager();
  bloom::BloomFilter report = im.make_report("NewMoon");
  EXPECT_TRUE(report.contains("NewMoon"));
  EXPECT_LE(report.popcount(), 4u);
}

TEST(InterestManager, AbsorbGenuinePutsKeyInRelay) {
  auto im = make_manager();
  im.absorb_genuine(0, im.make_genuine("key"), "key", util::kMinute);
  EXPECT_TRUE(im.relay(0, util::kMinute).contains("key"));
  EXPECT_TRUE(im.genuinely_contains(0, "key", util::kMinute));
}

TEST(InterestManager, ReinforcementAddsCounters) {
  auto im = make_manager(/*df=*/0.0);
  im.absorb_genuine(0, im.make_genuine("key"), "key", 0);
  im.absorb_genuine(0, im.make_genuine("key"), "key", 0);
  EXPECT_EQ(im.relay(0, 0).min_counter("key"), 2 * kC);
}

TEST(InterestManager, LazyDecayAppliedOnAccess) {
  auto im = make_manager(/*df=*/1.0);  // 1 unit per minute
  im.absorb_genuine(0, im.make_genuine("key"), "key", 0);
  // 10 minutes later the counters must have dropped by 10.
  EXPECT_NEAR(*im.relay(0, util::from_minutes(10)).min_counter("key"),
              kC - 10.0, 1e-9);
}

TEST(InterestManager, DecayRemovesKeyAfterCOverDfMinutes) {
  auto im = make_manager(/*df=*/1.0);
  im.absorb_genuine(0, im.make_genuine("key"), "key", 0);
  EXPECT_FALSE(im.relay(0, util::from_minutes(51)).contains("key"));
  EXPECT_FALSE(im.genuinely_contains(0, "key", util::from_minutes(51)));
}

TEST(InterestManager, DecayClockDoesNotRunBackwards) {
  auto im = make_manager(/*df=*/1.0);
  im.absorb_genuine(0, im.make_genuine("key"), "key", util::from_minutes(10));
  double at_10 = *im.relay(0, util::from_minutes(10)).min_counter("key");
  // Accessing with an older timestamp must not decay or crash.
  double at_5 = *im.relay(0, util::from_minutes(5)).min_counter("key");
  EXPECT_DOUBLE_EQ(at_10, at_5);
}

TEST(InterestManager, ZeroDfNeverDecays) {
  auto im = make_manager(/*df=*/0.0);
  im.absorb_genuine(0, im.make_genuine("key"), "key", 0);
  EXPECT_EQ(im.relay(0, 100 * util::kDay).min_counter("key"), kC);
}

TEST(InterestManager, MMergePropagatesAcrossBrokers) {
  auto im = make_manager(/*df=*/0.0);
  im.absorb_genuine(0, im.make_genuine("key"), "key", 0);
  bloom::Tcbf snap = im.relay(0, 0);
  im.merge_relay_from(1, snap, im.shadow_snapshot(0),
                      BrokerMergeMode::kMMerge, 0);
  EXPECT_TRUE(im.relay(1, 0).contains("key"));
  EXPECT_TRUE(im.genuinely_contains(1, "key", 0));
}

TEST(InterestManager, MMergeIsIdempotentAcrossRepeatedMeetings) {
  // Fig. 6's fix: repeated M-merges of the same state do not inflate.
  auto im = make_manager(/*df=*/0.0);
  im.absorb_genuine(0, im.make_genuine("key"), "key", 0);
  bloom::Tcbf snap = im.relay(0, 0);
  auto shadow = im.shadow_snapshot(0);
  im.merge_relay_from(1, snap, shadow, BrokerMergeMode::kMMerge, 0);
  double once = *im.relay(1, 0).min_counter("key");
  im.merge_relay_from(1, snap, shadow, BrokerMergeMode::kMMerge, 0);
  EXPECT_DOUBLE_EQ(*im.relay(1, 0).min_counter("key"), once);
}

TEST(InterestManager, AMergeModeInflatesCounters) {
  // The ablation setting reproduces the bogus-counter loop.
  auto im = make_manager(/*df=*/0.0);
  im.absorb_genuine(0, im.make_genuine("key"), "key", 0);
  bloom::Tcbf snap = im.relay(0, 0);
  auto shadow = im.shadow_snapshot(0);
  im.merge_relay_from(1, snap, shadow, BrokerMergeMode::kAMerge, 0);
  double once = *im.relay(1, 0).min_counter("key");
  im.merge_relay_from(1, snap, shadow, BrokerMergeMode::kAMerge, 0);
  EXPECT_GT(*im.relay(1, 0).min_counter("key"), once);
}

TEST(InterestManager, ShadowTracksGroundTruthUnderDecay) {
  auto im = make_manager(/*df=*/1.0);
  im.absorb_genuine(0, im.make_genuine("real"), "real", 0);
  // "fake" was never absorbed: even if the TCBF happened to match it, the
  // shadow must say no.
  EXPECT_FALSE(im.genuinely_contains(0, "fake", util::kMinute));
  EXPECT_TRUE(im.genuinely_contains(0, "real", util::kMinute));
}

TEST(InterestManager, PerNodeDfOverride) {
  auto im = make_manager(/*df=*/0.0);
  im.absorb_genuine(0, im.make_genuine("key"), "key", 0);
  im.absorb_genuine(1, im.make_genuine("key"), "key", 0);
  im.set_node_df(1, 5.0);
  EXPECT_DOUBLE_EQ(im.node_df(0), 0.0);
  EXPECT_DOUBLE_EQ(im.node_df(1), 5.0);
  // Node 0 (global DF 0) keeps the key; node 1 (5/min) loses it.
  EXPECT_TRUE(im.relay(0, util::from_minutes(20)).contains("key"));
  EXPECT_FALSE(im.relay(1, util::from_minutes(20)).contains("key"));
}

TEST(InterestManager, ClearingDfOverrideRestoresGlobal) {
  auto im = make_manager(/*df=*/2.0);
  im.set_node_df(0, 7.0);
  EXPECT_DOUBLE_EQ(im.node_df(0), 7.0);
  im.set_node_df(0, -1.0);
  EXPECT_DOUBLE_EQ(im.node_df(0), 2.0);
}

TEST(InterestManager, SetNodeDfDoesNotMaterializeRelay) {
  auto im = make_manager();
  im.set_node_df(0, 3.0);
  EXPECT_DOUBLE_EQ(im.node_df(0), 3.0);
  EXPECT_FALSE(im.relay_materialized(0));
  EXPECT_EQ(im.materialized_relays(), 0u);
}

TEST(InterestManager, RelayStateIsLazyUntilFirstTouch) {
  auto im = make_manager();
  // Read-only paths see shared empty state without materializing.
  EXPECT_TRUE(im.relay_snapshot(2).empty());
  EXPECT_FALSE(im.genuinely_contains(2, "key", util::kMinute));
  EXPECT_TRUE(im.shadow_snapshot(2).empty());
  EXPECT_EQ(im.materialized_relays(), 0u);
  im.absorb_genuine(2, im.make_genuine("key"), "key", util::kMinute);
  EXPECT_TRUE(im.relay_materialized(2));
  EXPECT_FALSE(im.relay_materialized(0));
  EXPECT_EQ(im.materialized_relays(), 1u);
}

TEST(InterestManager, RecycledStateDecaysFromReacquisitionTime) {
  // A relay whose keys have all decayed away is reused in place: a key it
  // re-acquires much later starts at full C and decays only from then on.
  auto im = make_manager(/*df=*/1.0);
  im.absorb_genuine(0, im.make_genuine("a"), "a", 0);
  const util::Time later = util::from_minutes(500);
  ASSERT_TRUE(im.relay(0, later).empty());
  im.absorb_genuine(0, im.make_genuine("b"), "b", later);
  EXPECT_EQ(im.relay(0, later).min_counter("b"), kC);
  // And decay only from `later` on.
  EXPECT_NEAR(*im.relay(0, later + util::from_minutes(10)).min_counter("b"),
              kC - 10.0, 1e-9);
}

TEST(InterestManager, EagerModeMatchesPooledObservables) {
  // The historical eager layout built every relay up front. Its observables
  // here are closed-form: the DF override (2 per minute) set before the
  // relay exists governs it, and the key decays from its absorption at
  // 1 min, so at 3 min its counter is C - 2 * 2. The lazy layout must
  // report exactly that.
  auto im = make_manager();
  im.set_node_df(1, 2.0);
  EXPECT_FALSE(im.relay_materialized(1));
  im.absorb_genuine(1, im.make_genuine("key"), "key", util::kMinute);
  EXPECT_EQ(*im.relay(1, util::from_minutes(3)).min_counter("key"), kC - 4.0);
  EXPECT_TRUE(im.genuinely_contains(1, "key", util::from_minutes(3)));
}

TEST(InterestManager, RelaySnapshotDoesNotAdvanceClock) {
  auto im = make_manager(/*df=*/1.0);
  im.absorb_genuine(0, im.make_genuine("key"), "key", 0);
  const bloom::Tcbf& snap = im.relay_snapshot(0);
  EXPECT_EQ(snap.min_counter("key"), kC);
}

}  // namespace
}  // namespace bsub::core
