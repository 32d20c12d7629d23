#include "core/interest_manager.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "testing/reference_shadow.h"
#include "util/rng.h"
#include "workload/keys.h"

namespace bsub::core {
namespace {

constexpr bloom::BloomParams kPaper{256, 4};
constexpr double kC = 50.0;

/// Keys of the 38-key universe standing in for the interests under test.
constexpr workload::KeyId kKey = 0;
constexpr workload::KeyId kReal = 1;
constexpr workload::KeyId kFake = 2;
constexpr workload::KeyId kA = 3;
constexpr workload::KeyId kB = 4;

const workload::KeySet& universe() {
  static const workload::KeySet keys = workload::twitter_trend_keys();
  return keys;
}

const util::HashPair& hash(workload::KeyId key) {
  return universe().hash(key);
}

InterestManager make_manager(double df = 1.0, std::size_t nodes = 4) {
  return InterestManager(nodes, universe().size(), kPaper, kC, df);
}

bloom::Tcbf genuine(const InterestManager& im, workload::KeyId key) {
  return im.make_genuine({&hash(key), 1});
}

/// One consumer meeting: `key`'s genuine filter A-merged into `broker`.
void absorb(InterestManager& im, trace::NodeId broker, workload::KeyId key,
            util::Time now) {
  im.absorb_genuine(broker, genuine(im, key), {&key, 1}, now);
}

TEST(InterestManager, RelayStartsEmpty) {
  auto im = make_manager();
  EXPECT_TRUE(im.relay(0, 0).empty());
}

TEST(InterestManager, MakeGenuineContainsKeyAtFullStrength) {
  auto im = make_manager();
  bloom::Tcbf g = genuine(im, kKey);
  EXPECT_TRUE(g.contains(hash(kKey)));
  EXPECT_EQ(g.min_counter(hash(kKey)), kC);
}

TEST(InterestManager, MakeReportIsPlainBloomFilter) {
  auto im = make_manager();
  bloom::BloomFilter report = im.make_report({&hash(kKey), 1});
  EXPECT_TRUE(report.contains(hash(kKey)));
  EXPECT_LE(report.popcount(), 4u);
}

TEST(InterestManager, AbsorbGenuinePutsKeyInRelay) {
  auto im = make_manager();
  absorb(im, 0, kKey, util::kMinute);
  EXPECT_TRUE(im.relay(0, util::kMinute).contains(hash(kKey)));
  EXPECT_TRUE(im.genuinely_contains(0, kKey, util::kMinute));
}

TEST(InterestManager, ReinforcementAddsCounters) {
  auto im = make_manager(/*df=*/0.0);
  absorb(im, 0, kKey, 0);
  absorb(im, 0, kKey, 0);
  EXPECT_EQ(im.relay(0, 0).min_counter(hash(kKey)), 2 * kC);
}

TEST(InterestManager, LazyDecayAppliedOnAccess) {
  auto im = make_manager(/*df=*/1.0);  // 1 unit per minute
  absorb(im, 0, kKey, 0);
  // 10 minutes later the counters must have dropped by 10.
  EXPECT_NEAR(*im.relay(0, util::from_minutes(10)).min_counter(hash(kKey)),
              kC - 10.0, 1e-9);
}

TEST(InterestManager, DecayRemovesKeyAfterCOverDfMinutes) {
  auto im = make_manager(/*df=*/1.0);
  absorb(im, 0, kKey, 0);
  EXPECT_FALSE(im.relay(0, util::from_minutes(51)).contains(hash(kKey)));
  EXPECT_FALSE(im.genuinely_contains(0, kKey, util::from_minutes(51)));
}

TEST(InterestManager, DecayClockDoesNotRunBackwards) {
  auto im = make_manager(/*df=*/1.0);
  absorb(im, 0, kKey, util::from_minutes(10));
  double at_10 = *im.relay(0, util::from_minutes(10)).min_counter(hash(kKey));
  // Accessing with an older timestamp must not decay or crash.
  double at_5 = *im.relay(0, util::from_minutes(5)).min_counter(hash(kKey));
  EXPECT_DOUBLE_EQ(at_10, at_5);
}

TEST(InterestManager, ZeroDfNeverDecays) {
  auto im = make_manager(/*df=*/0.0);
  absorb(im, 0, kKey, 0);
  EXPECT_EQ(im.relay(0, 100 * util::kDay).min_counter(hash(kKey)), kC);
}

TEST(InterestManager, MMergePropagatesAcrossBrokers) {
  auto im = make_manager(/*df=*/0.0);
  absorb(im, 0, kKey, 0);
  bloom::Tcbf snap = im.relay(0, 0);
  im.merge_relay_from(1, snap, im.shadow_snapshot(0),
                      BrokerMergeMode::kMMerge, 0);
  EXPECT_TRUE(im.relay(1, 0).contains(hash(kKey)));
  EXPECT_TRUE(im.genuinely_contains(1, kKey, 0));
}

TEST(InterestManager, MMergeIsIdempotentAcrossRepeatedMeetings) {
  // Fig. 6's fix: repeated M-merges of the same state do not inflate.
  auto im = make_manager(/*df=*/0.0);
  absorb(im, 0, kKey, 0);
  bloom::Tcbf snap = im.relay(0, 0);
  auto shadow = im.shadow_snapshot(0);
  im.merge_relay_from(1, snap, shadow, BrokerMergeMode::kMMerge, 0);
  double once = *im.relay(1, 0).min_counter(hash(kKey));
  im.merge_relay_from(1, snap, shadow, BrokerMergeMode::kMMerge, 0);
  EXPECT_DOUBLE_EQ(*im.relay(1, 0).min_counter(hash(kKey)), once);
}

TEST(InterestManager, AMergeModeInflatesCounters) {
  // The ablation setting reproduces the bogus-counter loop.
  auto im = make_manager(/*df=*/0.0);
  absorb(im, 0, kKey, 0);
  bloom::Tcbf snap = im.relay(0, 0);
  auto shadow = im.shadow_snapshot(0);
  im.merge_relay_from(1, snap, shadow, BrokerMergeMode::kAMerge, 0);
  double once = *im.relay(1, 0).min_counter(hash(kKey));
  im.merge_relay_from(1, snap, shadow, BrokerMergeMode::kAMerge, 0);
  EXPECT_GT(*im.relay(1, 0).min_counter(hash(kKey)), once);
}

TEST(InterestManager, ShadowTracksGroundTruthUnderDecay) {
  auto im = make_manager(/*df=*/1.0);
  absorb(im, 0, kReal, 0);
  // "fake" was never absorbed: even if the TCBF happened to match it, the
  // shadow must say no.
  EXPECT_FALSE(im.genuinely_contains(0, kFake, util::kMinute));
  EXPECT_TRUE(im.genuinely_contains(0, kReal, util::kMinute));
}

TEST(InterestManager, PerNodeDfOverride) {
  auto im = make_manager(/*df=*/0.0);
  absorb(im, 0, kKey, 0);
  absorb(im, 1, kKey, 0);
  im.set_node_df(1, 5.0);
  EXPECT_DOUBLE_EQ(im.node_df(0), 0.0);
  EXPECT_DOUBLE_EQ(im.node_df(1), 5.0);
  // Node 0 (global DF 0) keeps the key; node 1 (5/min) loses it.
  EXPECT_TRUE(im.relay(0, util::from_minutes(20)).contains(hash(kKey)));
  EXPECT_FALSE(im.relay(1, util::from_minutes(20)).contains(hash(kKey)));
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
  EXPECT_FALSE(im.genuinely_contains(2, kKey, util::kMinute));
  EXPECT_TRUE(im.shadow_snapshot(2).empty());
  EXPECT_EQ(im.materialized_relays(), 0u);
  absorb(im, 2, kKey, util::kMinute);
  EXPECT_TRUE(im.relay_materialized(2));
  EXPECT_FALSE(im.relay_materialized(0));
  EXPECT_EQ(im.materialized_relays(), 1u);
}

TEST(InterestManager, RecycledStateDecaysFromReacquisitionTime) {
  // A relay whose keys have all decayed away is reused in place: a key it
  // re-acquires much later starts at full C and decays only from then on.
  auto im = make_manager(/*df=*/1.0);
  absorb(im, 0, kA, 0);
  const util::Time later = util::from_minutes(500);
  ASSERT_TRUE(im.relay(0, later).empty());
  absorb(im, 0, kB, later);
  EXPECT_EQ(im.relay(0, later).min_counter(hash(kB)), kC);
  // And decay only from `later` on.
  EXPECT_NEAR(
      *im.relay(0, later + util::from_minutes(10)).min_counter(hash(kB)),
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
  absorb(im, 1, kKey, util::kMinute);
  EXPECT_EQ(*im.relay(1, util::from_minutes(3)).min_counter(hash(kKey)),
            kC - 4.0);
  EXPECT_TRUE(im.genuinely_contains(1, kKey, util::from_minutes(3)));
}

TEST(InterestManager, RelaySnapshotDoesNotAdvanceClock) {
  auto im = make_manager(/*df=*/1.0);
  absorb(im, 0, kKey, 0);
  const bloom::Tcbf& snap = im.relay_snapshot(0);
  EXPECT_EQ(snap.min_counter(hash(kKey)), kC);
}

TEST(InterestManager, ShadowMatchesReferenceOnRandomSchedules) {
  // The key-indexed shadow against the string-keyed map it replaced
  // (testing/reference_shadow.h) on 4 relays over the 38-key universe:
  // absorbs of 1-3 keys (repeats included), M- and A-merge exchanges run
  // the way BsubProtocol::broker_exchange runs them, decays and
  // ground-truth queries, at DFs from 0.05 to 2 per minute. After every
  // operation every key's counter must match bit for bit, and so must
  // every ground-truth answer.
  constexpr std::size_t kRelays = 4;
  const workload::KeySet& keys = universe();
  std::uint64_t held = 0;
  std::uint64_t drained = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    util::Rng rng(seed);
    // Log-uniform in [0.05, 2] per minute.
    auto draw_df = [&] { return 0.05 * std::pow(40.0, rng.next_double()); };
    const double df = draw_df();
    InterestManager im(kRelays, keys.size(), kPaper, kC, df);
    testing::ReferenceShadows ref(kRelays, df);
    const double override_df = draw_df();
    im.set_node_df(kRelays - 1, override_df);
    ref.set_node_df(kRelays - 1, override_df);
    std::vector<double> before(kRelays * keys.size(), 0.0);
    util::Time now = 0;
    for (int op = 0; op < 400; ++op) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << " op " << op);
      now += rng.next_int(0, 10 * util::kMinute);
      const trace::NodeId n = rng.next_below(kRelays);
      switch (rng.next_below(5)) {
        case 0:
        case 1: {  // absorb
          std::vector<workload::KeyId> ids;
          const std::uint64_t count = 1 + rng.next_below(3);
          for (std::uint64_t i = 0; i < count; ++i) {
            ids.push_back(!ids.empty() && rng.next_bool(0.3)
                              ? ids.back()
                              : rng.next_below(keys.size()));
          }
          std::vector<util::HashPair> hashes;
          std::vector<std::string_view> names;
          for (workload::KeyId id : ids) {
            hashes.push_back(keys.hash(id));
            names.push_back(keys.name(id));
          }
          im.absorb_genuine(n, im.make_genuine(hashes), ids, now);
          ref.absorb(n, names, kC, now);
          break;
        }
        case 2: {  // broker exchange: both decay, then merge both ways
          const trace::NodeId m =
              (n + 1 + rng.next_below(kRelays - 1)) % kRelays;
          const BrokerMergeMode mode = rng.next_bool(0.5)
                                           ? BrokerMergeMode::kMMerge
                                           : BrokerMergeMode::kAMerge;
          const bloom::Tcbf relay_n = im.relay(n, now);
          im.relay(m, now);
          const std::span<const double> snap_n = im.shadow_snapshot(n);
          const std::vector<double> shadow_n(snap_n.begin(), snap_n.end());
          im.merge_relay_from(n, im.relay_snapshot(m), im.shadow_snapshot(m),
                              mode, now);
          im.merge_relay_from(m, relay_n, shadow_n, mode, now);
          ref.advance(n, now);
          ref.advance(m, now);
          const testing::ReferenceShadows::ShadowMap ref_n = ref.shadow(n);
          ref.merge(n, ref.shadow(m), mode, now);
          ref.merge(m, ref_n, mode, now);
          break;
        }
        case 3:  // decay
          im.relay(n, now);
          ref.advance(n, now);
          break;
        default: {  // ground-truth query, decaying to `now`
          const workload::KeyId k = rng.next_below(keys.size());
          ASSERT_EQ(im.genuinely_contains(n, k, now),
                    ref.genuinely_contains(n, keys.name(k), now));
        }
      }
      for (trace::NodeId node = 0; node < kRelays; ++node) {
        ASSERT_EQ(im.relay_materialized(node), ref.materialized(node));
        const std::span<const double> shadow = im.shadow_snapshot(node);
        // Queried at the relay's own clock, so the check decays nothing.
        const util::Time at = ref.last_decay(node);
        for (workload::KeyId k = 0; k < keys.size(); ++k) {
          const double got = shadow.empty() ? 0.0 : shadow[k];
          const double want = ref.value(node, keys.name(k));
          ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
                    std::bit_cast<std::uint64_t>(want))
              << "relay " << node << " key " << k << ": " << got << " vs "
              << want;
          ASSERT_EQ(im.genuinely_contains(node, k, at),
                    ref.genuinely_contains(node, keys.name(k), at));
          double& last = before[node * keys.size() + k];
          held += got > 0.0;
          drained += last > 0.0 && got == 0.0;
          last = got;
        }
      }
    }
  }
  // The schedules reach both regimes: keys held, and keys drained to zero.
  EXPECT_GT(held, 0u);
  EXPECT_GT(drained, 0u);
}

}  // namespace
}  // namespace bsub::core
