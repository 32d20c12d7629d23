// Exact-size accounting and the filter epochs encode caches key on.
//
// The simulator's contact loop never encodes at all when only the byte
// count is needed (encoded_*_wire_size), and the engine's frame cache
// replays a frame while its filter's epoch is unchanged. Both shortcuts
// must be indistinguishable from the real encoder: these tests pin (a) the
// size formulas against the actual encodings across randomized filters and
// geometries and (b) the epoch semantics the cache keys on.
#include "bloom/tcbf_codec.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bloom/bloom_filter.h"
#include "bloom/tcbf.h"
#include "util/rng.h"

namespace bsub::bloom {
namespace {

const BloomParams kGeometries[] = {
    {64, 2}, {128, 3}, {256, 4}, {300, 4}, {1024, 5}, {4096, 7},
};

const CounterEncoding kEncodings[] = {
    CounterEncoding::kFull,
    CounterEncoding::kUniform,
    CounterEncoding::kCounterLess,
};

TEST(EncodeCache, TcbfWireSizeMatchesEncodingExactly) {
  util::Rng rng(42);
  for (const BloomParams& params : kGeometries) {
    for (int density = 0; density <= 4; ++density) {
      Tcbf filter(params, 50.0);
      // density 0 = empty; otherwise insert enough keys to sweep from the
      // location-list regime into the raw-bitmap fallback.
      const int keys = density * static_cast<int>(params.m) / 24;
      for (int i = 0; i < keys; ++i) {
        filter.insert("key-" + std::to_string(rng()));
      }
      if (density >= 2) filter.decay(rng.next_double() * 30.0);
      for (CounterEncoding enc : kEncodings) {
        EXPECT_EQ(encoded_tcbf_wire_size(filter, enc),
                  encode_tcbf(filter, enc).size())
            << "m=" << params.m << " k=" << params.k << " density=" << density
            << " enc=" << static_cast<int>(enc);
      }
    }
  }
}

TEST(EncodeCache, BloomWireSizeMatchesEncodingExactly) {
  util::Rng rng(43);
  for (const BloomParams& params : kGeometries) {
    for (int density = 0; density <= 4; ++density) {
      BloomFilter filter(params);
      const int keys = density * static_cast<int>(params.m) / 24;
      for (int i = 0; i < keys; ++i) {
        filter.insert("key-" + std::to_string(rng()));
      }
      EXPECT_EQ(encoded_bloom_wire_size(filter),
                encode_bloom(filter).size())
          << "m=" << params.m << " k=" << params.k << " density=" << density;
      EXPECT_EQ(encoded_bloom_wire_size(filter.popcount(), params),
                encode_bloom(filter).size());
    }
  }
}

TEST(EncodeCache, EpochAdvancesOnEveryMutation) {
  Tcbf t({256, 4}, 50.0);
  std::uint64_t e = t.epoch();
  t.insert("a");
  EXPECT_NE(t.epoch(), e);
  e = t.epoch();

  Tcbf other({256, 4}, 50.0);
  other.insert("b");
  t.a_merge(other);
  EXPECT_NE(t.epoch(), e);
  e = t.epoch();

  t.m_merge(other);
  EXPECT_NE(t.epoch(), e);
  e = t.epoch();

  t.decay(1.0);  // drains counters -> observable change
  EXPECT_NE(t.epoch(), e);
  e = t.epoch();

  t.clear();
  EXPECT_NE(t.epoch(), e);
}

TEST(EncodeCache, NoOpDecayKeepsEpoch) {
  // Decay on an empty filter (or by zero) changes nothing observable, so
  // the cached encoding must stay valid.
  Tcbf empty({256, 4}, 50.0);
  const std::uint64_t e = empty.epoch();
  empty.decay(5.0);
  EXPECT_EQ(empty.epoch(), e);

  Tcbf t({256, 4}, 50.0);
  t.insert("a");
  const std::uint64_t e2 = t.epoch();
  t.decay(0.0);
  EXPECT_EQ(t.epoch(), e2);
}

TEST(EncodeCache, CopiesKeepTheSourceEpoch) {
  // Same contents, same encoding: a copy may reuse cached bytes keyed on
  // the source's epoch.
  Tcbf t({256, 4}, 50.0);
  t.insert("a");
  const Tcbf copy = t;
  EXPECT_EQ(copy.epoch(), t.epoch());

  BloomFilter b({256, 4});
  b.insert("a");
  const BloomFilter bcopy = b;
  EXPECT_EQ(bcopy.epoch(), b.epoch());
}

TEST(EncodeCache, EpochsAreProcessUnique) {
  // Two independently built filters never share an epoch, even with equal
  // contents — so a cache can never false-hit across filters.
  Tcbf t1({256, 4}, 50.0);
  Tcbf t2({256, 4}, 50.0);
  t1.insert("a");
  t2.insert("a");
  EXPECT_NE(t1.epoch(), t2.epoch());
  EXPECT_NE(t1.epoch(), 0u);  // 0 is the empty-cache sentinel
  EXPECT_NE(t2.epoch(), 0u);
}

/// Epochs `build` takes from the process-wide counter (the second probe
/// takes one more).
template <class Build>
std::uint64_t epochs_taken(Build&& build) {
  const std::uint64_t before = next_filter_epoch();
  build();
  return next_filter_epoch() - before - 1;
}

TEST(EncodeCache, WholeFilterBuildsTakeEpochsIndependentOfFill) {
  // Decoding a Bloom filter and projecting a TCBF onto one each build a
  // whole filter: one mutation, however many bits it sets.
  std::vector<std::uint64_t> decode_epochs;
  std::vector<std::uint64_t> project_epochs;
  std::vector<std::size_t> fills;
  for (const int keys : {1, 8, 30, 120}) {
    Tcbf t({256, 4}, 50.0);
    for (int i = 0; i < keys; ++i) t.insert("key-" + std::to_string(i));
    const BloomFilter projected = t.to_bloom_filter();
    const std::vector<std::uint8_t> bytes = encode_bloom(projected);
    fills.push_back(projected.popcount());
    project_epochs.push_back(epochs_taken([&] { (void)t.to_bloom_filter(); }));
    decode_epochs.push_back(epochs_taken([&] {
      EXPECT_EQ(decode_bloom(bytes), projected);
    }));
  }
  ASSERT_LT(fills.front(), fills.back());  // the fills really differ
  for (std::size_t i = 1; i < fills.size(); ++i) {
    EXPECT_EQ(decode_epochs[i], decode_epochs[0]) << fills[i] << " bits";
    EXPECT_EQ(project_epochs[i], project_epochs[0]) << fills[i] << " bits";
  }
}

TEST(EncodeCache, ContainsAtMatchesContains) {
  // The interned-index probe must be bit-identical to contains() — FPs and
  // all — since the differential test compares semantic outcomes exactly.
  util::Rng rng(44);
  for (const BloomParams& params : kGeometries) {
    Tcbf t(params, 50.0);
    BloomFilter b(params);
    for (int i = 0; i < 12; ++i) {
      const std::string key = "in-" + std::to_string(rng());
      t.insert(key);
      b.insert(key);
    }
    for (int i = 0; i < 200; ++i) {
      const std::string probe = "probe-" + std::to_string(rng());
      const util::HashPair hp = util::hash_pair(probe);
      const util::IndexArray idx =
          util::bloom_indices(hp, params.k, params.m);
      EXPECT_EQ(t.contains_at(idx), t.contains(hp));
      EXPECT_EQ(b.contains_at(idx), b.contains(hp));
    }
  }
}

}  // namespace
}  // namespace bsub::bloom
