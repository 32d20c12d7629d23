// Randomized differential tests: bloom::Tcbf (lazy decay base + occupancy
// bitmap + sparse-walk / dense-sweep merge kernels) against the dense eager
// oracle in tests/testing/dense_tcbf.h. Thousands of interleaved
// insert/decay/merge/query operations must observe identical state; the
// mixed-schedule and dense-regime cases compare every counter by bit
// pattern, so even a 0.0 / -0.0 discrepancy (which double== would forgive)
// fails.
//
// Every decay amount is dyadic (a multiple of 0.25), which is the oracle's
// exactness condition (see dense_tcbf.h).
#include "bloom/tcbf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bloom/bloom_params.h"
#include "testing/dense_tcbf.h"
#include "util/hash.h"
#include "util/rng.h"

namespace bsub::bloom {
namespace {

using bsub::testing::DenseRefTcbf;

std::vector<std::string> key_pool(std::size_t n,
                                  const std::string& prefix = "dk") {
  std::vector<std::string> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys.push_back(prefix + std::to_string(i));
  }
  return keys;
}

/// Full-state equivalence: every counter, plus the derived views the
/// protocol reads.
void expect_same_state(const Tcbf& lazy, const DenseRefTcbf& dense,
                       const std::vector<std::string>& keys) {
  const std::vector<double> lc = lazy.counters();
  ASSERT_EQ(lc.size(), dense.counters().size());
  for (std::size_t i = 0; i < lc.size(); ++i) {
    ASSERT_EQ(lc[i], dense.counters()[i]) << "counter " << i;
    ASSERT_EQ(lazy.counter(i), dense.counters()[i]) << "counter() " << i;
  }
  EXPECT_EQ(lazy.popcount(), dense.popcount());
  EXPECT_EQ(lazy.set_bits(), dense.set_bits());
  EXPECT_EQ(lazy.empty(), dense.popcount() == 0);
  for (const std::string& k : keys) {
    const util::HashPair hp = util::hash_pair(k);
    EXPECT_EQ(lazy.contains(k), dense.contains(k)) << k;
    EXPECT_EQ(lazy.contains(hp), dense.contains(k)) << k << " (hashed)";
    EXPECT_EQ(lazy.min_counter(k), dense.min_counter(k)) << k;
    EXPECT_EQ(lazy.min_counter(hp), dense.min_counter(k)) << k << " (hashed)";
  }
}

/// Dyadic decay amount: a multiple of 0.25 in (0, 15].
double dyadic_amount(util::Rng& rng) {
  return 0.25 * static_cast<double>(rng.next_int(1, 60));
}

TEST(TcbfDifferentialTest, InterleavedOpsOnMergedFilter) {
  const BloomParams params{128, 3};
  const double c0 = 50.0;
  const auto keys = key_pool(64);
  util::Rng rng(0xD1FFu);

  Tcbf lazy(params, c0);
  DenseRefTcbf dense(params, c0);

  for (int op = 0; op < 4000; ++op) {
    switch (rng.next_below(5)) {
      case 0:
      case 1: {  // merge in a fresh filter holding 1..4 keys
        Tcbf lf(params, c0);
        DenseRefTcbf df(params, c0);
        const int nk = static_cast<int>(rng.next_int(1, 4));
        for (int j = 0; j < nk; ++j) {
          const std::string& k = keys[rng.next_below(keys.size())];
          // Exercise both insert entry points on the lazy side.
          if (rng.next_bool(0.5)) {
            lf.insert(k);
          } else {
            lf.insert(util::hash_pair(k));
          }
          df.insert(k);
        }
        if (rng.next_bool(0.5)) {
          lazy.a_merge(lf);
          dense.a_merge(df);
        } else {
          lazy.m_merge(lf);
          dense.m_merge(df);
        }
        break;
      }
      case 2: {  // decay, sometimes repeatedly (accumulates the lazy base)
        const int reps = static_cast<int>(rng.next_int(1, 3));
        for (int r = 0; r < reps; ++r) {
          const double amount = dyadic_amount(rng);
          lazy.decay(amount);
          dense.decay(amount);
        }
        break;
      }
      case 3: {  // point queries
        const std::string& k = keys[rng.next_below(keys.size())];
        EXPECT_EQ(lazy.contains(k), dense.contains(k));
        EXPECT_EQ(lazy.min_counter(k), dense.min_counter(k));
        break;
      }
      case 4: {  // derived views
        EXPECT_EQ(lazy.popcount(), dense.popcount());
        EXPECT_EQ(lazy.to_bloom_filter().set_bits(), dense.set_bits());
        break;
      }
    }
    if (op % 250 == 0) expect_same_state(lazy, dense, keys);
  }
  expect_same_state(lazy, dense, keys);
}

TEST(TcbfDifferentialTest, InterleavedInsertDecayOnFreshFilter) {
  // A never-merged filter keeps insert() available: decay can drain a
  // counter to zero and a re-insert must revive it to C in both worlds.
  const BloomParams params{64, 4};
  const double c0 = 8.0;  // small C so decay genuinely drains counters
  const auto keys = key_pool(24);
  util::Rng rng(0xF12E5u);

  Tcbf lazy(params, c0);
  DenseRefTcbf dense(params, c0);

  for (int op = 0; op < 3000; ++op) {
    switch (rng.next_below(3)) {
      case 0: {
        const std::string& k = keys[rng.next_below(keys.size())];
        lazy.insert(k);
        dense.insert(k);
        break;
      }
      case 1: {
        const double amount = dyadic_amount(rng);
        lazy.decay(amount);
        dense.decay(amount);
        break;
      }
      case 2: {
        const std::string& k = keys[rng.next_below(keys.size())];
        EXPECT_EQ(lazy.min_counter(k), dense.min_counter(k));
        break;
      }
    }
    if (op % 250 == 0) expect_same_state(lazy, dense, keys);
  }
  expect_same_state(lazy, dense, keys);
}

TEST(TcbfDifferentialTest, PreferenceMatchesReferenceArithmetic) {
  const BloomParams params{128, 3};
  const auto keys = key_pool(32);
  util::Rng rng(77);

  Tcbf lb(params, 50.0), lf(params, 50.0);
  DenseRefTcbf db(params, 50.0), df(params, 50.0);
  for (int round = 0; round < 40; ++round) {
    Tcbf fresh_b(params, 50.0), fresh_f(params, 50.0);
    DenseRefTcbf dfresh_b(params, 50.0), dfresh_f(params, 50.0);
    for (int j = 0; j < 3; ++j) {
      const std::string& kb = keys[rng.next_below(keys.size())];
      const std::string& kf = keys[rng.next_below(keys.size())];
      fresh_b.insert(kb);
      dfresh_b.insert(kb);
      fresh_f.insert(kf);
      dfresh_f.insert(kf);
    }
    lb.a_merge(fresh_b);
    db.a_merge(dfresh_b);
    lf.m_merge(fresh_f);
    df.m_merge(dfresh_f);
    const double amount = dyadic_amount(rng);
    lb.decay(amount);
    db.decay(amount);
    lf.decay(amount);
    df.decay(amount);

    for (const std::string& k : keys) {
      const double ref_cb = db.min_counter(k).value_or(0.0);
      const std::optional<double> ref_cf = df.min_counter(k);
      const double expected = ref_cf.has_value() ? ref_cb - *ref_cf : ref_cb;
      EXPECT_EQ(preference(lb, lf, k), expected) << k;
      EXPECT_EQ(preference(lb, lf, util::hash_pair(k)), expected) << k;
    }
  }
}

std::vector<std::uint64_t> counter_bits(const std::vector<double>& counters) {
  std::vector<std::uint64_t> bits;
  bits.reserve(counters.size());
  for (double v : counters) bits.push_back(std::bit_cast<std::uint64_t>(v));
  return bits;
}

/// Bit-exact full-state equivalence: every counter's bit pattern plus the
/// population views.
void expect_bit_identical(const Tcbf& lazy, const DenseRefTcbf& dense,
                          const char* which) {
  EXPECT_EQ(counter_bits(lazy.counters()), counter_bits(dense.counters()))
      << which;
  EXPECT_EQ(lazy.popcount(), dense.popcount()) << which;
  EXPECT_EQ(lazy.set_bits(), dense.set_bits()) << which;
}

/// Bit-exact point queries for one key: contains, min_counter, and the
/// preference of b against f through both entry points.
void expect_same_queries(const Tcbf& b, const Tcbf& f, const DenseRefTcbf& db,
                         const DenseRefTcbf& df, const std::string& key) {
  EXPECT_EQ(b.contains(key), db.contains(key)) << key;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(b.min_counter(key).value_or(-1.0)),
            std::bit_cast<std::uint64_t>(db.min_counter(key).value_or(-1.0)))
      << key;
  const std::uint64_t want =
      std::bit_cast<std::uint64_t>(bsub::testing::preference(db, df, key));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(preference(b, f, key)), want) << key;
  const util::IndexArray idx =
      util::bloom_indices(key, b.params().k, b.params().m);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(preference_at(b, f, idx)), want)
      << key;
}

/// One seed's schedule of interleaved A-merges into a broker-side filter b,
/// M-merges and direct inserts into a peer filter f, b <- f M-merges,
/// dyadic decays and queries, replayed on Tcbf and the oracle in lock step.
/// m ranges over 64..512 and k over 2..5, so small fresh filters take the
/// sparse walk and the accumulated b takes the dense sweep.
void run_mixed_schedule(std::uint64_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  util::Rng rng(seed);
  const BloomParams params{
      static_cast<std::size_t>(64u << rng.next_below(4)),  // m in 64..512
      static_cast<std::uint32_t>(rng.next_int(2, 5))};
  const double c0 = 50.0;
  const auto keys = key_pool(48, "kd");

  Tcbf b(params, c0);  // broker-side filter: receives A-merges
  Tcbf f(params, c0);  // peer filter: receives M-merges and direct inserts
  DenseRefTcbf db(params, c0);
  DenseRefTcbf df(params, c0);

  // f stays never-merged for the first stretch so insert() is exercised too.
  bool f_insertable = true;

  for (int op = 0; op < 600; ++op) {
    switch (rng.next_below(6)) {
      case 0: {  // A-merge a fresh filter of 1..5 keys into b
        Tcbf fresh(params, c0);
        DenseRefTcbf dfresh(params, c0);
        const int nk = static_cast<int>(rng.next_int(1, 5));
        for (int j = 0; j < nk; ++j) {
          const std::string& k = keys[rng.next_below(keys.size())];
          fresh.insert(k);
          dfresh.insert(k);
        }
        b.a_merge(fresh);
        db.a_merge(dfresh);
        break;
      }
      case 1: {  // M-merge: either fresh->f, or b<-f (filters with history)
        if (rng.next_bool(0.3) && !f.empty()) {
          b.m_merge(f);
          db.m_merge(df);
        } else {
          Tcbf fresh(params, c0);
          DenseRefTcbf dfresh(params, c0);
          const int nk = static_cast<int>(rng.next_int(1, 4));
          for (int j = 0; j < nk; ++j) {
            const std::string& k = keys[rng.next_below(keys.size())];
            fresh.insert(k);
            dfresh.insert(k);
          }
          f.m_merge(fresh);
          df.m_merge(dfresh);
          f_insertable = false;
        }
        break;
      }
      case 2: {  // decay one or both filters (dyadic amounts: exact floats)
        const double amount = 0.25 * static_cast<double>(rng.next_int(1, 80));
        b.decay(amount);
        db.decay(amount);
        if (rng.next_bool(0.5)) {
          f.decay(amount);
          df.decay(amount);
        }
        break;
      }
      case 3: {  // direct insert while still allowed
        if (f_insertable) {
          const std::string& k = keys[rng.next_below(keys.size())];
          f.insert(k);
          df.insert(k);
        }
        break;
      }
      case 4:  // point queries, checked mid-run
        expect_same_queries(b, f, db, df, keys[rng.next_below(keys.size())]);
        break;
      case 5:  // derived views, checked mid-run
        EXPECT_EQ(b.popcount(), db.popcount());
        EXPECT_EQ(f.popcount(), df.popcount());
        EXPECT_EQ(b.to_bloom_filter().set_bits(), db.set_bits());
        break;
    }
  }

  expect_bit_identical(b, db, "b");
  expect_bit_identical(f, df, "f");
  for (const std::string& k : keys) expect_same_queries(b, f, db, df, k);
}

TEST(TcbfDifferentialTest, MixedScheduleBitIdenticalAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    run_mixed_schedule(seed);
    if (HasFailure()) return;
  }
}

TEST(TcbfDifferentialTest, LargeFilterDenseRegimeBitIdentical) {
  // m=65536 with enough keys to cross the merge crossover (1/16 occupancy),
  // so the dense sweeps run, with and without a pending decay base.
  const BloomParams params{65536, 4};
  const auto keys = key_pool(2048, "kd");

  Tcbf src(params, 50.0);
  DenseRefTcbf dsrc(params, 50.0);
  for (const std::string& k : keys) {
    src.insert(k);
    dsrc.insert(k);
  }
  ASSERT_GE(src.popcount(), params.m / 16) << "source must be dense";

  Tcbf b(params, 50.0);
  DenseRefTcbf db(params, 50.0);
  b.a_merge(src);
  db.a_merge(dsrc);
  b.decay(12.5);
  db.decay(12.5);
  b.m_merge(src);
  db.m_merge(dsrc);
  b.decay(40.0);  // drains the first-generation contribution in places
  db.decay(40.0);
  b.a_merge(src);
  db.a_merge(dsrc);
  src.decay(20.0);  // a decayed dense source: the sweeps' base != 0 branch
  dsrc.decay(20.0);
  b.m_merge(src);
  db.m_merge(dsrc);
  b.a_merge(src);
  db.a_merge(dsrc);

  expect_bit_identical(b, db, "b");
  expect_bit_identical(src, dsrc, "src");
  for (const std::string& k : keys) expect_same_queries(b, src, db, dsrc, k);
}

}  // namespace
}  // namespace bsub::bloom
