// Cross-kernel differential test: the same seeded schedule of interleaved
// insert / A-merge / M-merge / decay / query operations is replayed under
// every compiled-and-runnable kernel backend (scalar, avx2, neon),
// and the complete observable state — every raw counter bit pattern, the
// derived views, every point-query answer, the preferential query, and the
// encoded wire bytes — must be identical to the scalar reference run.
//
// This is the contract the kernel layer advertises (bloom/kernels.h): all
// backends compute element-wise IEEE add/sub/min/max with no reassociation,
// so switching the dispatch target can never change a result bit, only the
// instruction schedule. Counters are compared through std::bit_cast so that
// even a 0.0 / -0.0 discrepancy (which double== would forgive) fails.
#include "bloom/kernels.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "bloom/bloom_params.h"
#include "bloom/tcbf.h"
#include "bloom/tcbf_codec.h"
#include "util/hash.h"
#include "util/rng.h"

namespace bsub::bloom {
namespace {

namespace kernels = bsub::bloom::kernels;

/// Restores default dispatch after each test so a failing run cannot leak a
/// forced backend into later tests in the same process.
class KernelDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_ = kernels::active_kind(); }
  void TearDown() override { kernels::force_kernel(saved_); }

 private:
  kernels::Kind saved_;
};

std::vector<kernels::Kind> runnable_kernels() {
  std::vector<kernels::Kind> kinds;
  for (kernels::Kind k :
       {kernels::Kind::kScalar, kernels::Kind::kAvx2, kernels::Kind::kNeon}) {
    if (kernels::available(k)) kinds.push_back(k);
  }
  return kinds;
}

std::vector<std::string> key_pool(std::size_t n) {
  std::vector<std::string> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) keys.push_back("kd" + std::to_string(i));
  return keys;
}

/// Everything a backend can influence, captured bit-exactly. The mid-run
/// trace records query answers observed *while* the schedule executes (so a
/// kernel that corrupts state transiently, then self-heals, still fails).
struct Snapshot {
  std::vector<std::uint64_t> counter_bits_b;
  std::vector<std::uint64_t> counter_bits_f;
  std::vector<std::size_t> set_bits_b;
  std::size_t popcount_b = 0;
  std::size_t popcount_f = 0;
  std::vector<std::uint64_t> trace;
  std::vector<std::uint8_t> wire_full;
  std::vector<std::uint8_t> wire_uniform;

  bool operator==(const Snapshot&) const = default;
};

std::vector<std::uint64_t> counter_bits(const Tcbf& f) {
  std::vector<std::uint64_t> bits;
  for (double v : f.counters()) bits.push_back(std::bit_cast<std::uint64_t>(v));
  return bits;
}

/// Replays one seed's schedule start-to-finish under the currently forced
/// kernel and captures the resulting snapshot.
Snapshot run_schedule(std::uint64_t seed) {
  util::Rng rng(seed);
  const BloomParams params{
      static_cast<std::size_t>(64u << rng.next_below(4)),  // m in 64..512
      static_cast<std::uint32_t>(rng.next_int(2, 5))};
  const double c0 = 50.0;
  const auto keys = key_pool(48);

  Snapshot snap;
  Tcbf b(params, c0);  // broker-side filter: receives A-merges
  Tcbf f(params, c0);  // peer filter: receives M-merges and direct inserts

  // f stays never-merged for the first stretch so insert() is exercised too.
  bool f_insertable = true;

  for (int op = 0; op < 600; ++op) {
    switch (rng.next_below(6)) {
      case 0: {  // A-merge a fresh filter of 1..5 keys into b
        Tcbf fresh(params, c0);
        const int nk = static_cast<int>(rng.next_int(1, 5));
        for (int j = 0; j < nk; ++j) {
          fresh.insert(keys[rng.next_below(keys.size())]);
        }
        b.a_merge(fresh);
        break;
      }
      case 1: {  // M-merge: either fresh->f, or b<-f (filters with history)
        if (rng.next_bool(0.3) && !f.empty()) {
          b.m_merge(f);
        } else {
          Tcbf fresh(params, c0);
          const int nk = static_cast<int>(rng.next_int(1, 4));
          for (int j = 0; j < nk; ++j) {
            fresh.insert(keys[rng.next_below(keys.size())]);
          }
          f.m_merge(fresh);
          f_insertable = false;
        }
        break;
      }
      case 2: {  // decay one or both filters (dyadic amounts: exact floats)
        const double amount = 0.25 * static_cast<double>(rng.next_int(1, 80));
        b.decay(amount);
        if (rng.next_bool(0.5)) f.decay(amount);
        break;
      }
      case 3: {  // direct insert while still allowed
        if (f_insertable) f.insert(keys[rng.next_below(keys.size())]);
        break;
      }
      case 4: {  // point queries, recorded into the trace
        const std::string& k = keys[rng.next_below(keys.size())];
        snap.trace.push_back(b.contains(k));
        snap.trace.push_back(
            std::bit_cast<std::uint64_t>(b.min_counter(k).value_or(-1.0)));
        snap.trace.push_back(std::bit_cast<std::uint64_t>(preference(b, f, k)));
        const util::IndexArray idx =
            util::bloom_indices(k, params.k, params.m);
        snap.trace.push_back(
            std::bit_cast<std::uint64_t>(preference_at(b, f, idx)));
        break;
      }
      case 5: {  // derived views, recorded into the trace
        snap.trace.push_back(b.popcount());
        snap.trace.push_back(f.popcount());
        snap.trace.push_back(b.to_bloom_filter().set_bits().size());
        break;
      }
    }
  }

  snap.counter_bits_b = counter_bits(b);
  snap.counter_bits_f = counter_bits(f);
  snap.set_bits_b = b.set_bits();
  snap.popcount_b = b.popcount();
  snap.popcount_f = f.popcount();
  snap.wire_full = encode_tcbf(b, CounterEncoding::kFull);
  snap.wire_uniform = encode_tcbf(b, CounterEncoding::kUniform);
  return snap;
}

TEST_F(KernelDifferentialTest, AllKernelsBitIdenticalAcrossSeeds) {
  const auto kinds = runnable_kernels();
  ASSERT_FALSE(kinds.empty());
  ASSERT_EQ(kinds.front(), kernels::Kind::kScalar);

  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    ASSERT_TRUE(kernels::force_kernel(kernels::Kind::kScalar));
    const Snapshot reference = run_schedule(seed);
    for (std::size_t i = 1; i < kinds.size(); ++i) {
      ASSERT_TRUE(kernels::force_kernel(kinds[i]));
      const Snapshot got = run_schedule(seed);
      EXPECT_EQ(got, reference)
          << "kernel " << kernels::kind_name(kinds[i])
          << " diverged from scalar on seed " << seed;
    }
  }
}

TEST_F(KernelDifferentialTest, LargeFilterDenseRegimeBitIdentical) {
  // m=65536 pushes every merge through the word/byte-skip machinery with
  // many full occupancy words; enough keys to cross the scalar kernel's
  // lazy-vs-dense crossover (1/16 occupancy) so the dense sweep runs too.
  const auto kinds = runnable_kernels();
  const BloomParams params{65536, 4};
  const auto keys = key_pool(2048);

  std::vector<Snapshot> snaps;
  for (kernels::Kind kind : kinds) {
    ASSERT_TRUE(kernels::force_kernel(kind));
    Tcbf b(params, 50.0);
    Tcbf dense_src(params, 50.0);
    for (const std::string& k : keys) dense_src.insert(k);
    b.a_merge(dense_src);
    b.decay(12.5);
    b.m_merge(dense_src);
    b.decay(40.0);  // drains the first-generation contribution in places
    b.a_merge(dense_src);

    Snapshot snap;
    snap.counter_bits_b = counter_bits(b);
    snap.set_bits_b = b.set_bits();
    snap.popcount_b = b.popcount();
    snap.wire_full = encode_tcbf(b, CounterEncoding::kFull);
    snaps.push_back(std::move(snap));
  }
  for (std::size_t i = 1; i < snaps.size(); ++i) {
    EXPECT_EQ(snaps[i], snaps[0])
        << "kernel " << kernels::kind_name(kinds[i]) << " diverged";
  }
}

TEST_F(KernelDifferentialTest, ForceKernelRoundTrip) {
  for (kernels::Kind kind : runnable_kernels()) {
    ASSERT_TRUE(kernels::force_kernel(kind));
    EXPECT_EQ(kernels::active_kind(), kind);
    EXPECT_EQ(kernels::active().kind, kind);
  }
  // Unavailable kinds must refuse and leave dispatch unchanged.
#if !defined(__aarch64__)
  const kernels::Kind before = kernels::active_kind();
  EXPECT_FALSE(kernels::force_kernel(kernels::Kind::kNeon));
  EXPECT_EQ(kernels::active_kind(), before);
#endif
}

}  // namespace
}  // namespace bsub::bloom
