// AVX2 TCBF kernel (x86-64; this TU is compiled with -mavx2 and only ever
// entered after runtime CPUID dispatch confirms the ISA).
//
// Walks the occupancy bitmap one word at a time and, for each non-zero
// occupancy byte, processes its 8-slot / 64-byte counter block (one cache
// line) as two 256-bit lanes: a sparse merge touches only the cache lines
// that hold live counters, with no per-bit branching inside a line. Arithmetic is element-wise IEEE add/sub/min/max with no
// reassociation and no FMA, so every result is bit-identical to the scalar
// reference:
//   effective(v)  = and(sub(v, base), cmp_gt(v, base))   [exact 0.0 when dead]
//   a_merge slot  = min(dst + eff, saturation)
//   m_merge slot  = max(dst, min(eff, saturation))
// min/max ties return operands with identical bit patterns here (counters
// are never -0.0 or NaN), so tie-breaking order cannot be observed.
#include <immintrin.h>

#include <bit>
#include <cstdint>

#include "bloom/kernels.h"
#include "bloom/kernels_detail.h"

namespace bsub::bloom::kernels {

namespace {

constexpr std::size_t kSlotsPerBlock = 8;

/// Effective counters for one 256-bit lane.
inline __m256d effective4(__m256d v, __m256d vbase) {
  const __m256d gt = _mm256_cmp_pd(v, vbase, _CMP_GT_OQ);
  return _mm256_and_pd(_mm256_sub_pd(v, vbase), gt);
}

/// Liveness nibble (4 bits) of one lane: bit per slot with value > 0.
inline std::uint64_t live4(__m256d eff) {
  const __m256d gt = _mm256_cmp_pd(eff, _mm256_setzero_pd(), _CMP_GT_OQ);
  return static_cast<std::uint64_t>(_mm256_movemask_pd(gt));
}

template <bool kAMerge>
inline std::uint64_t merge_block(double* dst, const double* src,
                                 __m256d vbase, __m256d vsat) {
  std::uint64_t live = 0;
  for (std::size_t h = 0; h < 2; ++h) {
    const __m256d eff = effective4(_mm256_load_pd(src + 4 * h), vbase);
    const __m256d d = _mm256_load_pd(dst + 4 * h);
    __m256d res;
    if constexpr (kAMerge) {
      res = _mm256_min_pd(_mm256_add_pd(d, eff), vsat);
    } else {
      res = _mm256_max_pd(d, _mm256_min_pd(eff, vsat));
    }
    _mm256_store_pd(dst + 4 * h, res);
    live |= live4(eff) << (4 * h);
  }
  return live;
}

/// Block merge for a source with no pending decay: effective == raw, no
/// liveness masks to build — two pure load/add-or-max/min/store lanes.
template <bool kAMerge>
inline void merge_block_nobase(double* dst, const double* src, __m256d vsat) {
  for (std::size_t h = 0; h < 2; ++h) {
    const __m256d s = _mm256_load_pd(src + 4 * h);
    const __m256d d = _mm256_load_pd(dst + 4 * h);
    __m256d res;
    if constexpr (kAMerge) {
      res = _mm256_min_pd(_mm256_add_pd(d, s), vsat);
    } else {
      res = _mm256_max_pd(d, _mm256_min_pd(s, vsat));
    }
    _mm256_store_pd(dst + 4 * h, res);
  }
}

template <bool kAMerge>
void merge(const MutView& dst, const ConstView& src, double saturation) {
  // No density crossover here: the unit of work is a whole cache line, so
  // the empty-byte test costs one predictable branch when the source is
  // dense and saves the line's entire memory traffic when it is sparse.
  const __m256d vsat = _mm256_set1_pd(saturation);
  if (src.base == 0.0) {
    // Exact occupancy (bit <=> raw > 0): skipped bytes contribute no live
    // bits, so the word's liveness mask is src.occ[w] verbatim.
    for (std::size_t w = 0; w < src.words; ++w) {
      const std::uint64_t srcw = src.occ[w];
      if (srcw == 0) continue;
      for (std::size_t b = 0; b < kSlotsPerWord / kSlotsPerBlock; ++b) {
        if (((srcw >> (b * kSlotsPerBlock)) & 0xFF) == 0) continue;
        const std::size_t s0 = w * kSlotsPerWord + b * kSlotsPerBlock;
        merge_block_nobase<kAMerge>(dst.raw + s0, src.raw + s0, vsat);
      }
      detail::merge_occupancy_word(dst, w, srcw);
    }
    return;
  }
  const __m256d vbase = _mm256_set1_pd(src.base);
  for (std::size_t w = 0; w < src.words; ++w) {
    const std::uint64_t srcw = src.occ[w];
    if (srcw == 0) continue;
    std::uint64_t live = 0;
    for (std::size_t b = 0; b < kSlotsPerWord / kSlotsPerBlock; ++b) {
      if (((srcw >> (b * kSlotsPerBlock)) & 0xFF) == 0) continue;
      const std::size_t s0 = w * kSlotsPerWord + b * kSlotsPerBlock;
      live |= merge_block<kAMerge>(dst.raw + s0, src.raw + s0, vbase, vsat)
              << (b * kSlotsPerBlock);
    }
    detail::merge_occupancy_word(dst, w, live);
  }
}

void a_merge(const MutView& dst, const ConstView& src, double saturation) {
  merge<true>(dst, src, saturation);
}

void m_merge(const MutView& dst, const ConstView& src, double saturation) {
  merge<false>(dst, src, saturation);
}

void normalize(const MutView& f, double base) {
  if (base == 0.0) return;
  const __m256d vbase = _mm256_set1_pd(base);
  for (std::size_t w = 0; w < f.words; ++w) {
    const std::uint64_t occw = f.occ[w];
    if (occw == 0) continue;
    std::uint64_t live = 0;
    for (std::size_t b = 0; b < kSlotsPerWord / kSlotsPerBlock; ++b) {
      if (((occw >> (b * kSlotsPerBlock)) & 0xFF) == 0) continue;
      const std::size_t s0 = w * kSlotsPerWord + b * kSlotsPerBlock;
      std::uint64_t block_live = 0;
      for (std::size_t h = 0; h < 2; ++h) {
        const __m256d eff = effective4(_mm256_load_pd(f.raw + s0 + 4 * h),
                                       vbase);
        _mm256_store_pd(f.raw + s0 + 4 * h, eff);
        block_live |= live4(eff) << (4 * h);
      }
      live |= block_live << (b * kSlotsPerBlock);
    }
    *f.occupied_bits += static_cast<std::size_t>(std::popcount(live)) -
                        static_cast<std::size_t>(std::popcount(occw));
    f.occ[w] = live;
  }
}

/// Builds the 64-bit liveness mask of one occupancy word.
inline std::uint64_t live_word(const ConstView& f, std::size_t w,
                               __m256d vbase) {
  const std::uint64_t occw = f.occ[w];
  std::uint64_t live = 0;
  for (std::size_t b = 0; b < kSlotsPerWord / kSlotsPerBlock; ++b) {
    if (((occw >> (b * kSlotsPerBlock)) & 0xFF) == 0) continue;
    const std::size_t s0 = w * kSlotsPerWord + b * kSlotsPerBlock;
    std::uint64_t block_live = 0;
    for (std::size_t h = 0; h < 2; ++h) {
      block_live |=
          live4(effective4(_mm256_load_pd(f.raw + s0 + 4 * h), vbase))
          << (4 * h);
    }
    live |= block_live << (b * kSlotsPerBlock);
  }
  return live;
}

std::size_t popcount(const ConstView& f) {
  const __m256d vbase = _mm256_set1_pd(f.base);
  std::size_t n = 0;
  for (std::size_t w = 0; w < f.words; ++w) {
    if (f.occ[w] == 0) continue;
    n += static_cast<std::size_t>(std::popcount(live_word(f, w, vbase)));
  }
  return n;
}

void set_bits_into(const ConstView& f, std::vector<std::size_t>& out) {
  out.clear();
  out.reserve(f.occupied_bits);
  const __m256d vbase = _mm256_set1_pd(f.base);
  for (std::size_t w = 0; w < f.words; ++w) {
    if (f.occ[w] == 0) continue;
    std::uint64_t live = live_word(f, w, vbase);
    while (live != 0) {
      out.push_back(w * kSlotsPerWord +
                    static_cast<std::size_t>(std::countr_zero(live)));
      live &= live - 1;
    }
  }
}

}  // namespace

const Ops& avx2_ops() {
  // Point queries stay scalar: k is tiny (4 in the paper's config) and
  // vgatherpd latency loses to four dependent scalar loads in practice.
  static constexpr Ops ops = {
      Kind::kAvx2,
      "avx2",
      &a_merge,
      &m_merge,
      &normalize,
      &popcount,
      &set_bits_into,
      &detail::scalar_contains,
      &detail::scalar_min_counter,
  };
  return ops;
}

}  // namespace bsub::bloom::kernels
