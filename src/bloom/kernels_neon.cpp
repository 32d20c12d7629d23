// NEON TCBF kernel (aarch64, where Advanced SIMD is architecturally
// guaranteed — no runtime feature probe needed, the dispatcher just prefers
// this backend when the TU exists).
//
// Mirrors the AVX2 backend's cache-line structure on 128-bit lanes: one
// occupancy byte = one 64-byte counter block = four float64x2 lanes.
// Element-wise IEEE sub/add/min/max only — bit-identical to the scalar
// reference (counters are never NaN or -0.0, so min/max tie handling and
// the mask-and idiom below cannot be observed).
#if defined(__aarch64__)

#include <arm_neon.h>

#include <bit>
#include <cstdint>

#include "bloom/kernels.h"
#include "bloom/kernels_detail.h"

namespace bsub::bloom::kernels {

namespace {

constexpr std::size_t kSlotsPerBlock = 8;

/// Effective counters for one 128-bit lane: (v > base) ? v - base : 0.0.
inline float64x2_t effective2(float64x2_t v, float64x2_t vbase) {
  const uint64x2_t gt = vcgtq_f64(v, vbase);
  const float64x2_t diff = vsubq_f64(v, vbase);
  return vreinterpretq_f64_u64(
      vandq_u64(vreinterpretq_u64_f64(diff), gt));
}

/// Liveness pair (2 bits) of one lane.
inline std::uint64_t live2(float64x2_t eff) {
  const uint64x2_t gt = vcgtq_f64(eff, vdupq_n_f64(0.0));
  return (vgetq_lane_u64(gt, 0) & 1u) | ((vgetq_lane_u64(gt, 1) & 1u) << 1);
}

template <bool kAMerge>
inline std::uint64_t merge_block(double* dst, const double* src,
                                 float64x2_t vbase, float64x2_t vsat) {
  std::uint64_t live = 0;
  for (std::size_t h = 0; h < 4; ++h) {
    const float64x2_t eff = effective2(vld1q_f64(src + 2 * h), vbase);
    const float64x2_t d = vld1q_f64(dst + 2 * h);
    float64x2_t res;
    if constexpr (kAMerge) {
      res = vminq_f64(vaddq_f64(d, eff), vsat);
    } else {
      res = vmaxq_f64(d, vminq_f64(eff, vsat));
    }
    vst1q_f64(dst + 2 * h, res);
    live |= live2(eff) << (2 * h);
  }
  return live;
}

/// Block merge for a source with no pending decay: effective == raw, no
/// liveness lanes to extract — pure load/add-or-max/min/store.
template <bool kAMerge>
inline void merge_block_nobase(double* dst, const double* src,
                               float64x2_t vsat) {
  for (std::size_t h = 0; h < 4; ++h) {
    const float64x2_t s = vld1q_f64(src + 2 * h);
    const float64x2_t d = vld1q_f64(dst + 2 * h);
    float64x2_t res;
    if constexpr (kAMerge) {
      res = vminq_f64(vaddq_f64(d, s), vsat);
    } else {
      res = vmaxq_f64(d, vminq_f64(s, vsat));
    }
    vst1q_f64(dst + 2 * h, res);
  }
}

template <bool kAMerge>
void merge(const MutView& dst, const ConstView& src, double saturation) {
  // No density crossover here: the unit of work is a whole cache line, so
  // the empty-byte test costs one predictable branch when the source is
  // dense and saves the line's entire memory traffic when it is sparse.
  const float64x2_t vsat = vdupq_n_f64(saturation);
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
  const float64x2_t vbase = vdupq_n_f64(src.base);
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
  const float64x2_t vbase = vdupq_n_f64(base);
  for (std::size_t w = 0; w < f.words; ++w) {
    const std::uint64_t occw = f.occ[w];
    if (occw == 0) continue;
    std::uint64_t live = 0;
    for (std::size_t b = 0; b < kSlotsPerWord / kSlotsPerBlock; ++b) {
      if (((occw >> (b * kSlotsPerBlock)) & 0xFF) == 0) continue;
      const std::size_t s0 = w * kSlotsPerWord + b * kSlotsPerBlock;
      std::uint64_t block_live = 0;
      for (std::size_t h = 0; h < 4; ++h) {
        const float64x2_t eff = effective2(vld1q_f64(f.raw + s0 + 2 * h),
                                           vbase);
        vst1q_f64(f.raw + s0 + 2 * h, eff);
        block_live |= live2(eff) << (2 * h);
      }
      live |= block_live << (b * kSlotsPerBlock);
    }
    *f.occupied_bits += static_cast<std::size_t>(std::popcount(live)) -
                        static_cast<std::size_t>(std::popcount(occw));
    f.occ[w] = live;
  }
}

std::size_t popcount(const ConstView& f) {
  const float64x2_t vbase = vdupq_n_f64(f.base);
  std::size_t n = 0;
  for (std::size_t w = 0; w < f.words; ++w) {
    const std::uint64_t occw = f.occ[w];
    if (occw == 0) continue;
    for (std::size_t b = 0; b < kSlotsPerWord / kSlotsPerBlock; ++b) {
      if (((occw >> (b * kSlotsPerBlock)) & 0xFF) == 0) continue;
      const std::size_t s0 = w * kSlotsPerWord + b * kSlotsPerBlock;
      std::uint64_t block_live = 0;
      for (std::size_t h = 0; h < 4; ++h) {
        block_live |= live2(effective2(vld1q_f64(f.raw + s0 + 2 * h), vbase))
                      << (2 * h);
      }
      n += static_cast<std::size_t>(std::popcount(block_live));
    }
  }
  return n;
}

}  // namespace

const Ops& neon_ops() {
  static constexpr Ops ops = {
      Kind::kNeon,
      "neon",
      &a_merge,
      &m_merge,
      &normalize,
      &popcount,
      &detail::scalar_set_bits_into,
      &detail::scalar_contains,
      &detail::scalar_min_counter,
  };
  return ops;
}

}  // namespace bsub::bloom::kernels

#endif  // __aarch64__
