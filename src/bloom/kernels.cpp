// TCBF merges, normalize and population sweeps (declared in
// bloom/kernels.h). Merges walk the source's occupancy bitmap bit by bit
// while it is sparse and sweep the whole array once it is dense; both paths
// compute the same bits.
#include "bloom/kernels.h"

#include <bit>

namespace bsub::bloom::kernels {

namespace {

/// Crossover: a merge sweeps the whole array once the source has at least
/// m >> kDensityShift occupied slots (density 1/16). At the paper's key
/// load (~140 live slots) this keeps m=8192 and up on the sparse walk
/// while m=1024 (~14% occupancy) takes the sweep.
constexpr unsigned kDensityShift = 4;

bool prefer_dense(const ConstView& src) {
  return src.occupied_bits >= (src.words * kSlotsPerWord) >> kDensityShift;
}

/// ORs a per-word liveness mask into the destination occupancy word,
/// keeping the set-bit count in sync.
void merge_occupancy_word(const MutView& dst, std::size_t w,
                          std::uint64_t live) {
  const std::uint64_t before = dst.occ[w];
  const std::uint64_t after = before | live;
  *dst.occupied_bits += static_cast<std::size_t>(std::popcount(after)) -
                        static_cast<std::size_t>(std::popcount(before));
  dst.occ[w] = after;
}

// --- sparse per-bit merges --------------------------------------------------

void sparse_a_merge(const MutView& dst, const ConstView& src,
                    double saturation) {
  for (std::size_t w = 0; w < src.words; ++w) {
    std::uint64_t bits = src.occ[w];
    while (bits != 0) {
      const std::size_t i = w * kSlotsPerWord +
                            static_cast<std::size_t>(std::countr_zero(bits));
      bits &= bits - 1;
      const double add = effective(src.raw[i], src.base);
      if (add <= 0.0) continue;
      const double sum = dst.raw[i] + add;
      dst.raw[i] = sum < saturation ? sum : saturation;
      mark_occupied(dst, i);
    }
  }
}

void sparse_m_merge(const MutView& dst, const ConstView& src,
                    double saturation) {
  for (std::size_t w = 0; w < src.words; ++w) {
    std::uint64_t bits = src.occ[w];
    while (bits != 0) {
      const std::size_t i = w * kSlotsPerWord +
                            static_cast<std::size_t>(std::countr_zero(bits));
      bits &= bits - 1;
      double v = effective(src.raw[i], src.base);
      if (v > saturation) v = saturation;
      if (v <= 0.0) continue;
      if (v > dst.raw[i]) {
        dst.raw[i] = v;
        mark_occupied(dst, i);
      }
    }
  }
}

// --- dense word sweeps ------------------------------------------------------
//
// When the source carries no pending decay (base == 0) its occupancy bitmap
// is exact (bit i <=> raw[i] > 0): the liveness mask IS src.occ[w], no
// per-slot comparison needed, and the arithmetic collapses to a pure
// add/min (resp. min/max) loop the compiler auto-vectorizes. Zero source
// slots are no-ops in both formulas (dst + 0 stays dst, which is <= the
// saturation ceiling by the storage invariant; max(dst, 0) stays dst), so
// sweeping them is free of observable effect — bit-identical to the sparse
// walk.

void dense_a_merge(const MutView& dst, const ConstView& src,
                   double saturation) {
  if (src.base == 0.0) {
    for (std::size_t w = 0; w < src.words; ++w) {
      const std::uint64_t occw = src.occ[w];
      if (occw == 0) continue;
      const std::size_t s0 = w * kSlotsPerWord;
      for (std::size_t j = 0; j < kSlotsPerWord; ++j) {
        const double sum = dst.raw[s0 + j] + src.raw[s0 + j];
        dst.raw[s0 + j] = sum < saturation ? sum : saturation;
      }
      merge_occupancy_word(dst, w, occw);
    }
    return;
  }
  for (std::size_t w = 0; w < src.words; ++w) {
    if (src.occ[w] == 0) continue;  // occ is a superset of live slots
    std::uint64_t live = 0;
    const std::size_t s0 = w * kSlotsPerWord;
    for (std::size_t j = 0; j < kSlotsPerWord; ++j) {
      const double add = effective(src.raw[s0 + j], src.base);
      const double sum = dst.raw[s0 + j] + add;
      dst.raw[s0 + j] = sum < saturation ? sum : saturation;
      live |= static_cast<std::uint64_t>(add > 0.0) << j;
    }
    merge_occupancy_word(dst, w, live);
  }
}

void dense_m_merge(const MutView& dst, const ConstView& src,
                   double saturation) {
  if (src.base == 0.0) {
    for (std::size_t w = 0; w < src.words; ++w) {
      const std::uint64_t occw = src.occ[w];
      if (occw == 0) continue;
      const std::size_t s0 = w * kSlotsPerWord;
      for (std::size_t j = 0; j < kSlotsPerWord; ++j) {
        double v = src.raw[s0 + j];
        if (v > saturation) v = saturation;
        const double d = dst.raw[s0 + j];
        dst.raw[s0 + j] = v > d ? v : d;
      }
      merge_occupancy_word(dst, w, occw);
    }
    return;
  }
  for (std::size_t w = 0; w < src.words; ++w) {
    if (src.occ[w] == 0) continue;
    std::uint64_t live = 0;
    const std::size_t s0 = w * kSlotsPerWord;
    for (std::size_t j = 0; j < kSlotsPerWord; ++j) {
      double v = effective(src.raw[s0 + j], src.base);
      if (v > saturation) v = saturation;
      const double d = dst.raw[s0 + j];
      dst.raw[s0 + j] = v > d ? v : d;
      live |= static_cast<std::uint64_t>(v > 0.0) << j;
    }
    merge_occupancy_word(dst, w, live);
  }
}

}  // namespace

// --- merges -----------------------------------------------------------------

void a_merge(const MutView& dst, const ConstView& src, double saturation) {
  if (prefer_dense(src)) {
    dense_a_merge(dst, src, saturation);
  } else {
    sparse_a_merge(dst, src, saturation);
  }
}

void m_merge(const MutView& dst, const ConstView& src, double saturation) {
  if (prefer_dense(src)) {
    dense_m_merge(dst, src, saturation);
  } else {
    sparse_m_merge(dst, src, saturation);
  }
}

// --- normalize / population -------------------------------------------------

void normalize(const MutView& f, double base) {
  if (base == 0.0) return;  // occ bit <=> raw > 0 already holds
  for (std::size_t w = 0; w < f.words; ++w) {
    std::uint64_t bits = f.occ[w];
    while (bits != 0) {
      const std::size_t i = w * kSlotsPerWord +
                            static_cast<std::size_t>(std::countr_zero(bits));
      bits &= bits - 1;
      const double v = effective(f.raw[i], base);
      f.raw[i] = v;
      if (v <= 0.0) {
        f.occ[w] &= ~(1ULL << (i % kSlotsPerWord));
        --*f.occupied_bits;
      }
    }
  }
}

std::size_t popcount(const ConstView& f) {
  std::size_t n = 0;
  for (std::size_t w = 0; w < f.words; ++w) {
    std::uint64_t bits = f.occ[w];
    while (bits != 0) {
      const std::size_t i = w * kSlotsPerWord +
                            static_cast<std::size_t>(std::countr_zero(bits));
      bits &= bits - 1;
      n += (effective(f.raw[i], f.base) > 0.0);
    }
  }
  return n;
}

void set_bits_into(const ConstView& f, std::vector<std::size_t>& out) {
  out.clear();
  out.reserve(f.occupied_bits);
  for (std::size_t w = 0; w < f.words; ++w) {
    std::uint64_t bits = f.occ[w];
    while (bits != 0) {
      const std::size_t i = w * kSlotsPerWord +
                            static_cast<std::size_t>(std::countr_zero(bits));
      bits &= bits - 1;
      if (effective(f.raw[i], f.base) > 0.0) out.push_back(i);
    }
  }
}

}  // namespace bsub::bloom::kernels
