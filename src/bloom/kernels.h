// TCBF kernel layer: the data-plane operations of the Temporal Counting
// Bloom Filter — A-merge, M-merge, normalize (decay-base fold), popcount /
// set-bit extraction, and the existential / preferential point queries —
// over raw views of a filter's counter array and occupancy bitmap.
// bloom::Tcbf calls these routines directly. This header declares them and
// defines the point queries inline; kernels.cpp holds the merges and
// sweeps. Each operation has this one statement.
//
// All arithmetic is element-wise IEEE add/sub/min/max with no reassociation
// and no FMA, so results are bit-exact: tests/bloom/tcbf_differential_test
// and the fuzz_tcbf_kernels target check Tcbf against the dense eager
// oracle (tests/testing/dense_tcbf.h) counter bit for counter bit.
//
// Lazy-vs-dense crossover: a merge walks the source's occupancy bitmap bit
// by bit while the source is sparse, and switches to a dense word sweep
// once 1/16 of its slots are occupied — per-bit extraction costs more than
// streaming the array once when a meaningful fraction of slots is live
// (this is what made the lazy representation *lose* to dense on a_merge at
// m=1024). The choice depends only on the source's occupancy, and both
// paths compute the same bits; it changes the instruction schedule, never
// the result.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <string_view>
#include <vector>

namespace bsub::bloom::kernels {

/// Counter storage granularity: one cache line of 8 doubles. The counter
/// array is allocated on this alignment and padded to whole occupancy
/// words, so the dense sweeps always stream full aligned blocks.
inline constexpr std::size_t kCounterAlign = 64;

/// Counter slots covered by one occupancy-bitmap word.
inline constexpr std::size_t kSlotsPerWord = 64;

/// Allocator pinning counter blocks to cache-line boundaries.
template <class T>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() = default;
  template <class U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{kCounterAlign}));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    ::operator delete(p, n * sizeof(T), std::align_val_t{kCounterAlign});
  }

  template <class U>
  friend bool operator==(const AlignedAllocator&,
                         const AlignedAllocator<U>&) noexcept {
    return true;
  }
};

/// The TCBF counter array: 64-byte aligned, sized to a whole number of
/// occupancy words (padding slots hold 0.0 and never gain occupancy bits).
using CounterVector = std::vector<double, AlignedAllocator<double>>;

/// Read-only view of one filter's hot state. `raw` holds words *
/// kSlotsPerWord slots; a stored value v represents the effective counter
/// max(0, v - base). `occ` bit i set implies raw[i] > 0 (superset of the
/// live slots: decay can strand stale bits until the next normalize).
struct ConstView {
  const double* raw;
  const std::uint64_t* occ;
  std::size_t words;
  std::size_t occupied_bits;  ///< set bits in occ (upper bound on live slots)
  double base;                ///< pending decay not yet folded into raw
};

/// Mutable view of a merge destination. Merges require the destination to
/// be normalized first (base folded in, so occ bit i <=> raw[i] > 0); they
/// keep `*occupied_bits` in sync with `occ`.
struct MutView {
  double* raw;
  std::uint64_t* occ;
  std::size_t words;
  std::size_t* occupied_bits;
};

/// Effective (decayed) value of one stored counter. Formulated on the
/// difference (d > 0 exactly when v > base: IEEE subtraction of doubles
/// never rounds a positive difference to zero) so compilers emit a branch-
/// free maxsd — the branchy form mispredicts badly on half-live arrays.
inline double effective(double v, double base) {
  const double d = v - base;
  return d > 0.0 ? d : 0.0;
}

/// Sets occupancy bit i, keeping the set-bit count in sync.
inline void mark_occupied(const MutView& dst, std::size_t i) {
  std::uint64_t& word = dst.occ[i / kSlotsPerWord];
  const std::uint64_t bit = 1ULL << (i % kSlotsPerWord);
  *dst.occupied_bits += !(word & bit);
  word |= bit;
}

// --- merges, normalize, population (kernels.cpp) ----------------------------
//
// Out of line on purpose: with the saturation ceiling a runtime argument,
// GCC vectorizes the dense sweep's clamp to a single minpd; inlined into
// Tcbf, where the ceiling is a constant, it emits a four-instruction blend
// and the m=1024 merge runs ~15% slower.

/// dst[i] = min(dst[i] + src_effective[i], saturation); OR-in occupancy.
void a_merge(const MutView& dst, const ConstView& src, double saturation);

/// dst[i] = max(dst[i], min(src_effective[i], saturation)); OR-in occupancy.
void m_merge(const MutView& dst, const ConstView& src, double saturation);

/// Folds `base` into the array (raw[i] = effective) and prunes occupancy
/// bits whose slot drained to zero.
void normalize(const MutView& f, double base);

/// Number of live slots (effective > 0).
std::size_t popcount(const ConstView& f);

/// Ascending indices of live slots appended into `out` (cleared first).
void set_bits_into(const ConstView& f, std::vector<std::size_t>& out);

// --- point queries (inline: they sit on the contact fast path) --------------

/// Existential query: all k slots live?
inline bool contains(const ConstView& f, const std::size_t* idx,
                     std::size_t k) {
  for (std::size_t i = 0; i < k; ++i) {
    if (effective(f.raw[idx[i]], f.base) <= 0.0) return false;
  }
  return true;
}

/// Minimum effective counter over k slots; false when any slot is dead.
inline bool min_counter(const ConstView& f, const std::size_t* idx,
                        std::size_t k, double* out) {
  double min_c = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    const double c = effective(f.raw[idx[i]], f.base);
    if (c <= 0.0) return false;
    min_c = (i == 0 || c < min_c) ? c : min_c;
  }
  *out = min_c;
  return true;
}

// --- kernel name ------------------------------------------------------------
//
// bench/e2e/bsub_bench.cpp prints kind_name(active_kind()) in its run
// header, and the benchmark's sources only change together with the
// benchmark itself. These two functions keep it building; with one kernel
// they always answer "scalar". Nothing else calls them — delete them with
// that line the next time the benchmark changes.

enum class Kind : std::uint8_t { kScalar };

constexpr Kind active_kind() { return Kind::kScalar; }

constexpr std::string_view kind_name(Kind) { return "scalar"; }

}  // namespace bsub::bloom::kernels
