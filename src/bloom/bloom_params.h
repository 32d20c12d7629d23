// Shared sizing parameters for the Bloom-filter family.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace bsub::bloom {

/// Process-wide monotonic mutation epoch for filters. Every mutating filter
/// operation stamps its filter with a fresh value, so equal epochs imply
/// identical filter contents (a copy shares its source's epoch until either
/// mutates) — which is exactly what the wire-encoding caches key on. Never
/// returns 0; caches use 0 as "empty".
///
/// Thread-safety: the relaxed atomic fetch_add makes epochs unique across
/// concurrent executor threads, which is all the caches rely on — the epoch
/// *values* a run hands out may differ between schedules, but cache hits
/// and misses (and thus every encoded byte) do not.
inline std::uint64_t next_filter_epoch() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// Bit-vector length and hash-function count for a filter.
///
/// Paper defaults (section VII-A): a 256-bit vector with 4 hash functions,
/// which yields a worst-case theoretical FPR of ~0.04 at 38 stored keys.
struct BloomParams {
  std::size_t m = 256;   ///< bits in the vector
  std::uint32_t k = 4;   ///< hash functions per key

  friend bool operator==(const BloomParams&, const BloomParams&) = default;
};

}  // namespace bsub::bloom
