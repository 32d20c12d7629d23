// Classic Bloom filter (paper section III).
//
// An m-bit vector with k hash functions. Supports insertion, probabilistic
// membership queries (no false negatives, tunable false positives), and
// OR-merging of filters with identical parameters.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "bloom/bloom_params.h"
#include "util/hash.h"

namespace bsub::bloom {

class BloomFilter {
 public:
  explicit BloomFilter(BloomParams params = {});

  const BloomParams& params() const { return params_; }
  std::size_t bit_count() const { return params_.m; }

  /// Mutation epoch (see bloom::next_filter_epoch): advances on every
  /// mutating call, so an unchanged epoch means unchanged contents — the
  /// invalidation key for cached wire encodings. Copies keep their source's
  /// epoch (same contents, same encoding).
  std::uint64_t epoch() const { return epoch_; }

  /// Inserts a key by setting its k hashed bits. The HashPair overload
  /// skips re-hashing for interned keys (workload::KeySet::hash).
  void insert(std::string_view key);
  void insert(const util::HashPair& hp);

  /// True if all of the key's hashed bits are set. False positives possible;
  /// false negatives are not.
  bool contains(std::string_view key) const;
  bool contains(const util::HashPair& hp) const;

  /// Membership probe over precomputed bit positions (util::bloom_indices of
  /// the key for this filter's params). Bit-identical to contains(): hot
  /// paths intern the positions once per key instead of re-deriving them on
  /// every probe.
  bool contains_at(const util::IndexArray& indices) const {
    for (std::size_t i : indices) {
      if (!test_bit(i)) return false;
    }
    return true;
  }

  /// Bitwise-OR merge. Requires identical parameters.
  void merge(const BloomFilter& other);

  /// Direct bit access (used by the TCBF and the codec).
  bool test_bit(std::size_t i) const;
  void set_bit(std::size_t i);

  /// Sets every bit in `positions` as one mutation: the epoch advances once,
  /// however many bits are set (decoders and projections build whole
  /// filters this way).
  void set_bits_at(std::span<const std::size_t> positions);

  /// Number of set bits.
  std::size_t popcount() const;

  /// Fill ratio: set bits / m (Eq. 3 measures its expectation).
  double fill_ratio() const;

  /// Indices of all set bits, ascending.
  std::vector<std::size_t> set_bits() const;

  /// Scratch-friendly variant: fills `out` (cleared first) so hot encoders
  /// can reuse one buffer instead of allocating per call.
  void set_bits_into(std::vector<std::size_t>& out) const;

  void clear();
  bool empty() const { return popcount() == 0; }

  /// Content equality; the mutation epoch is deliberately excluded.
  friend bool operator==(const BloomFilter& a, const BloomFilter& b) {
    return a.params_ == b.params_ && a.words_ == b.words_;
  }

 private:
  void touch() { epoch_ = next_filter_epoch(); }

  BloomParams params_;
  std::vector<std::uint64_t> words_;
  std::uint64_t epoch_ = next_filter_epoch();
};

}  // namespace bsub::bloom
