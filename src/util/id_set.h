// A set over dense ids: one bit per id in a word bitmap.
//
// The simulator's workload numbers its messages 0 … messages−1, and every
// per-node "which messages has this node seen" question (delivered,
// custody, false injection, PUSH's replica memory) is a membership test on
// those ids. A bitmap answers it with one shift and mask instead of a hash
// probe. The bitmap grows on demand to the highest id inserted, so a set
// that was never written allocates nothing, and a set holds
// ⌈(max id + 1)/64⌉ words (capacity grows geometrically, as a vector's
// does, so it stays under twice that).
//
// Not thread-safe: callers give each set one writer at a time (the
// simulator writes a node's sets only during that node's own contacts).
// Ids must be dense; arbitrary 64-bit ids belong in a hash set.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace bsub::util {

class DenseIdSet {
 public:
  /// Adds `id`; true if it was absent.
  bool insert(std::uint64_t id) {
    const std::size_t w = static_cast<std::size_t>(id >> 6);
    if (w >= words_.size()) words_.resize(w + 1, 0);
    const std::uint64_t bit = std::uint64_t{1} << (id & 63);
    if ((words_[w] & bit) != 0) return false;
    words_[w] |= bit;
    ++size_;
    return true;
  }

  /// Removes `id`; true if it was present.
  bool erase(std::uint64_t id) {
    const std::size_t w = static_cast<std::size_t>(id >> 6);
    const std::uint64_t bit = std::uint64_t{1} << (id & 63);
    if (w >= words_.size() || (words_[w] & bit) == 0) return false;
    words_[w] &= ~bit;
    --size_;
    return true;
  }

  bool contains(std::uint64_t id) const {
    const std::size_t w = static_cast<std::size_t>(id >> 6);
    return w < words_.size() && ((words_[w] >> (id & 63)) & 1) != 0;
  }

  /// Number of ids in the set, O(1).
  std::size_t size() const { return size_; }

  /// Heap bytes the bitmap holds (0 until the first insert).
  std::size_t heap_bytes() const {
    return words_.capacity() * sizeof(std::uint64_t);
  }

 private:
  std::vector<std::uint64_t> words_;
  std::size_t size_ = 0;
};

}  // namespace bsub::util
