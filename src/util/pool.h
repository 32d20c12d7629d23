// Pooled storage for small per-node arrays.
//
// The per-node memory floor at city scale is set by what every node pays
// whether or not it ever participates: an idle node must cost a few bytes
// of index, and the real state (meeting rings, peer tables) must be paid
// only by the nodes that actually use it. BlockPool serves those arrays: a
// power-of-two size-class slab allocator for small POD arrays (meeting
// rings, open-addressing tables). Blocks are bump-cut from 64 KiB slabs and
// recycled through intrusive free lists; nothing is returned to the system
// until the pool dies, so steady-state churn (ring growth, table rehash)
// allocates nothing.
//
// Acquire/release serialize behind a mutex: the parallel executor runs
// node-disjoint contacts concurrently, and while each node's state is
// touched by one event at a time, the pool itself is shared (exactly like
// the global allocator it replaces).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <type_traits>
#include <vector>

namespace bsub::util {

/// Slab-backed size-class allocator for raw blocks of trivially-copyable
/// state. Sizes round up to the next power of two (minimum 16 bytes, so
/// every block is 16-byte aligned off the slab's aligned base); release
/// must pass the same size as acquire.
class BlockPool {
 public:
  static constexpr std::size_t kMinBlock = 16;
  static constexpr std::size_t kSlabBytes = 64 * 1024;

  BlockPool() = default;
  BlockPool(const BlockPool&) = delete;
  BlockPool& operator=(const BlockPool&) = delete;

  void* acquire(std::size_t bytes) {
    const unsigned cls = size_class(bytes);
    const std::size_t block = std::size_t{1} << cls;
    std::lock_guard<std::mutex> lock(mu_);
    if (FreeNode* head = free_[cls]) {
      free_[cls] = head->next;
      return head;
    }
    if (block > kSlabBytes) {
      // Oversize blocks get their own allocation but still recycle through
      // the free list (ownership stays with the pool until destruction).
      oversize_.emplace_back(new std::byte[block]);
      reserved_ += block;
      return oversize_.back().get();
    }
    if (slab_off_ + block > kSlabBytes || slabs_.empty()) {
      slabs_.emplace_back(new std::byte[kSlabBytes]);
      reserved_ += kSlabBytes;
      slab_off_ = 0;
    }
    std::byte* p = slabs_.back().get() + slab_off_;
    slab_off_ += block;
    return p;
  }

  void release(void* p, std::size_t bytes) {
    if (p == nullptr) return;
    const unsigned cls = size_class(bytes);
    FreeNode* node = static_cast<FreeNode*>(p);
    std::lock_guard<std::mutex> lock(mu_);
    node->next = free_[cls];
    free_[cls] = node;
  }

  /// Typed helpers for POD arrays; contents are uninitialized on acquire.
  template <typename T>
  T* acquire_array(std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T> &&
                  std::is_trivially_destructible_v<T>);
    static_assert(alignof(T) <= kMinBlock);
    return static_cast<T*>(acquire(count * sizeof(T)));
  }
  template <typename T>
  void release_array(T* p, std::size_t count) {
    release(p, count * sizeof(T));
  }

  /// Total bytes held from the system (slabs + oversize blocks). Monotone:
  /// the pool never returns memory before destruction.
  std::size_t bytes_reserved() const {
    std::lock_guard<std::mutex> lock(mu_);
    return reserved_;
  }

 private:
  struct FreeNode {
    FreeNode* next;
  };
  static constexpr unsigned kClasses = 40;  // up to 2^39-byte blocks

  static unsigned size_class(std::size_t bytes) {
    std::size_t b = bytes < kMinBlock ? kMinBlock : bytes;
    unsigned cls = 4;  // 2^4 == kMinBlock
    while ((std::size_t{1} << cls) < b) ++cls;
    assert(cls < kClasses);
    return cls;
  }

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<std::byte[]>> slabs_;
  std::vector<std::unique_ptr<std::byte[]>> oversize_;
  std::size_t slab_off_ = kSlabBytes;  // force a slab on first acquire
  std::size_t reserved_ = 0;
  FreeNode* free_[kClasses] = {};
};

}  // namespace bsub::util
