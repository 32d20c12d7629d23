#include "util/pool.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace bsub::util {
namespace {

TEST(BlockPool, RoundsUpToPowerOfTwoClasses) {
  BlockPool pool;
  // 10 bytes rounds to the 16-byte minimum class: releasing as 10 and
  // re-acquiring as 16 hits the same free list, so the block comes back.
  void* p = pool.acquire(10);
  ASSERT_NE(p, nullptr);
  pool.release(p, 10);
  EXPECT_EQ(pool.acquire(16), p);

  void* q = pool.acquire(17);  // 32-byte class, distinct from the above
  EXPECT_NE(q, p);
  pool.release(q, 17);
  EXPECT_EQ(pool.acquire(32), q);
}

TEST(BlockPool, BlocksAreAligned) {
  BlockPool pool;
  for (std::size_t bytes : {1u, 16u, 24u, 100u, 4096u}) {
    void* p = pool.acquire(bytes);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % BlockPool::kMinBlock, 0u)
        << "block of " << bytes << " bytes misaligned";
  }
}

TEST(BlockPool, AcquireArrayIsUsableAndRecycles) {
  BlockPool pool;
  std::uint64_t* a = pool.acquire_array<std::uint64_t>(100);
  ASSERT_NE(a, nullptr);
  for (std::size_t i = 0; i < 100; ++i) a[i] = i * 3;
  for (std::size_t i = 0; i < 100; ++i) EXPECT_EQ(a[i], i * 3);
  pool.release_array(a, 100);
  // Same size class (800 -> 1024 bytes) reuses the freed block.
  std::uint64_t* b = pool.acquire_array<std::uint64_t>(128);
  EXPECT_EQ(b, a);
}

TEST(BlockPool, SteadyStateChurnReservesNothingNew) {
  BlockPool pool;
  void* p = pool.acquire(256);
  pool.release(p, 256);
  const std::size_t reserved = pool.bytes_reserved();
  EXPECT_GT(reserved, 0u);
  // Acquire/release cycles at a warmed size class never touch the system.
  for (int i = 0; i < 1000; ++i) {
    void* q = pool.acquire(200);  // same 256-byte class
    EXPECT_EQ(q, p);
    pool.release(q, 200);
  }
  EXPECT_EQ(pool.bytes_reserved(), reserved);
}

TEST(BlockPool, OversizeBlocksWorkAndRecycle) {
  BlockPool pool;
  const std::size_t big = BlockPool::kSlabBytes * 2;  // beyond any slab
  void* p = pool.acquire(big);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0xAB, big);
  const std::size_t reserved = pool.bytes_reserved();
  EXPECT_GE(reserved, big);
  pool.release(p, big);
  EXPECT_EQ(pool.acquire(big), p);
  EXPECT_EQ(pool.bytes_reserved(), reserved);
}

TEST(BlockPool, ReleaseNullIsNoop) {
  BlockPool pool;
  pool.release(nullptr, 64);
  pool.release_array<std::uint32_t>(nullptr, 16);
  EXPECT_EQ(pool.bytes_reserved(), 0u);
}

}  // namespace
}  // namespace bsub::util
