#include "util/id_set.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace bsub::util {
namespace {

TEST(DenseIdSet, DefaultSetIsEmptyAndHoldsNoAllocation) {
  const DenseIdSet s;
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(s.heap_bytes(), 0u);
  EXPECT_FALSE(s.contains(0));
  EXPECT_FALSE(s.contains(1u << 20));
}

TEST(DenseIdSet, InsertReportsWhetherTheSetChanged) {
  DenseIdSet s;
  EXPECT_TRUE(s.insert(5));
  EXPECT_FALSE(s.insert(5));  // duplicate
  EXPECT_TRUE(s.contains(5));
  EXPECT_EQ(s.size(), 1u);
}

TEST(DenseIdSet, WordBoundaryIdsAreDistinct) {
  // 63 is the last bit of word 0, 64 and 65 the first bits of word 1.
  DenseIdSet s;
  for (const std::uint64_t id : {0u, 63u, 64u, 65u}) {
    EXPECT_TRUE(s.insert(id)) << id;
  }
  EXPECT_EQ(s.size(), 4u);
  for (const std::uint64_t id : {0u, 63u, 64u, 65u}) {
    EXPECT_TRUE(s.contains(id)) << id;
  }
  for (const std::uint64_t id : {1u, 62u, 66u, 127u, 128u}) {
    EXPECT_FALSE(s.contains(id)) << id;
  }
  EXPECT_TRUE(s.erase(64));
  EXPECT_FALSE(s.contains(64));
  EXPECT_TRUE(s.contains(63));
  EXPECT_TRUE(s.contains(65));
  EXPECT_EQ(s.size(), 3u);
}

TEST(DenseIdSet, FarIdGrowsTheBitmapToItsWordOnly) {
  DenseIdSet s;
  constexpr std::uint64_t kFar = 1'000'003;
  EXPECT_TRUE(s.insert(kFar));
  EXPECT_TRUE(s.contains(kFar));
  EXPECT_FALSE(s.contains(kFar - 1));
  EXPECT_FALSE(s.contains(kFar + 1));
  EXPECT_FALSE(s.contains(0));
  EXPECT_EQ(s.size(), 1u);
  const std::size_t words = kFar / 64 + 1;
  const std::size_t bytes = s.heap_bytes();
  EXPECT_GE(bytes, words * sizeof(std::uint64_t));
  EXPECT_LT(bytes, 2 * words * sizeof(std::uint64_t));
  // Lower ids fit in the words already there.
  EXPECT_TRUE(s.insert(3));
  EXPECT_EQ(s.heap_bytes(), bytes);
  EXPECT_EQ(s.size(), 2u);
}

TEST(DenseIdSet, EraseReportsWhetherTheSetChanged) {
  DenseIdSet s;
  EXPECT_FALSE(s.erase(7));          // empty set
  EXPECT_EQ(s.heap_bytes(), 0u);     // erasing never allocates
  s.insert(7);
  EXPECT_FALSE(s.erase(6));          // absent, same word
  EXPECT_FALSE(s.erase(1u << 20));   // beyond the bitmap
  EXPECT_EQ(s.size(), 1u);
  EXPECT_TRUE(s.erase(7));
  EXPECT_FALSE(s.erase(7));          // already gone
  EXPECT_FALSE(s.contains(7));
  EXPECT_EQ(s.size(), 0u);
  EXPECT_TRUE(s.insert(7));          // and back
  EXPECT_EQ(s.size(), 1u);
}

TEST(DenseIdSet, SizeCountsDistinctIds) {
  DenseIdSet s;
  for (std::uint64_t id = 0; id < 1000; id += 3) s.insert(id);
  for (std::uint64_t id = 0; id < 1000; id += 6) s.insert(id);  // repeats
  EXPECT_EQ(s.size(), 334u);
  for (std::uint64_t id = 0; id < 1000; id += 2) s.erase(id);
  EXPECT_EQ(s.size(), 167u);  // the odd multiples of 3 remain
  std::size_t counted = 0;
  for (std::uint64_t id = 0; id < 1000; ++id) counted += s.contains(id);
  EXPECT_EQ(counted, s.size());
}

}  // namespace
}  // namespace bsub::util
