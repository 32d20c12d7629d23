// Steady-state allocation check for the cached encoders: with warm caches
// and unchanged filters, a contact's outbound hello, genuine and relay
// frames and the filter encodings under them are pure cache hits that
// allocate nothing.
//
// This test has its own binary because counting allocations replaces the
// global allocation functions for the whole process (bench/resource_stats.h).
#define BSUB_RESOURCE_STATS_COUNT_ALLOCS
#include "resource_stats.h"

#include <gtest/gtest.h>

#include <string>

#include "bloom/bloom_filter.h"
#include "bloom/tcbf.h"
#include "bloom/tcbf_codec.h"
#include "engine/wire.h"
#include "util/hash.h"

namespace bsub {
namespace {

TEST(SteadyStateAllocs, CachedEncodesAllocateNothing) {
  const bloom::BloomParams params{256, 4};
  bloom::BloomFilter interest(params);
  bloom::BloomFilter relay_report(params);
  bloom::Tcbf genuine(params, 50.0);
  bloom::Tcbf relay(params, 50.0);
  for (int i = 0; i < 8; ++i) {
    const util::HashPair hp = util::hash_pair("key-" + std::to_string(i));
    interest.insert(hp);
    relay_report.insert(hp);
    genuine.insert(hp);
    relay.insert(hp);
  }

  engine::FrameCache hello, gen, rel;
  bloom::EncodedFilterCache tcbf_cache, bloom_cache;
  // Warm every cache (the one allowed miss per epoch).
  engine::encode_hello_cached(1, true, interest, relay_report, hello);
  engine::encode_genuine_cached(1, genuine, gen);
  engine::encode_relay_cached(1, relay, rel);
  bloom::encode_tcbf_cached(relay, bloom::CounterEncoding::kFull, tcbf_cache);
  bloom::encode_bloom_cached(interest, bloom_cache);

  constexpr int kRounds = 10000;
  std::size_t bytes = 0;
  const std::uint64_t before = bench::allocs_now();
  for (int i = 0; i < kRounds; ++i) {
    bytes +=
        engine::encode_hello_cached(1, true, interest, relay_report, hello)
            .size();
    bytes += engine::encode_genuine_cached(1, genuine, gen).size();
    bytes += engine::encode_relay_cached(1, relay, rel).size();
    bytes += bloom::encode_tcbf_cached(relay, bloom::CounterEncoding::kFull,
                                       tcbf_cache)
                 .size();
    bytes += bloom::encode_bloom_cached(interest, bloom_cache).size();
  }
  const std::uint64_t allocs = bench::allocs_now() - before;

  EXPECT_EQ(allocs, 0u) << "over " << kRounds << " cache-hit rounds";
  EXPECT_GT(bytes, 0u);  // the encodes really ran
}

TEST(SteadyStateAllocs, CounterSeesAllocations) {
  // Guards the check above against a counter that never moves.
  const std::uint64_t before = bench::allocs_now();
  std::string* volatile p = new std::string(64, 'x');  // escapes: kept
  const std::uint64_t allocs = bench::allocs_now() - before;
  delete p;
  EXPECT_GT(allocs, 0u);
}

}  // namespace
}  // namespace bsub
