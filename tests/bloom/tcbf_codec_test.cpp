#include "bloom/tcbf_codec.h"

#include <gtest/gtest.h>

#include <string>

#include "util/byte_io.h"

namespace bsub::bloom {
namespace {

Tcbf sample_tcbf(int keys, double c = 50.0, BloomParams params = {256, 4}) {
  Tcbf t(params, c);
  for (int i = 0; i < keys; ++i) t.insert("key" + std::to_string(i));
  return t;
}

TEST(TcbfCodec, FullRoundTripPreservesBits) {
  Tcbf t = sample_tcbf(10);
  Tcbf u = decode_tcbf(encode_tcbf(t, CounterEncoding::kFull));
  EXPECT_EQ(u.set_bits(), t.set_bits());
  EXPECT_EQ(u.params(), t.params());
}

TEST(TcbfCodec, FullRoundTripCountersWithinQuantization) {
  Tcbf t = sample_tcbf(5);
  t.decay(13.7);  // non-uniform? still uniform; A-merge for variety:
  Tcbf extra = sample_tcbf(1);
  t.a_merge(extra);  // now bits of key0 have higher counters
  const double max_counter = 50.0 + 36.3;
  const double scale = max_counter / 255.0;
  Tcbf u = decode_tcbf(encode_tcbf(t, CounterEncoding::kFull));
  for (std::size_t b : t.set_bits()) {
    EXPECT_NEAR(u.counter(b), t.counter(b), scale / 2.0 + 1e-9) << b;
  }
}

TEST(TcbfCodec, UniformRoundTripExactForFreshFilters) {
  // Fresh insert-only filters have identical counters; uniform encoding is
  // lossless for them.
  Tcbf t = sample_tcbf(8);
  Tcbf u = decode_tcbf(encode_tcbf(t, CounterEncoding::kUniform));
  EXPECT_EQ(u.set_bits(), t.set_bits());
  for (std::size_t b : t.set_bits()) {
    EXPECT_DOUBLE_EQ(u.counter(b), 50.0);
  }
}

TEST(TcbfCodec, CounterLessReinflatesWithInitialValue) {
  Tcbf t = sample_tcbf(4);
  t.decay(20.0);
  Tcbf u = decode_tcbf(encode_tcbf(t, CounterEncoding::kCounterLess));
  EXPECT_EQ(u.set_bits(), t.set_bits());
  for (std::size_t b : u.set_bits()) EXPECT_DOUBLE_EQ(u.counter(b), 50.0);
}

TEST(TcbfCodec, EncodingSizesAreOrdered) {
  Tcbf t = sample_tcbf(10);
  auto full = encode_tcbf(t, CounterEncoding::kFull);
  auto uniform = encode_tcbf(t, CounterEncoding::kUniform);
  auto bare = encode_tcbf(t, CounterEncoding::kCounterLess);
  EXPECT_LT(bare.size(), uniform.size());
  EXPECT_LT(uniform.size(), full.size());
}

TEST(TcbfCodec, EmptyFilterRoundTrip) {
  Tcbf t({256, 4}, 50.0);
  Tcbf u = decode_tcbf(encode_tcbf(t, CounterEncoding::kFull));
  EXPECT_TRUE(u.empty());
  EXPECT_EQ(u.params(), t.params());
}

TEST(TcbfCodec, DenseFilterFallsBackToBitmap) {
  // With most bits set, the location list exceeds the raw bitmap; the codec
  // must pick the bitmap and still round-trip.
  Tcbf t({64, 4}, 50.0);
  for (int i = 0; i < 100; ++i) t.insert("k" + std::to_string(i));
  ASSERT_GT(t.popcount(), 32u);
  Tcbf u = decode_tcbf(encode_tcbf(t, CounterEncoding::kFull));
  EXPECT_EQ(u.set_bits(), t.set_bits());
}

TEST(TcbfCodec, SparseEncodingBeatsRawBitVector) {
  // The section VI-C claim: a low-fill filter encodes in far less than m/8
  // bytes (+ counters).
  Tcbf t = sample_tcbf(2, 50.0, {1024, 4});
  auto bare = encode_tcbf(t, CounterEncoding::kCounterLess);
  EXPECT_LT(bare.size(), 1024 / 8);
}

TEST(TcbfCodec, DecodedFilterIsMergedAndRefusesInsert) {
  Tcbf t = sample_tcbf(3);
  Tcbf u = decode_tcbf(encode_tcbf(t, CounterEncoding::kFull));
  EXPECT_TRUE(u.merged());
  EXPECT_THROW(u.insert("new"), std::logic_error);
}

TEST(TcbfCodec, GarbageThrowsDecodeError) {
  std::vector<std::uint8_t> garbage = {0x00, 0x01, 0x02};
  EXPECT_THROW(decode_tcbf(garbage), util::DecodeError);
}

TEST(TcbfCodec, TruncatedPayloadThrows) {
  Tcbf t = sample_tcbf(10);
  auto enc = encode_tcbf(t, CounterEncoding::kFull);
  enc.resize(enc.size() / 2);
  EXPECT_THROW(decode_tcbf(enc), util::DecodeError);
}

TEST(TcbfCodec, PreservesQuerySemantics) {
  Tcbf t = sample_tcbf(12);
  Tcbf u = decode_tcbf(encode_tcbf(t, CounterEncoding::kFull));
  for (int i = 0; i < 12; ++i) {
    EXPECT_TRUE(u.contains("key" + std::to_string(i)));
  }
  for (int i = 0; i < 100; ++i) {
    std::string probe = "probe" + std::to_string(i);
    EXPECT_EQ(u.contains(probe), t.contains(probe)) << probe;
  }
}

TEST(TcbfCodec, DecodeIntoMatchesDecode) {
  // One reused target across encodings and geometries (a decayed, merged
  // source, a fresh one, a wider filter, then the first again) reads
  // exactly what decode_tcbf builds fresh; a malformed frame throws.
  Tcbf merged = sample_tcbf(6);
  merged.decay(7.25);
  merged.a_merge(sample_tcbf(2));
  const std::vector<std::vector<std::uint8_t>> frames = {
      encode_tcbf(merged, CounterEncoding::kFull),
      encode_tcbf(sample_tcbf(3), CounterEncoding::kUniform),
      encode_tcbf(sample_tcbf(9, 50.0, {1024, 3}), CounterEncoding::kFull),
      encode_tcbf(merged, CounterEncoding::kCounterLess)};
  Tcbf target;
  for (const auto& bytes : frames) {
    decode_tcbf_into(bytes, target);
    const Tcbf fresh = decode_tcbf(bytes);
    EXPECT_EQ(target.params(), fresh.params());
    EXPECT_EQ(target.initial_counter(), fresh.initial_counter());
    EXPECT_EQ(target.counters(), fresh.counters());
    EXPECT_EQ(target.popcount(), fresh.popcount());
    EXPECT_TRUE(target.merged());
  }
  const std::vector<std::uint8_t> garbage = {0x00, 0x01, 0x02};
  EXPECT_THROW(decode_tcbf_into(garbage, target), util::DecodeError);
}

TEST(BloomCodec, RoundTrip) {
  BloomFilter bf({256, 4});
  bf.insert("alpha");
  bf.insert("beta");
  BloomFilter out = decode_bloom(encode_bloom(bf));
  EXPECT_EQ(out, bf);
}

TEST(BloomCodec, EmptyRoundTrip) {
  BloomFilter bf({128, 3});
  BloomFilter out = decode_bloom(encode_bloom(bf));
  EXPECT_EQ(out, bf);
}

TEST(BloomCodec, SingleInterestReportIsTiny) {
  // The interest report a consumer sends: one key, 4 locations x 8 bits
  // plus a small header — the "at most 5 bytes to encode a single key"
  // economy the paper cites (section VII-A).
  BloomFilter bf({256, 4});
  bf.insert("NewMoon");
  auto enc = encode_bloom(bf);
  EXPECT_LE(enc.size(), 10u);  // 4 location bytes + header
}

TEST(BloomCodec, DenseBitmapFallback) {
  BloomFilter bf({64, 4});
  for (int i = 0; i < 200; ++i) bf.insert("k" + std::to_string(i));
  BloomFilter out = decode_bloom(encode_bloom(bf));
  EXPECT_EQ(out, bf);
}

TEST(BloomCodec, GarbageThrows) {
  std::vector<std::uint8_t> garbage = {0x12, 0x34};
  EXPECT_THROW(decode_bloom(garbage), util::DecodeError);
}

TEST(ModelWireSize, MatchesPaperAccounting) {
  // m = 256 -> 8 bits per location = 1 byte.
  EXPECT_DOUBLE_EQ(model_wire_size_bytes(10, 256, CounterEncoding::kFull),
                   10.0 + 10.0);  // location byte + counter byte per set bit
  EXPECT_DOUBLE_EQ(model_wire_size_bytes(10, 256, CounterEncoding::kUniform),
                   10.0 + 1.0);
  EXPECT_DOUBLE_EQ(
      model_wire_size_bytes(10, 256, CounterEncoding::kCounterLess), 10.0);
}

TEST(ModelWireSize, CapsAtRawBitmap) {
  // 200 set bits of 256: location list (200 bytes) exceeds bitmap (32B).
  EXPECT_DOUBLE_EQ(
      model_wire_size_bytes(200, 256, CounterEncoding::kCounterLess), 32.0);
}

}  // namespace
}  // namespace bsub::bloom
