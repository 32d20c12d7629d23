#include "bloom/tcbf_codec.h"

#include <algorithm>
#include <cmath>

#include "util/byte_io.h"

namespace bsub::bloom {

// --- helpers ---------------------------------------------------------------

namespace {

// Layout discriminator for the bit-position block.
enum class BitLayout : std::uint8_t { kLocations = 0, kBitmap = 1 };

// Decode-side sanity caps: reject geometry claims no real deployment uses
// before allocating for them (wire bytes are attacker-controlled).
constexpr std::size_t kMaxDecodedBits = std::size_t{1} << 26;  // 8 MiB
constexpr std::uint32_t kMaxDecodedHashes = 64;

constexpr std::uint8_t kMagicTcbf = 0xB5;
constexpr std::uint8_t kMagicBloom = 0xBF;

BitLayout choose_layout(std::size_t set_bits, std::size_t m) {
  // Location list costs s*ceil(log2 m) bits; bitmap costs m bits.
  std::size_t loc_bits = set_bits * util::bits_for(m);
  return loc_bits < m ? BitLayout::kLocations : BitLayout::kBitmap;
}

void write_positions(util::ByteWriter& w, const std::vector<std::size_t>& bits,
                     std::size_t m, BitLayout layout) {
  if (layout == BitLayout::kLocations) {
    unsigned width = util::bits_for(m);
    for (std::size_t b : bits) w.put_bits(b, width);
    w.flush_bits();
  } else {
    // Pool-worker safe: fully overwritten (assign) before every use, and
    // encoders never nest, so no state leaks between calls on a worker.
    thread_local std::vector<std::uint8_t> bitmap;
    bitmap.assign((m + 7) / 8, 0);
    for (std::size_t b : bits) bitmap[b / 8] |= std::uint8_t(1u << (b % 8));
    w.put_bytes(bitmap);
  }
}

BitLayout read_layout(util::ByteReader& r) {
  const std::size_t at = r.offset();
  const std::uint8_t b = r.get_u8();
  if (b > static_cast<std::uint8_t>(BitLayout::kBitmap)) {
    throw util::CodecError("bad bit layout", at, "0 (locations) or 1 (bitmap)",
                           std::to_string(b));
  }
  return static_cast<BitLayout>(b);
}

/// Reads `count` set-bit positions into `bits` (cleared first).
void read_positions(util::ByteReader& r, std::size_t m, std::size_t count,
                    BitLayout layout, std::vector<std::size_t>& bits) {
  bits.clear();
  bits.reserve(count);
  if (layout == BitLayout::kLocations) {
    unsigned width = util::bits_for(m);
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t at = r.offset();
      std::size_t b = static_cast<std::size_t>(r.get_bits(width));
      if (b >= m) {
        throw util::CodecError("bit position out of range", at,
                               "position below " + std::to_string(m),
                               std::to_string(b));
      }
      // Encoders emit positions strictly ascending; enforcing that rejects
      // duplicates and keeps every valid encoding canonical (one byte
      // sequence per filter, which the round-trip identity tests rely on).
      if (!bits.empty() && b <= bits.back()) {
        throw util::CodecError("non-canonical position list", at,
                               "strictly ascending positions",
                               std::to_string(b) + " after " +
                                   std::to_string(bits.back()));
      }
      bits.push_back(b);
    }
    r.align_bits();
  } else {
    const auto bitmap = r.get_span((m + 7) / 8);
    for (std::size_t b = 0; b < m; ++b) {
      if ((bitmap[b / 8] >> (b % 8)) & 1u) bits.push_back(b);
    }
    // Padding bits past m must be zero (canonical form).
    for (std::size_t b = m; b < bitmap.size() * 8; ++b) {
      if ((bitmap[b / 8] >> (b % 8)) & 1u) {
        throw util::CodecError("bitmap padding bits set", r.offset(),
                               "zero bits past position " + std::to_string(m),
                               {});
      }
    }
    if (bits.size() != count) {
      throw util::CodecError("bitmap popcount mismatch", r.offset(),
                             std::to_string(count) + " set bits",
                             std::to_string(bits.size()));
    }
  }
}

std::uint8_t quantize(double counter, double scale) {
  // Counters are positive by construction; never quantize a live counter to
  // zero or the key would vanish in transit.
  double q = std::round(counter / scale);
  return static_cast<std::uint8_t>(std::clamp(q, 1.0, 255.0));
}

std::size_t varint_len(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

std::size_t position_bytes(std::size_t set_bits, std::size_t m,
                           BitLayout layout) {
  if (layout == BitLayout::kLocations) {
    return (set_bits * util::bits_for(m) + 7) / 8;
  }
  return (m + 7) / 8;
}

// Thread-local scratch for set-bit extraction on the hot encode path; one
// per thread is enough because encoders never nest. Callers fully rewrite
// it before reading, so reuse across a thread's successive jobs (parallel
// executor threads included) carries no state between calls.
std::vector<std::size_t>& set_bits_scratch() {
  thread_local std::vector<std::size_t> scratch;
  return scratch;
}

// Decode-side twin of set_bits_scratch: positions read off the wire, fully
// rewritten by every read_positions call (decoders never nest).
std::vector<std::size_t>& positions_scratch() {
  thread_local std::vector<std::size_t> scratch;
  return scratch;
}

}  // namespace

// --- TCBF ------------------------------------------------------------------

std::vector<std::uint8_t> encode_tcbf(const Tcbf& filter,
                                      CounterEncoding encoding) {
  std::vector<std::uint8_t> out;
  encode_tcbf_into(filter, encoding, out);
  return out;
}

void encode_tcbf_into(const Tcbf& filter, CounterEncoding encoding,
                      std::vector<std::uint8_t>& out) {
  auto& bits = set_bits_scratch();
  filter.set_bits_into(bits);
  const std::size_t m = filter.params().m;
  const BitLayout layout = choose_layout(bits.size(), m);

  util::ByteWriter w(std::move(out));
  w.put_u8(kMagicTcbf);
  w.put_u8(static_cast<std::uint8_t>(encoding));
  w.put_u8(static_cast<std::uint8_t>(layout));
  w.put_varint(m);
  w.put_varint(filter.params().k);
  w.put_double(filter.initial_counter());
  w.put_varint(bits.size());

  double max_counter = 0.0;
  for (std::size_t b : bits) max_counter = std::max(max_counter, filter.counter(b));
  double scale = max_counter > 0.0 ? max_counter / 255.0 : 1.0;

  switch (encoding) {
    case CounterEncoding::kFull:
      w.put_double(scale);
      write_positions(w, bits, m, layout);
      for (std::size_t b : bits) w.put_u8(quantize(filter.counter(b), scale));
      break;
    case CounterEncoding::kUniform: {
      w.put_double(scale);
      write_positions(w, bits, m, layout);
      // One shared counter: the maximum (a fresh insert-only filter has all
      // counters equal, so this is lossless in the intended use).
      w.put_u8(bits.empty() ? 0 : quantize(max_counter, scale));
      break;
    }
    case CounterEncoding::kCounterLess:
      write_positions(w, bits, m, layout);
      break;
  }
  out = std::move(w).take();
}

namespace {

/// Validates a decoded counter scale: the encoder only emits scales in
/// (0, kCounterSaturation/255], so anything else (NaN, inf, zero, negative,
/// or absurdly large) is hostile input.
double checked_scale(util::ByteReader& r) {
  const std::size_t at = r.offset();
  const double scale = r.get_double();
  if (!std::isfinite(scale) || scale <= 0.0 ||
      scale > kCounterSaturation / 255.0) {
    throw util::CodecError("bad counter scale", at,
                           "finite scale in (0, saturation/255]", {});
  }
  return scale;
}

}  // namespace

Tcbf decode_tcbf(std::span<const std::uint8_t> data) {
  util::ByteReader r(data);
  if (r.get_u8() != kMagicTcbf) {
    throw util::CodecError("bad TCBF magic", 0, "0xB5", {});
  }
  const std::size_t encoding_at = r.offset();
  const std::uint8_t encoding_byte = r.get_u8();
  if (encoding_byte > static_cast<std::uint8_t>(CounterEncoding::kCounterLess)) {
    throw util::CodecError("bad TCBF counter encoding", encoding_at,
                           "0, 1, or 2", std::to_string(encoding_byte));
  }
  const auto encoding = static_cast<CounterEncoding>(encoding_byte);
  const BitLayout layout = read_layout(r);
  BloomParams params;
  params.m = static_cast<std::size_t>(r.get_varint());
  params.k = static_cast<std::uint32_t>(r.get_varint());
  if (params.m == 0 || params.m > kMaxDecodedBits || params.k == 0 ||
      params.k > kMaxDecodedHashes) {
    throw util::CodecError("bad TCBF parameters", r.offset(),
                           "0 < m <= 2^26 and 0 < k <= 64",
                           "m=" + std::to_string(params.m) +
                               " k=" + std::to_string(params.k));
  }
  const std::size_t initial_at = r.offset();
  double initial_counter = r.get_double();
  if (!std::isfinite(initial_counter) || initial_counter <= 0.0 ||
      initial_counter > kCounterSaturation) {
    throw util::CodecError("bad TCBF initial counter", initial_at,
                           "finite value in (0, saturation]", {});
  }
  std::size_t count = static_cast<std::size_t>(r.get_varint());
  if (count > params.m) {
    throw util::CodecError("too many set bits", r.offset(),
                           "at most m=" + std::to_string(params.m),
                           std::to_string(count));
  }
  // Length-prefix sanity: the header fully determines the minimum body size,
  // so a truncated buffer is rejected here — before the O(m) counter array
  // is allocated for it.
  std::size_t need = position_bytes(count, params.m, layout);
  if (encoding == CounterEncoding::kFull) {
    need += 8 + count;  // scale + one counter byte per set bit
  } else if (encoding == CounterEncoding::kUniform) {
    need += 8 + 1;  // scale + shared counter byte
  }
  if (need > r.remaining()) {
    throw util::CodecError("TCBF encoding shorter than its header implies",
                           r.offset(), std::to_string(need) + " more byte(s)",
                           std::to_string(r.remaining()));
  }

  std::vector<double> counters(params.m, 0.0);
  switch (encoding) {
    case CounterEncoding::kFull: {
      const double scale = checked_scale(r);
      auto& bits = positions_scratch();
      read_positions(r, params.m, count, layout, bits);
      for (std::size_t b : bits) {
        const std::size_t at = r.offset();
        const std::uint8_t q = r.get_u8();
        // quantize() never emits 0 for a live bit; a zero here would make
        // the bit silently vanish and break popcount == count.
        if (q == 0) {
          throw util::CodecError("zero quantized counter", at,
                                 "byte in [1, 255]", "0");
        }
        counters[b] = static_cast<double>(q) * scale;
      }
      break;
    }
    case CounterEncoding::kUniform: {
      const double scale = checked_scale(r);
      auto& bits = positions_scratch();
      read_positions(r, params.m, count, layout, bits);
      const std::size_t at = r.offset();
      const std::uint8_t q = r.get_u8();
      if (q == 0 && count > 0) {
        throw util::CodecError("zero quantized counter", at,
                               "byte in [1, 255]", "0");
      }
      double value = static_cast<double>(q) * scale;
      for (std::size_t b : bits) counters[b] = value;
      break;
    }
    case CounterEncoding::kCounterLess: {
      auto& bits = positions_scratch();
      read_positions(r, params.m, count, layout, bits);
      for (std::size_t b : bits) counters[b] = initial_counter;
      break;
    }
  }
  r.expect_end("TCBF encoding");
  return Tcbf::from_counters(params, initial_counter, std::move(counters));
}

// --- BF --------------------------------------------------------------------

std::vector<std::uint8_t> encode_bloom(const BloomFilter& filter) {
  std::vector<std::uint8_t> out;
  encode_bloom_into(filter, out);
  return out;
}

void encode_bloom_into(const BloomFilter& filter,
                       std::vector<std::uint8_t>& out) {
  auto& bits = set_bits_scratch();
  filter.set_bits_into(bits);
  const std::size_t m = filter.params().m;
  const BitLayout layout = choose_layout(bits.size(), m);

  util::ByteWriter w(std::move(out));
  w.put_u8(kMagicBloom);
  w.put_u8(static_cast<std::uint8_t>(layout));
  w.put_varint(m);
  w.put_varint(filter.params().k);
  w.put_varint(bits.size());
  write_positions(w, bits, m, layout);
  out = std::move(w).take();
}

namespace {

/// Validates a BF encoding and reads its set-bit positions into `bits`;
/// returns its geometry.
BloomParams read_bloom(std::span<const std::uint8_t> data,
                       std::vector<std::size_t>& bits) {
  util::ByteReader r(data);
  if (r.get_u8() != kMagicBloom) {
    throw util::CodecError("bad BF magic", 0, "0xBF", {});
  }
  const BitLayout layout = read_layout(r);
  BloomParams params;
  params.m = static_cast<std::size_t>(r.get_varint());
  params.k = static_cast<std::uint32_t>(r.get_varint());
  if (params.m == 0 || params.m > kMaxDecodedBits || params.k == 0 ||
      params.k > kMaxDecodedHashes) {
    throw util::CodecError("bad BF parameters", r.offset(),
                           "0 < m <= 2^26 and 0 < k <= 64",
                           "m=" + std::to_string(params.m) +
                               " k=" + std::to_string(params.k));
  }
  std::size_t count = static_cast<std::size_t>(r.get_varint());
  if (count > params.m) {
    throw util::CodecError("too many set bits", r.offset(),
                           "at most m=" + std::to_string(params.m),
                           std::to_string(count));
  }
  if (const std::size_t need = position_bytes(count, params.m, layout);
      need > r.remaining()) {
    throw util::CodecError("BF encoding shorter than its header implies",
                           r.offset(), std::to_string(need) + " more byte(s)",
                           std::to_string(r.remaining()));
  }
  read_positions(r, params.m, count, layout, bits);
  r.expect_end("BF encoding");
  return params;
}

}  // namespace

BloomFilter decode_bloom(std::span<const std::uint8_t> data) {
  auto& bits = positions_scratch();
  BloomFilter bf(read_bloom(data, bits));
  bf.set_bits_at(bits);
  return bf;
}

void decode_bloom_into(std::span<const std::uint8_t> data, BloomFilter& out) {
  auto& bits = positions_scratch();
  const BloomParams params = read_bloom(data, bits);
  if (out.params() != params) {
    out = BloomFilter(params);
  } else {
    out.clear();
  }
  out.set_bits_at(bits);
}

// --- exact wire sizes -------------------------------------------------------

std::size_t encoded_tcbf_wire_size(const Tcbf& filter,
                                   CounterEncoding encoding) {
  const std::size_t s = filter.popcount();
  const std::size_t m = filter.params().m;
  const BitLayout layout = choose_layout(s, m);
  // magic + encoding + layout + varint(m) + varint(k) + initial(double) +
  // varint(s) + positions [+ scale(double) + counter bytes].
  std::size_t n = 3 + varint_len(m) + varint_len(filter.params().k) + 8 +
                  varint_len(s) + position_bytes(s, m, layout);
  switch (encoding) {
    case CounterEncoding::kFull:
      n += 8 + s;
      break;
    case CounterEncoding::kUniform:
      n += 8 + 1;
      break;
    case CounterEncoding::kCounterLess:
      break;
  }
  return n;
}

std::size_t encoded_bloom_wire_size(std::size_t set_bits,
                                    const BloomParams& params) {
  const BitLayout layout = choose_layout(set_bits, params.m);
  // magic + layout + varint(m) + varint(k) + varint(s) + positions.
  return 2 + varint_len(params.m) + varint_len(params.k) +
         varint_len(set_bits) + position_bytes(set_bits, params.m, layout);
}

std::size_t encoded_bloom_wire_size(const BloomFilter& filter) {
  return encoded_bloom_wire_size(filter.popcount(), filter.params());
}

// --- analytical sizes -------------------------------------------------------

double model_wire_size_bytes(std::size_t set_bits, std::size_t m,
                             CounterEncoding encoding) {
  double s = static_cast<double>(set_bits);
  double loc_bytes =
      std::min(s * static_cast<double>(util::bits_for(m)) / 8.0,
               static_cast<double>(m) / 8.0);
  switch (encoding) {
    case CounterEncoding::kFull:
      return loc_bytes + s;  // one counter byte per set bit
    case CounterEncoding::kUniform:
      return loc_bytes + 1.0;
    case CounterEncoding::kCounterLess:
      return loc_bytes;
  }
  return loc_bytes;
}

}  // namespace bsub::bloom
