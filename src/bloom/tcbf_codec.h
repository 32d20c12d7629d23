// Wire encoding of TCBFs and BFs (paper section VI-C).
//
// Instead of shipping the raw m-bit vector, the codec records the locations
// of the set bits, ceil(log2 m) bits each, which wins whenever the fill
// ratio is low (s * ceil(log2 m) < m); otherwise it falls back to the raw
// bitmap. Counters are quantized to one byte (the paper's resolution: with a
// 24 h horizon one byte gives ~5.6 min granularity). Three progressively
// smaller counter treatments mirror the paper's optimizations:
//
//   Full          per-set-bit counter bytes        (relay-filter exchange)
//   Uniform       one shared counter byte          (freshly built filters)
//   CounterLess   no counters at all               (interest reports / BF)
//
// Decoding treats its input as attacker-controlled: every structural claim
// (magic, enums, geometry, length prefixes, position ordering, counter
// ranges) is validated — before any allocation it implies — and violations
// throw util::CodecError with the failing byte offset (see DESIGN.md §7).
// Valid encodings are canonical: encode(decode(encode(f))) == encode(f)
// byte-for-byte.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bloom/bloom_filter.h"
#include "bloom/tcbf.h"

namespace bsub::bloom {

enum class CounterEncoding : std::uint8_t {
  kFull = 0,
  kUniform = 1,
  kCounterLess = 2,
};

/// Encodes a TCBF. `encoding` selects the counter treatment; kCounterLess
/// rips the counters (the receiver sees a plain BF re-inflated with the
/// initial counter value). The bit positions automatically use whichever of
/// location-list / raw-bitmap is smaller.
std::vector<std::uint8_t> encode_tcbf(const Tcbf& filter,
                                      CounterEncoding encoding);

/// Hot-path variant: encodes into `out` (cleared first, capacity reused) so
/// steady-state encoding performs no heap allocation once buffers warm up.
/// Set-bit extraction goes through a thread-local scratch vector.
void encode_tcbf_into(const Tcbf& filter, CounterEncoding encoding,
                      std::vector<std::uint8_t>& out);

/// Decodes a TCBF previously produced by encode_tcbf. Counter values are
/// recovered up to quantization error. Throws util::DecodeError on
/// malformed input.
Tcbf decode_tcbf(std::span<const std::uint8_t> data);

/// Encodes a plain BF (equivalent to kCounterLess but with no counter
/// metadata at all).
std::vector<std::uint8_t> encode_bloom(const BloomFilter& filter);
BloomFilter decode_bloom(std::span<const std::uint8_t> data);
/// Hot-path variant of decode_bloom: decodes into `out`, reusing its bit
/// storage when the geometry matches (no heap allocation then). On a throw
/// `out` holds unspecified contents.
void decode_bloom_into(std::span<const std::uint8_t> data, BloomFilter& out);

/// Hot-path variant of encode_bloom; same contract as encode_tcbf_into.
void encode_bloom_into(const BloomFilter& filter,
                       std::vector<std::uint8_t>& out);

/// Exact size in bytes of encode_tcbf(filter, encoding) — computed from the
/// popcount and geometry alone, without materializing the encoding. The
/// simulator's contact loop only ever charges encoded sizes against link
/// budgets, so it uses these instead of encoding and measuring.
std::size_t encoded_tcbf_wire_size(const Tcbf& filter,
                                   CounterEncoding encoding);

/// Exact size in bytes of encode_bloom for a filter with `set_bits` set bits
/// and the given geometry (and the convenience overload measuring a filter).
std::size_t encoded_bloom_wire_size(std::size_t set_bits,
                                    const BloomParams& params);
std::size_t encoded_bloom_wire_size(const BloomFilter& filter);

/// Paper-model wire sizes in bytes (the analytical accounting of section
/// VI-C, without header overhead), for comparing against raw-string
/// representations:
///   Full:        s * (1 + ceil(log2 m)/8)
///   Uniform:     s * ceil(log2 m)/8 + 1
///   CounterLess: s * ceil(log2 m)/8
/// capped at the raw-bitmap cost m/8 (+ counters where applicable).
double model_wire_size_bytes(std::size_t set_bits, std::size_t m,
                             CounterEncoding encoding);

}  // namespace bsub::bloom
