#include "engine/wire.h"

#include "bloom/tcbf_codec.h"
#include "util/byte_io.h"
#include "util/hash.h"

namespace bsub::engine {

namespace {

constexpr std::size_t kMaxBodyBytes = 1 << 20;
constexpr std::size_t kMaxKeyBytes = 4096;
// Generous bound on a whole frame payload (body + two filter blobs + slack):
// reject absurd length claims before any allocation sized from them.
constexpr std::size_t kMaxPayloadBytes = 4u << 20;

/// Appends header (magic, version, type, payload length), payload and
/// trailer (FNV checksum of the payload) to `out`.
void seal_append(FrameType type, std::span<const std::uint8_t> payload,
                 std::vector<std::uint8_t>& out) {
  out.push_back(kFrameMagic);
  out.push_back(kWireVersion);
  out.push_back(static_cast<std::uint8_t>(type));
  std::uint64_t len = payload.size();
  while (len >= 0x80) {  // LEB128, as util::ByteWriter::put_varint
    out.push_back(static_cast<std::uint8_t>(len) | 0x80);
    len >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(len));
  out.insert(out.end(), payload.begin(), payload.end());
  const auto sum = static_cast<std::uint32_t>(util::fnv1a64(std::string_view(
      reinterpret_cast<const char*>(payload.data()), payload.size())));
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(sum >> (8 * i)));
  }
}

/// Payload assembly scratch: one writer buffer per thread (frame encoders
/// never nest, so a single buffer suffices).
std::vector<std::uint8_t>& payload_scratch() {
  thread_local std::vector<std::uint8_t> buf;
  return buf;
}

/// Scratch for embedded filter blobs.
std::vector<std::uint8_t>& blob_scratch() {
  thread_local std::vector<std::uint8_t> buf;
  return buf;
}

/// Builds a payload with `fill` in the thread's payload scratch and appends
/// the sealed frame to `out`.
template <typename Fill>
void append_sealed(FrameType type, std::vector<std::uint8_t>& out,
                   Fill&& fill) {
  util::ByteWriter w(std::move(payload_scratch()));
  fill(w);
  seal_append(type, w.bytes(), out);
  payload_scratch() = std::move(w).take();
}

void put_bloom_blob(util::ByteWriter& w, const bloom::BloomFilter& bf) {
  auto& blob = blob_scratch();
  bloom::encode_bloom_into(bf, blob);
  w.put_varint(blob.size());
  w.put_bytes(blob);
}

void put_tcbf_blob(util::ByteWriter& w, const bloom::Tcbf& filter,
                   bloom::CounterEncoding encoding) {
  auto& blob = blob_scratch();
  bloom::encode_tcbf_into(filter, encoding, blob);
  w.put_varint(blob.size());
  w.put_bytes(blob);
}

void put_message(util::ByteWriter& w, const ContentMessage& m) {
  w.put_u64(m.id);
  w.put_string(m.key);
  w.put_varint(m.body.size());
  w.put_bytes(m.body);
  w.put_u64(m.producer);
  w.put_u64(static_cast<std::uint64_t>(m.created));
  w.put_u64(static_cast<std::uint64_t>(m.ttl));
}

void append_hello(NodeId sender, bool is_broker,
                  const bloom::BloomFilter& interest_report,
                  const bloom::BloomFilter& relay_report,
                  std::vector<std::uint8_t>& out) {
  append_sealed(FrameType::kHello, out, [&](util::ByteWriter& w) {
    w.put_u64(sender);
    w.put_u8(is_broker ? 1 : 0);
    put_bloom_blob(w, interest_report);
    put_bloom_blob(w, relay_report);
  });
}

/// A genuine frame carries a fresh filter (one shared counter), a relay
/// frame a merged one (every counter).
void append_filter_frame(FrameType type, NodeId sender,
                         const bloom::Tcbf& filter,
                         std::vector<std::uint8_t>& out) {
  const auto encoding = type == FrameType::kGenuineFilter
                            ? bloom::CounterEncoding::kUniform
                            : bloom::CounterEncoding::kFull;
  append_sealed(type, out, [&](util::ByteWriter& w) {
    w.put_u64(sender);
    put_tcbf_blob(w, filter, encoding);
  });
}

/// Reads a u64 that must be a valid non-negative util::Time.
util::Time get_time(util::ByteReader& r, const char* what) {
  const std::size_t at = r.offset();
  const std::uint64_t raw = r.get_u64();
  if (raw > static_cast<std::uint64_t>(util::kTimeMax)) {
    throw util::CodecError(std::string("bad ") + what, at,
                           "non-negative time below 2^63",
                           std::to_string(raw));
  }
  return static_cast<util::Time>(raw);
}

MessageView get_message(util::ByteReader& r) {
  MessageView m;
  m.id = r.get_u64();
  const std::size_t key_at = r.offset();
  const std::uint64_t key_len = r.get_varint();
  if (key_len > kMaxKeyBytes) {
    throw util::CodecError("key too long", key_at,
                           "at most " + std::to_string(kMaxKeyBytes) +
                               " bytes",
                           std::to_string(key_len));
  }
  const auto key = r.get_span(static_cast<std::size_t>(key_len));
  m.key = std::string_view(reinterpret_cast<const char*>(key.data()),
                           key.size());
  const std::size_t body_at = r.offset();
  const std::uint64_t body_len = r.get_varint();
  if (body_len > kMaxBodyBytes) {
    throw util::CodecError("body too long", body_at,
                           "at most " + std::to_string(kMaxBodyBytes) +
                               " bytes",
                           std::to_string(body_len));
  }
  m.body = r.get_span(static_cast<std::size_t>(body_len));
  m.producer = r.get_u64();
  m.created = get_time(r, "message creation time");
  m.ttl = get_time(r, "message TTL");
  if (m.created > util::kTimeMax - m.ttl) {
    throw util::CodecError("message expiry overflows", r.offset(),
                           "created + ttl below 2^63", {});
  }
  return m;
}

std::span<const std::uint8_t> get_blob(util::ByteReader& r) {
  const std::size_t at = r.offset();
  const std::uint64_t len = r.get_varint();
  if (len > kMaxBodyBytes) {
    throw util::CodecError("blob too long", at,
                           "at most " + std::to_string(kMaxBodyBytes) +
                               " bytes",
                           std::to_string(len));
  }
  return r.get_span(static_cast<std::size_t>(len));
}

}  // namespace

ContentMessage MessageView::to_message() const {
  return ContentMessage{id,       std::string(key),
                        std::vector<std::uint8_t>(body.begin(), body.end()),
                        producer, created,
                        ttl};
}

std::vector<std::uint8_t> encode(const HelloFrame& frame) {
  std::vector<std::uint8_t> out;
  append_hello(frame.sender, frame.is_broker, frame.interest_report,
               frame.relay_report, out);
  return out;
}

std::vector<std::uint8_t> encode(const GenuineFrame& frame) {
  std::vector<std::uint8_t> out;
  append_filter_frame(FrameType::kGenuineFilter, frame.sender, frame.filter,
                      out);
  return out;
}

std::vector<std::uint8_t> encode(const RelayFrame& frame) {
  std::vector<std::uint8_t> out;
  append_filter_frame(FrameType::kRelayFilter, frame.sender, frame.filter,
                      out);
  return out;
}

std::vector<std::uint8_t> encode(const DataFrame& frame) {
  std::vector<std::uint8_t> out;
  append_data(frame.sender, frame.message, frame.custody, out);
  return out;
}

std::vector<std::uint8_t> encode(const CustodyAckFrame& frame) {
  std::vector<std::uint8_t> out;
  append_frame(frame, out);
  return out;
}

void append_data(NodeId sender, const ContentMessage& message, bool custody,
                 std::vector<std::uint8_t>& out) {
  append_sealed(FrameType::kData, out, [&](util::ByteWriter& w) {
    w.put_u64(sender);
    put_message(w, message);
    w.put_u8(custody ? 1 : 0);
  });
}

void append_frame(const CustodyAckFrame& frame,
                  std::vector<std::uint8_t>& out) {
  append_sealed(FrameType::kCustodyAck, out, [&](util::ByteWriter& w) {
    w.put_u64(frame.sender);
    w.put_u64(frame.message_id);
    w.put_u8(frame.accepted ? 1 : 0);
  });
}

const std::vector<std::uint8_t>& encode_hello_cached(
    NodeId sender, bool is_broker, const bloom::BloomFilter& interest_report,
    const bloom::BloomFilter& relay_report, FrameCache& cache) {
  if (cache.epoch == interest_report.epoch() &&
      cache.epoch2 == relay_report.epoch() && cache.broker == is_broker) {
    ++cache.hits;
    return cache.bytes;
  }
  ++cache.misses;
  cache.bytes.clear();
  append_hello(sender, is_broker, interest_report, relay_report, cache.bytes);
  cache.epoch = interest_report.epoch();
  cache.epoch2 = relay_report.epoch();
  cache.broker = is_broker;
  return cache.bytes;
}

const std::vector<std::uint8_t>& encode_relay_cached(NodeId sender,
                                                     const bloom::Tcbf& filter,
                                                     FrameCache& cache) {
  if (cache.epoch == filter.epoch()) {
    ++cache.hits;
    return cache.bytes;
  }
  ++cache.misses;
  cache.bytes.clear();
  append_filter_frame(FrameType::kRelayFilter, sender, filter, cache.bytes);
  cache.epoch = filter.epoch();
  return cache.bytes;
}

FrameView parse_frame(std::span<const std::uint8_t> bytes) {
  util::ByteReader r(bytes);
  if (r.get_u8() != kFrameMagic) {
    throw util::CodecError("bad frame magic", 0, "0x5B", {});
  }
  const std::uint8_t version = r.get_u8();
  if (version != kWireVersion) {
    throw util::CodecError("unsupported wire version", 1,
                           std::to_string(kWireVersion),
                           std::to_string(version));
  }
  const std::uint8_t type_byte = r.get_u8();
  if (type_byte < static_cast<std::uint8_t>(FrameType::kHello) ||
      type_byte > static_cast<std::uint8_t>(FrameType::kCustodyAck)) {
    throw util::CodecError("unknown frame type", 2, "type in [1, 5]",
                           std::to_string(type_byte));
  }
  const auto type = static_cast<FrameType>(type_byte);
  const std::size_t len_at = r.offset();
  const std::uint64_t payload_len = r.get_varint();
  if (payload_len > kMaxPayloadBytes) {
    throw util::CodecError("frame payload too long", len_at,
                           "at most " + std::to_string(kMaxPayloadBytes) +
                               " bytes",
                           std::to_string(payload_len));
  }
  if (payload_len > r.remaining()) {
    throw util::CodecError("frame payload truncated", r.offset(),
                           std::to_string(payload_len) + " payload bytes",
                           std::to_string(r.remaining()));
  }

  // Slice the payload (zero-copy), verify the trailing checksum, then parse.
  const auto payload = r.get_span(static_cast<std::size_t>(payload_len));
  const std::uint32_t declared = r.get_u32();
  const std::string_view view(reinterpret_cast<const char*>(payload.data()),
                              payload.size());
  if (declared != static_cast<std::uint32_t>(util::fnv1a64(view))) {
    throw util::CodecError("frame checksum mismatch");
  }
  // A frame is a complete unit: callers hand one frame at a time, so
  // bytes past the checksum mean a framing bug or tampering.
  r.expect_end("frame");

  util::ByteReader p(payload);
  FrameView frame;
  frame.type = type;
  frame.sender = p.get_u64();
  switch (type) {
    case FrameType::kHello:
      frame.flag = p.get_u8() != 0;
      frame.filter = get_blob(p);
      frame.relay_report = get_blob(p);
      break;
    case FrameType::kGenuineFilter:
    case FrameType::kRelayFilter:
      frame.filter = get_blob(p);
      break;
    case FrameType::kData:
      frame.message = get_message(p);
      frame.flag = p.get_u8() != 0;
      break;
    case FrameType::kCustodyAck:
      frame.message_id = p.get_u64();
      frame.flag = p.get_u8() != 0;
      break;
  }
  p.expect_end("frame payload");
  return frame;
}

Frame decode(std::span<const std::uint8_t> bytes) {
  const FrameView v = parse_frame(bytes);
  Frame frame;
  frame.type = v.type;
  switch (v.type) {
    case FrameType::kHello:
      frame.hello = HelloFrame{v.sender, v.flag, bloom::decode_bloom(v.filter),
                               bloom::decode_bloom(v.relay_report)};
      break;
    case FrameType::kGenuineFilter:
      frame.genuine = GenuineFrame{v.sender, bloom::decode_tcbf(v.filter)};
      break;
    case FrameType::kRelayFilter:
      frame.relay = RelayFrame{v.sender, bloom::decode_tcbf(v.filter)};
      break;
    case FrameType::kData:
      frame.data = DataFrame{v.sender, v.message.to_message(), v.flag};
      break;
    case FrameType::kCustodyAck:
      frame.custody_ack = CustodyAckFrame{v.sender, v.message_id, v.flag};
      break;
  }
  return frame;
}

}  // namespace bsub::engine
