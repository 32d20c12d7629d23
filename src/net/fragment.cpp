#include "net/fragment.h"

#include <algorithm>
#include <string>

#include "util/byte_io.h"

namespace bsub::net {

namespace {

void put_header(util::ByteWriter& w, DatagramKind kind, std::uint32_t epoch) {
  w.put_u8(kNetMagic);
  w.put_u8(kNetVersion);
  w.put_u8(static_cast<std::uint8_t>(kind));
  w.put_u32(epoch);
}

}  // namespace

DatagramView parse_datagram(std::span<const std::uint8_t> bytes) {
  util::ByteReader r(bytes);
  if (r.get_u8() != kNetMagic) {
    throw util::CodecError("bad datagram magic", 0, "0xB5", {});
  }
  const std::uint8_t version = r.get_u8();
  if (version != kNetVersion) {
    throw util::CodecError("unsupported datagram version", 1,
                           std::to_string(kNetVersion),
                           std::to_string(version));
  }
  const std::size_t kind_at = r.offset();
  const std::uint8_t kind_byte = r.get_u8();
  if (kind_byte < static_cast<std::uint8_t>(DatagramKind::kData) ||
      kind_byte > static_cast<std::uint8_t>(DatagramKind::kFinAck)) {
    throw util::CodecError("unknown datagram kind", kind_at, "kind in [1, 4]",
                           std::to_string(kind_byte));
  }
  DatagramView v;
  v.kind = static_cast<DatagramKind>(kind_byte);
  v.epoch = r.get_u32();
  switch (v.kind) {
    case DatagramKind::kData: {
      v.seq = r.get_varint();
      const std::size_t geom_at = r.offset();
      v.frag_count = r.get_varint();
      v.frag_index = r.get_varint();
      v.frame_len = r.get_varint();
      v.offset = r.get_varint();
      if (v.frag_count == 0 || v.frag_index >= v.frag_count) {
        throw util::CodecError("bad fragment geometry", geom_at,
                               "0 <= index < count, count >= 1",
                               std::to_string(v.frag_index) + "/" +
                                   std::to_string(v.frag_count));
      }
      if (v.frame_len == 0 || v.frame_len > kMaxFrameBytes) {
        throw util::CodecError("bad frame length", geom_at,
                               "1.." + std::to_string(kMaxFrameBytes),
                               std::to_string(v.frame_len));
      }
      if (v.frag_count > v.frame_len) {
        throw util::CodecError("more fragments than frame bytes", geom_at,
                               "count <= frame length",
                               std::to_string(v.frag_count));
      }
      const std::size_t n = r.remaining();
      if (n == 0) {
        throw util::CodecError("empty fragment payload", r.offset(),
                               "at least 1 payload byte", "0");
      }
      if (v.offset > v.frame_len || n > v.frame_len - v.offset) {
        throw util::CodecError("fragment exceeds frame bounds", r.offset(),
                               "offset + payload <= frame length",
                               std::to_string(v.offset) + "+" +
                                   std::to_string(n));
      }
      v.payload = r.get_span(n);
      break;
    }
    case DatagramKind::kAck:
      v.ack_next = r.get_varint();
      break;
    case DatagramKind::kFin:
    case DatagramKind::kFinAck:
      break;
  }
  r.expect_end("datagram");
  return v;
}

std::size_t fragment_count(std::size_t frame_size, std::size_t mtu) {
  const std::size_t chunk = mtu - kDataHeaderReserve;
  return (frame_size + chunk - 1) / chunk;
}

void encode_fragment(std::uint32_t epoch, std::uint64_t seq,
                     std::span<const std::uint8_t> frame, std::size_t mtu,
                     std::size_t index, std::vector<std::uint8_t>& out) {
  const std::size_t chunk = mtu - kDataHeaderReserve;
  const std::size_t offset = index * chunk;
  const std::size_t len = std::min(chunk, frame.size() - offset);
  util::ByteWriter w(std::move(out));
  put_header(w, DatagramKind::kData, epoch);
  w.put_varint(seq);
  w.put_varint(fragment_count(frame.size(), mtu));
  w.put_varint(index);
  w.put_varint(frame.size());
  w.put_varint(offset);
  w.put_bytes(frame.subspan(offset, len));
  out = std::move(w).take();
}

void encode_ack(std::uint32_t epoch, std::uint64_t ack_next,
                std::vector<std::uint8_t>& out) {
  util::ByteWriter w(std::move(out));
  put_header(w, DatagramKind::kAck, epoch);
  w.put_varint(ack_next);
  out = std::move(w).take();
}

void encode_fin(std::uint32_t epoch, bool is_ack,
                std::vector<std::uint8_t>& out) {
  util::ByteWriter w(std::move(out));
  put_header(w, is_ack ? DatagramKind::kFinAck : DatagramKind::kFin, epoch);
  out = std::move(w).take();
}

void FragmentBuffer::reset() {
  bytes_.clear();
  slices_.clear();
  frag_count_ = 0;
  frame_len_ = 0;
}

FragmentBuffer::Add FragmentBuffer::add(const DatagramView& view) {
  if (frag_count_ == 0) {
    frag_count_ = view.frag_count;
    frame_len_ = view.frame_len;
  } else if (view.frag_count != frag_count_ || view.frame_len != frame_len_) {
    return Add::kMismatch;
  }
  const auto it = std::lower_bound(
      slices_.begin(), slices_.end(), view.frag_index,
      [](const Slice& s, std::uint64_t index) { return s.index < index; });
  if (it != slices_.end() && it->index == view.frag_index) {
    return Add::kDuplicate;
  }
  // parse_datagram already guaranteed offset + payload <= frame_len; the
  // slices together may not hold more than the frame either.
  if (bytes_.size() + view.payload.size() > frame_len_) {
    reset();
    return Add::kMismatch;
  }
  slices_.insert(it, Slice{view.frag_index, view.offset, bytes_.size(),
                           view.payload.size()});
  bytes_.insert(bytes_.end(), view.payload.begin(), view.payload.end());
  if (!complete()) return Add::kIncomplete;
  // Every index is in: the slices must tile [0, frame_len) exactly.
  std::vector<Slice> by_offset(slices_);
  std::sort(by_offset.begin(), by_offset.end(),
            [](const Slice& a, const Slice& b) { return a.offset < b.offset; });
  std::uint64_t end = 0;
  for (const Slice& s : by_offset) {
    if (s.offset != end) break;
    end += s.size;
  }
  if (end != frame_len_) {
    reset();
    return Add::kMismatch;
  }
  return Add::kComplete;
}

std::vector<std::uint8_t> FragmentBuffer::take() && {
  std::sort(slices_.begin(), slices_.end(),
            [](const Slice& a, const Slice& b) { return a.offset < b.offset; });
  // Slices that arrived in frame order already are the frame.
  const bool in_order = std::all_of(
      slices_.begin(), slices_.end(),
      [](const Slice& s) { return s.at == s.offset; });
  if (in_order) return std::move(bytes_);
  std::vector<std::uint8_t> frame;
  frame.reserve(frame_len_);
  for (const Slice& s : slices_) {
    const auto from = bytes_.begin() + static_cast<std::ptrdiff_t>(s.at);
    frame.insert(frame.end(), from, from + static_cast<std::ptrdiff_t>(s.size));
  }
  return frame;
}

}  // namespace bsub::net
