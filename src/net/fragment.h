// Session datagram format: MTU-aware fragmentation of wire frames.
//
// A B-SUB wire frame (engine/wire.h) can exceed a datagram MTU — a full
// TCBF encoding plus a message body easily beats 1400 bytes — so the
// session layer slices every frame into datagrams of its own, each carrying
// a small header:
//
//   u8     magic    0xB5
//   u8     version  kNetVersion (reject anything else, like the wire codec)
//   u8     kind     1=DATA 2=ACK 3=FIN 4=FIN_ACK
//   u32    epoch    session incarnation of the *sender* (stale-drop key)
//   DATA:  varint seq          frame sequence number within the session
//          varint frag_count   total fragments of this frame (>= 1)
//          varint frag_index   0-based, < frag_count
//          varint frame_len    total frame bytes (bounded)
//          varint offset       this fragment's byte offset into the frame
//          bytes  payload      the slice (to the end of the datagram)
//   ACK:   varint ack_next     cumulative: all seqs < ack_next delivered
//   FIN / FIN_ACK: empty body
//
// parse_datagram() treats input as attacker-controlled and throws
// util::CodecError on anything malformed (the session counts and drops).
// FragmentBuffer reassembles one frame from its slices, rejecting
// inconsistent duplicates and slices that do not tile the frame. It holds
// only the bytes that arrived: a datagram's frame_len is a claim, and a
// peer that claims 4 MiB and sends one byte costs one byte.
//
// The encoders write one datagram into a caller-owned buffer (cleared,
// capacity reused), so a sender that keeps one warm buffer allocates
// nothing per datagram.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/errors.h"

namespace bsub::net {

inline constexpr std::uint8_t kNetMagic = 0xB5;
inline constexpr std::uint8_t kNetVersion = 1;

/// Generous ceiling on one reassembled frame: the wire codec itself caps
/// payloads at 4 MiB, plus header slack.
inline constexpr std::size_t kMaxFrameBytes = (4u << 20) + 4096;

/// Bytes of datagram headroom reserved for the DATA header (worst-case
/// varints); the fragmenter packs `mtu - kDataHeaderReserve` payload bytes
/// per datagram.
inline constexpr std::size_t kDataHeaderReserve = 56;

/// Smallest MTU the session layer accepts; below this the header reserve
/// would leave no room for payload.
inline constexpr std::size_t kMinMtu = kDataHeaderReserve + 8;

enum class DatagramKind : std::uint8_t {
  kData = 1,
  kAck = 2,
  kFin = 3,
  kFinAck = 4,
};

/// A parsed datagram; `payload` aliases the input buffer.
struct DatagramView {
  DatagramKind kind = DatagramKind::kData;
  std::uint32_t epoch = 0;
  // kData only:
  std::uint64_t seq = 0;
  std::uint64_t frag_count = 0;
  std::uint64_t frag_index = 0;
  std::uint64_t frame_len = 0;
  std::uint64_t offset = 0;
  std::span<const std::uint8_t> payload;
  // kAck only:
  std::uint64_t ack_next = 0;
};

/// Throws util::CodecError on malformed input (wrong magic/version/kind,
/// inconsistent fragment geometry, out-of-range lengths).
DatagramView parse_datagram(std::span<const std::uint8_t> bytes);

/// Number of DATA datagrams a frame of `frame_size` bytes takes at `mtu`.
std::size_t fragment_count(std::size_t frame_size, std::size_t mtu);

/// Encodes DATA datagram `index` (< fragment_count) of `frame`, sliced at
/// `mtu`, into `out`. Requires mtu >= kMinMtu and frame non-empty and within
/// kMaxFrameBytes.
void encode_fragment(std::uint32_t epoch, std::uint64_t seq,
                     std::span<const std::uint8_t> frame, std::size_t mtu,
                     std::size_t index, std::vector<std::uint8_t>& out);

void encode_ack(std::uint32_t epoch, std::uint64_t ack_next,
                std::vector<std::uint8_t>& out);
void encode_fin(std::uint32_t epoch, bool is_ack,
                std::vector<std::uint8_t>& out);

/// Reassembles one frame from DATA fragments (any order, duplicates
/// tolerated when consistent). Slices are kept as they arrive and joined
/// only once every fragment is in, so memory follows the bytes received,
/// never the frame length a datagram claims.
class FragmentBuffer {
 public:
  enum class Add {
    kIncomplete,  ///< accepted; frame not yet whole
    kComplete,    ///< accepted; take() is the whole frame
    kMismatch,    ///< rejected: geometry disagrees with earlier fragments,
                  ///< or the slices overrun or fail to tile the frame
                  ///< (the buffer is then emptied)
    kDuplicate,   ///< rejected: this fragment index was already placed
  };

  /// `view.kind` must be kData (caller dispatches).
  Add add(const DatagramView& view);

  bool complete() const {
    return frag_count_ != 0 && slices_.size() == frag_count_;
  }
  /// The whole frame; call once, after add() returned kComplete.
  std::vector<std::uint8_t> take() &&;

 private:
  struct Slice {
    std::uint64_t index;
    std::uint64_t offset;  ///< in the frame
    std::size_t at;        ///< in bytes_
    std::size_t size;
  };

  void reset();

  std::vector<std::uint8_t> bytes_;  ///< payloads, in arrival order
  std::vector<Slice> slices_;        ///< sorted by index
  std::uint64_t frag_count_ = 0;     ///< 0 = no fragment accepted yet
  std::uint64_t frame_len_ = 0;
};

}  // namespace bsub::net
