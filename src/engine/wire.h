// Wire protocol for the live B-SUB node engine (the paper's future-work
// "prototype HUNET system").
//
// Everything two devices exchange during a contact is a versioned,
// length-prefixed, checksummed frame (magic, version, type, payload length,
// payload, FNV checksum). The frame types mirror the protocol steps of
// section V:
//
//   kHello          opens a contact: sender id, broker flag, and the
//                   counter-less interest/relay reports the peer needs to
//                   start matching immediately (one round trip total).
//   kGenuineFilter  consumer -> broker interest propagation (uniform TCBF).
//   kRelayFilter    broker <-> broker relay exchange (full TCBF).
//   kData           a content message; the custody flag distinguishes a
//                   broker replica (pickup / preferential transfer) from a
//                   final delivery.
//
// Frames survive hostile bytes: decode() treats its input as
// attacker-controlled and throws util::CodecError (alias util::DecodeError)
// on any malformed, truncated, oversized, out-of-range, trailing-garbage,
// or checksum-failing input, with the failing byte offset attached. It is
// parse_frame(), which checks the frame and reads its fields in place,
// plus the embedded filter decodes, which check the filter blobs. Length
// claims are capped before any allocation they imply (see DESIGN.md §7).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bloom/bloom_filter.h"
#include "bloom/tcbf.h"
#include "util/time.h"

namespace bsub::engine {

/// Engine node identifier (independent of trace NodeId).
using NodeId = std::uint64_t;

/// First header byte of every frame ('[').
inline constexpr std::uint8_t kFrameMagic = 0x5B;
/// Wire format revision, the second header byte. Decoders reject any other
/// value with util::CodecError: a version bump is a deliberate compatibility
/// break, never a silent reinterpretation of old bytes.
inline constexpr std::uint8_t kWireVersion = 1;

enum class FrameType : std::uint8_t {
  kHello = 1,
  kGenuineFilter = 2,
  kRelayFilter = 3,
  kData = 4,
  kCustodyAck = 5,
};

/// A content message as carried on the wire: the key is a raw string (the
/// engine is independent of any workload key table).
struct ContentMessage {
  std::uint64_t id = 0;
  std::string key;
  std::vector<std::uint8_t> body;
  NodeId producer = 0;
  util::Time created = 0;
  util::Time ttl = 0;

  util::Time expiry() const { return created + ttl; }
  bool expired_at(util::Time now) const { return now >= expiry(); }

  friend bool operator==(const ContentMessage&, const ContentMessage&) =
      default;
};

struct HelloFrame {
  NodeId sender = 0;
  bool is_broker = false;
  /// Counter-less BF of the sender's own interests.
  bloom::BloomFilter interest_report;
  /// Counter-less BF of the sender's relay filter (meaningful for brokers).
  bloom::BloomFilter relay_report;
};

struct GenuineFrame {
  NodeId sender = 0;
  bloom::Tcbf filter;
};

struct RelayFrame {
  NodeId sender = 0;
  bloom::Tcbf filter;
};

struct DataFrame {
  NodeId sender = 0;
  ContentMessage message;
  /// True when the receiver takes broker custody (a replica), false when
  /// this is a final delivery to a consumer.
  bool custody = false;
};

/// Confirms that a custody DATA frame was accepted. Custody transfers are
/// two-phase: the sender only releases (or charges) its copy on the ack, so
/// a refusal or a lost frame never destroys the message.
struct CustodyAckFrame {
  NodeId sender = 0;
  std::uint64_t message_id = 0;
  /// False = permanent refusal (the receiver already carried this id);
  /// the sender stops offering this message to this peer.
  bool accepted = true;
};

/// A decoded frame; exactly one member is engaged, per `type`.
struct Frame {
  FrameType type = FrameType::kHello;
  std::optional<HelloFrame> hello;
  std::optional<GenuineFrame> genuine;
  std::optional<RelayFrame> relay;
  std::optional<DataFrame> data;
  std::optional<CustodyAckFrame> custody_ack;
};

/// A content message read in place: key and body alias the frame bytes.
struct MessageView {
  std::uint64_t id = 0;
  std::string_view key;
  std::span<const std::uint8_t> body;
  NodeId producer = 0;
  util::Time created = 0;
  util::Time ttl = 0;

  util::Time expiry() const { return created + ttl; }
  bool expired_at(util::Time now) const { return now >= expiry(); }
  /// An owning copy.
  ContentMessage to_message() const;
};

/// A frame read in place by parse_frame(): header, checksum, every length
/// and every field are validated, but filters stay encoded blobs (decode
/// them with bloom::decode_bloom / decode_tcbf) and the message aliases the
/// frame bytes. Nothing is allocated.
struct FrameView {
  FrameType type = FrameType::kHello;
  NodeId sender = 0;
  /// kHello: the broker flag; kData: custody; kCustodyAck: accepted.
  bool flag = false;
  /// kHello: the interest report; kGenuineFilter / kRelayFilter: the TCBF.
  std::span<const std::uint8_t> filter;
  /// kHello only: the relay report.
  std::span<const std::uint8_t> relay_report;
  MessageView message;           ///< kData only
  std::uint64_t message_id = 0;  ///< kCustodyAck only
};

std::vector<std::uint8_t> encode(const HelloFrame& frame);
std::vector<std::uint8_t> encode(const GenuineFrame& frame);
std::vector<std::uint8_t> encode(const RelayFrame& frame);
std::vector<std::uint8_t> encode(const DataFrame& frame);
std::vector<std::uint8_t> encode(const CustodyAckFrame& frame);

/// Hot-path encoders for the frames a node builds per step: they append
/// the frame's bytes to `out` and touch nothing else. Payload assembly goes
/// through a thread-local scratch buffer, so appending to a warmed buffer
/// performs no heap allocation. The DATA frame is encoded straight from the
/// stored message (no DataFrame copy of it).
void append_data(NodeId sender, const ContentMessage& message, bool custody,
                 std::vector<std::uint8_t>& out);
void append_frame(const CustodyAckFrame& frame,
                  std::vector<std::uint8_t>& out);

/// Epoch-keyed cache of one node's encoded frame bytes for a single frame
/// stream (hello or relay). The sender id is not part of the key:
/// a cache belongs to one node. Filters carry process-unique mutation
/// epochs, so equal epochs imply identical contents and the cached bytes
/// can be replayed verbatim.
struct FrameCache {
  std::vector<std::uint8_t> bytes;
  std::uint64_t epoch = 0;   ///< filter epoch (hello: interest report)
  std::uint64_t epoch2 = 0;  ///< hello only: relay report epoch
  bool broker = false;       ///< hello only: broker flag at encode time
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

/// Cached hello encoding, keyed on both reports' epochs + the broker flag.
const std::vector<std::uint8_t>& encode_hello_cached(
    NodeId sender, bool is_broker, const bloom::BloomFilter& interest_report,
    const bloom::BloomFilter& relay_report, FrameCache& cache);

/// Cached relay-filter encoding, keyed on the filter's epoch.
const std::vector<std::uint8_t>& encode_relay_cached(NodeId sender,
                                                     const bloom::Tcbf& filter,
                                                     FrameCache& cache);

/// Reads any frame in place; throws util::DecodeError on malformed input
/// (the embedded filter blobs are checked only when decoded).
FrameView parse_frame(std::span<const std::uint8_t> bytes);

/// Decodes any frame into owning members (parse_frame plus the filter
/// decodes and a message copy); throws util::DecodeError on malformed
/// input.
Frame decode(std::span<const std::uint8_t> bytes);

}  // namespace bsub::engine
