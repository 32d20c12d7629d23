// Contact session: reliable, in-order delivery of B-SUB wire frames to one
// peer over an unreliable datagram transport.
//
// This is the live-network incarnation of one trace contact. The B-SUB
// encounter protocol itself (HELLO / filter exchange / message transfer)
// lives in engine::BsubNode; the session's job is to carry those frames
// across a lossy, MTU-bounded link so the node sees exactly the frame
// stream it would have seen on the in-memory harness.
//
// State machine:
//
//            offer()/on_datagram(DATA|ACK)
//   kOpening ───────────────────────────────► kEstablished
//      │  local hello queued;    first valid      │
//      │  RTO retransmits it     peer datagram    │
//      │                                          │
//      │ close()                        close()   │      FIN_ACK / FIN
//      ├──────────────► kClosing ◄────────────────┘   ┌───────────────┐
//      │                   │  FIN sent, RTO-retried   │               │
//      │                   └──────────────────────────┴──► kClosed ◄──┘
//      │   retries exhausted (peer lost) / abort()         ▲
//      └───────────────────────────────────────────────────┘
//
// Reliability: every offered frame gets a session sequence number, is
// fragmented to the MTU (net/fragment.h) and kept until cumulatively
// acked. A single retransmit timer guards the oldest unacked frame with
// exponential backoff (rto_initial, ×rto_backoff, capped at rto_max);
// max_retries consecutive unanswered timeouts declare the peer lost and
// tear the session down. The receive side reassembles fragments, holds
// out-of-order frames, and releases them strictly in sequence order.
//
// Epochs: each side stamps datagrams with its session incarnation; a
// receiver drops datagrams from older incarnations and resets its receive
// state when the peer's epoch moves forward (stale-retransmit hygiene for
// repeated contacts between the same pair).
//
// Budget: an optional shared sim::Link charges each offered frame's wire
// size once — the same accounting the in-memory Network harness applies —
// so a budget-limited loopback contact drops exactly the frames the
// harness would drop. Retransmits and datagram overhead are not charged;
// they show up in TransportStats instead.
//
// Buffers: every datagram a session sends is encoded into one buffer of
// the calling thread (a transport copies or queues a datagram before
// send() returns), and a whole frame that arrives in order in one datagram
// goes up straight from the datagram's bytes; only frames held for
// retransmission, reassembly or ordering are copied.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <vector>

#include "metrics/collector.h"
#include "net/fragment.h"
#include "net/reactor.h"
#include "net/transport.h"
#include "sim/link.h"
#include "util/time.h"

namespace bsub::net {

struct SessionConfig {
  std::size_t mtu = 1400;  ///< datagram size frames are fragmented to
  util::Time rto_initial = 200 * util::kMillisecond;
  double rto_backoff = 2.0;
  util::Time rto_max = 8 * util::kSecond;
  /// Consecutive unanswered retransmits before the peer is declared lost.
  std::uint32_t max_retries = 6;
  /// Caps on hostile/degenerate receive state per session.
  std::size_t max_partial_frames = 64;
  std::size_t max_out_of_order = 256;
};

enum class SessionState : std::uint8_t {
  kOpening,
  kEstablished,
  kClosing,
  kClosed,
};

enum class SessionCloseReason : std::uint8_t {
  kNone,
  kLocalClose,  ///< our close() completed (FIN acked)
  kPeerClose,   ///< peer sent FIN
  kPeerLost,    ///< retries exhausted (or local abort)
};

class Session {
 public:
  /// Receives each reassembled frame, in sequence order.
  using FrameHandler = std::function<void(std::span<const std::uint8_t>)>;
  using ClosedHandler = std::function<void(SessionCloseReason)>;

  Session(Endpoint peer, std::uint32_t local_epoch, SessionConfig config,
          Transport& transport, Reactor& reactor,
          metrics::TransportCounters& counters);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  Endpoint peer() const { return peer_; }
  SessionState state() const { return state_; }
  SessionCloseReason close_reason() const { return reason_; }
  std::uint32_t local_epoch() const { return local_epoch_; }

  void set_frame_handler(FrameHandler handler) {
    on_frame_ = std::move(handler);
  }
  void set_closed_handler(ClosedHandler handler) {
    on_closed_ = std::move(handler);
  }
  /// Shares a contact byte budget; it must outlive the session's offers.
  void set_budget(sim::Link* budget) { budget_ = budget; }

  /// Queues one wire frame for reliable in-order delivery. Returns false
  /// when the frame is dropped: budget exhausted, or session past kClosing.
  bool offer(std::span<const std::uint8_t> frame);

  /// Feeds one raw datagram from the transport. Malformed, stale, or
  /// ill-fitting input is counted and dropped — never thrown.
  void on_datagram(std::span<const std::uint8_t> bytes);

  /// Graceful teardown: sends FIN (RTO-retried) and waits for FIN_ACK.
  void close();

  /// Immediate local teardown: no datagrams, close handler fires once.
  void abort(SessionCloseReason reason);

  /// True when nothing is pending in either direction (all sent frames
  /// acked, no partial or held-back received frames).
  bool idle() const {
    return unacked_.empty() && partials_.empty() && ready_.empty();
  }
  std::size_t unacked_frames() const { return unacked_.size(); }
  std::uint64_t retransmits() const { return retransmits_; }

 private:
  struct SendEntry {
    std::uint64_t seq;
    std::vector<std::uint8_t> frame;
  };

  void send_fragments(const SendEntry& entry, bool retransmit);
  void send_ack();
  void send_fin(bool is_ack);
  void send_raw(std::span<const std::uint8_t> datagram);
  void arm_rto();
  void disarm_rto();
  void on_rto();
  void on_data(const DatagramView& view);
  void on_ack(const DatagramView& view);
  void deliver_ready();
  void enter_closed(SessionCloseReason reason);

  Endpoint peer_;
  SessionConfig config_;
  Transport& transport_;
  Reactor& reactor_;
  metrics::TransportCounters& counters_;
  std::uint32_t local_epoch_;
  std::uint32_t peer_epoch_ = 0;  ///< 0 = not yet learned

  SessionState state_ = SessionState::kOpening;
  SessionCloseReason reason_ = SessionCloseReason::kNone;
  FrameHandler on_frame_;
  ClosedHandler on_closed_;
  sim::Link* budget_ = nullptr;

  // Send side.
  std::uint64_t next_send_seq_ = 0;
  std::vector<SendEntry> unacked_;  ///< in seq order
  Reactor::TimerId rto_timer_ = TimerQueue::kInvalidTimer;
  util::Time rto_current_;
  std::uint32_t retries_ = 0;
  std::uint64_t retransmits_ = 0;

  // Receive side.
  std::uint64_t next_recv_seq_ = 0;
  std::map<std::uint64_t, FragmentBuffer> partials_;
  std::map<std::uint64_t, std::vector<std::uint8_t>> ready_;
};

}  // namespace bsub::net
