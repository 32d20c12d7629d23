#include "net/session.h"

#include <algorithm>

#include "util/errors.h"

namespace bsub::net {

Session::Session(Endpoint peer, std::uint32_t local_epoch,
                 SessionConfig config, Transport& transport, Reactor& reactor,
                 metrics::TransportCounters& counters)
    : peer_(peer), config_(config), transport_(transport), reactor_(reactor),
      counters_(counters), local_epoch_(local_epoch),
      rto_current_(config.rto_initial) {
  ++counters_.session_opens;
}

namespace {

/// The calling thread's datagram buffer: every datagram is encoded here and
/// handed to the transport, which copies or queues it before send()
/// returns, so one warm buffer serves every session of the thread.
std::vector<std::uint8_t>& datagram_scratch() {
  thread_local std::vector<std::uint8_t> buf;
  return buf;
}

}  // namespace

Session::~Session() { disarm_rto(); }

void Session::send_raw(std::span<const std::uint8_t> datagram) {
  if (transport_.send(peer_, datagram)) {
    ++counters_.datagrams_sent;
  } else {
    ++counters_.datagrams_dropped;
  }
}

void Session::send_ack() {
  std::vector<std::uint8_t>& buf = datagram_scratch();
  encode_ack(local_epoch_, next_recv_seq_, buf);
  send_raw(buf);
}

void Session::send_fin(bool is_ack) {
  std::vector<std::uint8_t>& buf = datagram_scratch();
  encode_fin(local_epoch_, is_ack, buf);
  send_raw(buf);
}

void Session::send_fragments(const SendEntry& entry, bool retransmit) {
  const std::size_t mtu = std::min(transport_.max_datagram_bytes(),
                                   config_.mtu);
  std::vector<std::uint8_t>& buf = datagram_scratch();
  const std::size_t count = fragment_count(entry.frame.size(), mtu);
  for (std::size_t i = 0; i < count; ++i) {
    encode_fragment(local_epoch_, entry.seq, entry.frame, mtu, i, buf);
    send_raw(buf);
  }
  if (retransmit) ++counters_.frames_retransmitted;
}

bool Session::offer(std::span<const std::uint8_t> frame) {
  if (state_ == SessionState::kClosing || state_ == SessionState::kClosed) {
    return false;
  }
  // Contact budget: charge the frame's wire size exactly once, at offer
  // time — identical accounting (and identical charge order) to the
  // in-memory Network harness popping its FIFO.
  if (budget_ && !budget_->try_send(frame.size())) {
    ++counters_.frames_dropped;
    return false;
  }
  SendEntry entry{next_send_seq_++,
                  std::vector<std::uint8_t>(frame.begin(), frame.end())};
  ++counters_.frames_sent;
  send_fragments(entry, /*retransmit=*/false);
  unacked_.push_back(std::move(entry));
  if (rto_timer_ == TimerQueue::kInvalidTimer) arm_rto();
  return true;
}

void Session::arm_rto() {
  disarm_rto();
  rto_timer_ = reactor_.schedule_after(rto_current_, [this] {
    rto_timer_ = TimerQueue::kInvalidTimer;
    on_rto();
  });
}

void Session::disarm_rto() {
  if (rto_timer_ != TimerQueue::kInvalidTimer) {
    reactor_.cancel(rto_timer_);
    rto_timer_ = TimerQueue::kInvalidTimer;
  }
}

void Session::on_rto() {
  if (state_ == SessionState::kClosed) return;
  ++retries_;
  if (retries_ > config_.max_retries) {
    // The peer stopped answering: walked away mid-contact, or never was
    // there. Either way the contact is over.
    ++counters_.session_timeouts;
    enter_closed(SessionCloseReason::kPeerLost);
    return;
  }
  if (state_ == SessionState::kClosing) {
    send_fin(/*is_ack=*/false);
  } else if (!unacked_.empty()) {
    // Stop-and-repair: resend the oldest unacked frame; the cumulative ack
    // it unblocks re-opens the pipeline.
    ++retransmits_;
    send_fragments(unacked_.front(), /*retransmit=*/true);
  } else {
    // Nothing outstanding after all (acked while the timer was in flight).
    retries_ = 0;
    rto_current_ = config_.rto_initial;
    return;
  }
  rto_current_ = std::min<util::Time>(
      static_cast<util::Time>(static_cast<double>(rto_current_) *
                              config_.rto_backoff),
      config_.rto_max);
  arm_rto();
}

void Session::on_datagram(std::span<const std::uint8_t> bytes) {
  ++counters_.datagrams_received;
  if (state_ == SessionState::kClosed) {
    ++counters_.datagrams_dropped;
    return;
  }
  DatagramView view;
  try {
    view = parse_datagram(bytes);
  } catch (const util::CodecError&) {
    ++counters_.datagrams_dropped;
    return;
  }

  // Epoch hygiene: learn the peer's incarnation on first contact, drop
  // anything older, reset receive state when it moves forward.
  if (peer_epoch_ == 0) {
    peer_epoch_ = view.epoch;
  } else if (view.epoch < peer_epoch_) {
    ++counters_.datagrams_dropped;
    return;
  } else if (view.epoch > peer_epoch_) {
    peer_epoch_ = view.epoch;
    partials_.clear();
    ready_.clear();
    next_recv_seq_ = 0;
  }

  if (state_ == SessionState::kOpening) state_ = SessionState::kEstablished;

  switch (view.kind) {
    case DatagramKind::kData:
      on_data(view);
      break;
    case DatagramKind::kAck:
      on_ack(view);
      break;
    case DatagramKind::kFin:
      send_fin(/*is_ack=*/true);
      enter_closed(SessionCloseReason::kPeerClose);
      break;
    case DatagramKind::kFinAck:
      if (state_ == SessionState::kClosing) {
        enter_closed(SessionCloseReason::kLocalClose);
      }
      break;
  }
}

void Session::on_data(const DatagramView& view) {
  if (view.seq < next_recv_seq_) {
    // Duplicate of an already-delivered frame (our ack was lost): re-ack.
    send_ack();
    return;
  }
  if (ready_.contains(view.seq)) {
    send_ack();
    return;  // complete but held for ordering; nothing to add
  }
  auto it = partials_.find(view.seq);
  if (it == partials_.end() &&
      (partials_.size() >= config_.max_partial_frames ||
       ready_.size() >= config_.max_out_of_order)) {
    ++counters_.datagrams_dropped;  // hostile/degenerate backlog
    return;
  }
  if (it == partials_.end() && view.frag_count == 1) {
    // A whole frame in one datagram needs no reassembly: in order, it goes
    // up straight from the datagram's bytes; past a gap, it waits.
    if (view.seq != next_recv_seq_) {
      ready_.emplace(view.seq, std::vector<std::uint8_t>(
                                   view.payload.begin(), view.payload.end()));
    } else {
      ++next_recv_seq_;
      ++counters_.frames_received;
      if (on_frame_) on_frame_(view.payload);
      if (state_ == SessionState::kClosed) return;  // handler closed us
      deliver_ready();
    }
  } else {
    if (it == partials_.end()) {
      it = partials_.emplace(view.seq, FragmentBuffer{}).first;
    }
    switch (it->second.add(view)) {
      case FragmentBuffer::Add::kComplete:
        ready_.emplace(view.seq, std::move(it->second).take());
        partials_.erase(it);
        deliver_ready();
        break;
      case FragmentBuffer::Add::kIncomplete:
      case FragmentBuffer::Add::kDuplicate:
        break;
      case FragmentBuffer::Add::kMismatch:
        ++counters_.reassembly_failures;
        ++counters_.datagrams_dropped;
        break;
    }
  }
  if (state_ == SessionState::kClosed) return;  // a frame handler closed us
  send_ack();
}

void Session::deliver_ready() {
  // Release strictly in sequence order so the node sees the exact frame
  // stream the sender's protocol logic produced.
  for (auto it = ready_.find(next_recv_seq_); it != ready_.end();
       it = ready_.find(next_recv_seq_)) {
    std::vector<std::uint8_t> frame = std::move(it->second);
    ready_.erase(it);
    ++next_recv_seq_;
    ++counters_.frames_received;
    if (on_frame_) on_frame_(frame);
    if (state_ == SessionState::kClosed) return;  // handler closed us
  }
}

void Session::on_ack(const DatagramView& view) {
  // Cumulative: every frame below ack_next is delivered.
  const auto acked = std::find_if(
      unacked_.begin(), unacked_.end(),
      [&](const SendEntry& e) { return e.seq >= view.ack_next; });
  if (acked == unacked_.begin()) return;
  unacked_.erase(unacked_.begin(), acked);
  retries_ = 0;
  rto_current_ = config_.rto_initial;
  if (unacked_.empty()) {
    disarm_rto();
  } else {
    arm_rto();
  }
}

void Session::close() {
  if (state_ == SessionState::kClosing || state_ == SessionState::kClosed) {
    return;
  }
  state_ = SessionState::kClosing;
  // The contact is over: pending retransmissions would only prolong the
  // goodbye, so the FIN takes over the retry budget.
  unacked_.clear();
  retries_ = 0;
  rto_current_ = config_.rto_initial;
  send_fin(/*is_ack=*/false);
  arm_rto();
}

void Session::abort(SessionCloseReason reason) {
  if (state_ == SessionState::kClosed) return;
  enter_closed(reason);
}

void Session::enter_closed(SessionCloseReason reason) {
  disarm_rto();
  state_ = SessionState::kClosed;
  reason_ = reason;
  unacked_.clear();
  partials_.clear();
  ready_.clear();
  if (on_closed_) on_closed_(reason);
}

}  // namespace bsub::net
