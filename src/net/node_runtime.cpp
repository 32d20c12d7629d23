#include "net/node_runtime.h"

#include <cassert>

namespace bsub::net {

NodeRuntime::NodeRuntime(engine::NodeId id, const RuntimeConfig& config,
                         metrics::TransportCounters& counters)
    : node_(id, config.node), config_(config), counters_(counters) {}

NodeRuntime::~NodeRuntime() { unbind(); }

void NodeRuntime::bind(Transport& transport, Reactor& reactor) {
  assert(transport_ == nullptr && "bind() while already bound");
  transport_ = &transport;
  reactor_ = &reactor;
  transport_->set_receive_handler(
      [this](Endpoint from, std::span<const std::uint8_t> bytes) {
        on_datagram(from, bytes);
      });
  if (config_.decay_tick > 0) arm_decay_tick();
}

void NodeRuntime::unbind() {
  if (transport_ == nullptr) return;
  if (decay_timer_ != TimerQueue::kInvalidTimer) {
    reactor_->cancel(decay_timer_);
    decay_timer_ = TimerQueue::kInvalidTimer;
  }
  // Anything still alive is torn down locally; graceful closes are the
  // caller's job before it unbinds.
  while (!sessions_.empty()) {
    sessions_.begin()->second->abort(SessionCloseReason::kPeerLost);
  }
  graveyard_.clear();
  transport_->set_receive_handler({});
  transport_ = nullptr;
  reactor_ = nullptr;
}

void NodeRuntime::arm_decay_tick() {
  decay_timer_ = reactor_->schedule_after(config_.decay_tick, [this] {
    node_.decay_tick(reactor_->now());
    arm_decay_tick();
  });
}

Session& NodeRuntime::make_session(Endpoint peer,
                                   std::shared_ptr<sim::Link> budget) {
  // Epoch 0 means "unknown" on the receive side, so incarnations start at 1
  // and grow for the node's lifetime (across rebinds): a later contact with
  // the same peer outranks any straggler datagrams from an earlier one.
  const std::uint32_t epoch = ++next_epoch_;
  auto session = std::make_unique<Session>(peer, epoch, config_.session,
                                           *transport_, *reactor_, counters_);
  Session* raw = session.get();
  raw->set_budget(std::move(budget));
  raw->set_frame_handler([this, raw](std::span<const std::uint8_t> frame) {
    // The node consumes the frame and answers on the same session; the
    // response frames are the protocol's next step (filters, data,
    // custody acks).
    for (auto& response : node_.handle(frame, reactor_->now())) {
      raw->offer(response);
    }
  });
  raw->set_closed_handler([this, peer](SessionCloseReason reason) {
    auto it = sessions_.find(peer);
    if (it != sessions_.end()) {
      graveyard_.push_back(std::move(it->second));
      sessions_.erase(it);
    }
    if (on_session_closed_) on_session_closed_(peer, reason);
  });
  auto [it, inserted] = sessions_.emplace(peer, std::move(session));
  (void)inserted;  // caller guarantees no live session for `peer`
  return *it->second;
}

Session& NodeRuntime::connect(Endpoint peer,
                              std::shared_ptr<sim::Link> budget) {
  assert(transport_ != nullptr && "connect() while unbound");
  graveyard_.clear();
  if (auto it = sessions_.find(peer); it != sessions_.end()) {
    return *it->second;
  }
  Session& s = make_session(peer, std::move(budget));
  for (auto& frame : node_.begin_contact(reactor_->now())) {
    s.offer(frame);
  }
  return s;
}

void NodeRuntime::on_datagram(Endpoint from,
                              std::span<const std::uint8_t> bytes) {
  if (transport_ == nullptr) return;  // datagram raced an unbind
  graveyard_.clear();
  auto it = sessions_.find(from);
  if (it != sessions_.end()) {
    it->second->on_datagram(bytes);
    return;
  }
  // Passive open: only a DATA datagram may create state. A well-formed
  // ACK/FIN/FIN_ACK from an unknown peer is normal after a simultaneous
  // close (each side's FIN_ACK outlives the session it answers), so it is
  // received and ignored; garbage is dropped. Neither allocates.
  DatagramKind kind;
  try {
    kind = parse_datagram(bytes).kind;
  } catch (const util::CodecError&) {
    ++counters_.datagrams_received;
    ++counters_.datagrams_dropped;
    return;
  }
  if (kind != DatagramKind::kData) {
    ++counters_.datagrams_received;
    return;
  }
  // The encounter is symmetric: the passive side says HELLO too.
  Session& s = make_session(from, nullptr);
  for (auto& frame : node_.begin_contact(reactor_->now())) {
    s.offer(frame);
  }
  s.on_datagram(bytes);
}

Session* NodeRuntime::session(Endpoint peer) {
  auto it = sessions_.find(peer);
  return it == sessions_.end() ? nullptr : it->second.get();
}

void NodeRuntime::close(Endpoint peer) {
  graveyard_.clear();
  if (auto it = sessions_.find(peer); it != sessions_.end()) {
    it->second->close();
  }
}

void NodeRuntime::abort(Endpoint peer) {
  graveyard_.clear();
  if (auto it = sessions_.find(peer); it != sessions_.end()) {
    it->second->abort(SessionCloseReason::kPeerLost);
  }
}

void NodeRuntime::close_all() {
  graveyard_.clear();
  // close() mutates sessions_ via the closed handler only after FIN_ACK,
  // but be defensive: snapshot the peers first.
  std::vector<Endpoint> peers;
  peers.reserve(sessions_.size());
  for (const auto& [peer, s] : sessions_) peers.push_back(peer);
  for (Endpoint p : peers) close(p);
}

bool NodeRuntime::all_sessions_idle() const {
  for (const auto& [peer, s] : sessions_) {
    if (!s->idle()) return false;
  }
  return true;
}

}  // namespace bsub::net
