// One live B-SUB endpoint: an engine::BsubNode wired to a datagram
// transport through contact sessions, driven by a reactor.
//
// The runtime is the glue layer every live substrate shares — the
// bsub_node daemon and both FleetRuntime engines:
//
//   - outbound: connect(peer) opens a Session and feeds it the node's
//     begin_contact() frames (the B-SUB HELLO);
//   - inbound: datagrams are routed to the peer's session (created
//     passively on first contact — the passive side also emits its own
//     HELLO, as the encounter protocol requires); each reassembled frame
//     goes through BsubNode::handle(), and the response frames go straight
//     back out on the same session;
//   - timers: a periodic decay tick drives TCBF decay and expiry purging
//     through the reactor's timer queue, so a daemon idling between
//     contacts keeps its filters honest.
//
// The node's persistent state (the BsubNode and its session-epoch counter)
// outlives any one attachment; the transport, the reactor and the transport
// counters its sessions bump are attached explicitly:
//
//   bind(transport, reactor,   claim the transport's receive upcall, start
//        counters)             the decay tick (if configured);
//   unbind()                   abort any leftover sessions, release the
//                              transport.
//
// A daemon or a UDP shard binds once and stays bound; a deterministic
// loopback lane binds a node for exactly one contact (decay_tick must be 0
// there — lanes have no timeline between contacts). Counters belong to
// whoever drives the reactor (a lane, a shard, a daemon), so concurrent
// lanes never share a counter's cache line.
//
// All calls must come from the bound reactor's thread; the runtime needs no
// locks.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "engine/node.h"
#include "metrics/collector.h"
#include "net/reactor.h"
#include "net/session.h"
#include "net/transport.h"

namespace bsub::net {

struct RuntimeConfig {
  engine::NodeConfig node;  ///< protocol constants (filters, C, DF, copies)
  SessionConfig session;
  /// Period of the TCBF decay / expiry-purge tick; 0 disables it.
  util::Time decay_tick = util::kMinute;
};

class NodeRuntime {
 public:
  using SessionClosedHandler =
      std::function<void(Endpoint peer, SessionCloseReason)>;

  NodeRuntime(engine::NodeId id, const RuntimeConfig& config);
  ~NodeRuntime();

  NodeRuntime(const NodeRuntime&) = delete;
  NodeRuntime& operator=(const NodeRuntime&) = delete;

  engine::BsubNode& node() { return node_; }
  const engine::BsubNode& node() const { return node_; }
  /// Valid while bound.
  Endpoint endpoint() const { return transport_->local_endpoint(); }

  /// Attaches the node: claims `transport`'s receive handler and arms the
  /// decay tick (if configured); its sessions count into `counters`. All
  /// three must outlive the binding.
  void bind(Transport& transport, Reactor& reactor,
            metrics::TransportCounters& counters);

  /// Detaches: aborts any session still alive (no datagrams are sent — close
  /// gracefully first), disarms timers, releases the transport. Idempotent.
  void unbind();

  bool bound() const { return transport_ != nullptr; }

  /// Opens a contact session toward `peer` and sends this node's HELLO.
  /// `budget` (optional) is the shared contact byte budget; it must outlive
  /// the session. No-op if a session to the peer is already live.
  Session& connect(Endpoint peer, sim::Link* budget = nullptr);

  /// Graceful FIN teardown of the session to `peer` (no-op if none).
  void close(Endpoint peer);
  /// Immediate teardown without datagrams.
  void abort(Endpoint peer);
  /// Graceful teardown of every live session (shutdown).
  void close_all();

  bool has_session(Endpoint peer) const {
    return sessions_.contains(peer);
  }
  Session* session(Endpoint peer);
  std::size_t session_count() const { return sessions_.size(); }

  /// True when no session has frames in flight (a contact's quiescence
  /// test).
  bool all_sessions_idle() const;

  void set_session_closed_handler(SessionClosedHandler handler) {
    on_session_closed_ = std::move(handler);
  }

  /// Feeds one raw datagram addressed to this node (the bound transport's
  /// receive upcall). An unknown peer's first DATA datagram opens a session
  /// passively; any other well-formed datagram from an unknown peer (a
  /// FIN_ACK that outlived its session, a stranger's ACK) is counted as
  /// received and ignored, and garbage is counted as dropped.
  void on_datagram(Endpoint from, std::span<const std::uint8_t> bytes);

 private:
  Session& make_session(Endpoint peer, sim::Link* budget);
  /// Offers the node's frames on `s`, in order.
  static void offer_all(Session& s, engine::Frames frames);
  void arm_decay_tick();

  engine::BsubNode node_;
  RuntimeConfig config_;
  metrics::TransportCounters* counters_ = nullptr;
  Transport* transport_ = nullptr;
  Reactor* reactor_ = nullptr;
  std::map<Endpoint, std::unique_ptr<Session>> sessions_;
  /// Sessions whose close handler already fired, awaiting safe destruction
  /// (a session must not be deleted while its own callback is on the
  /// stack); drained at the next runtime entry point.
  std::vector<std::unique_ptr<Session>> graveyard_;
  SessionClosedHandler on_session_closed_;
  Reactor::TimerId decay_timer_ = TimerQueue::kInvalidTimer;
  std::uint32_t next_epoch_ = 0;  ///< session incarnations, node-lifetime
};

}  // namespace bsub::net
