#include "net/fleet/fleet_runtime.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "net/loopback.h"
#include "sim/event_stream.h"
#include "sim/link.h"
#include "util/errors.h"

namespace bsub::net {

namespace {

double elapsed_seconds(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       since)
      .count();
}

double percentile(const std::vector<std::int64_t>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return static_cast<double>(sorted[std::min(idx, sorted.size() - 1)]);
}

}  // namespace

FleetConfig fleet_config_from_spec(std::string_view protocol_spec,
                                   FleetConfig base) {
  const engine::LiveConfig live = engine::live_config_from_spec(protocol_spec);
  base.runtime.node = live.node;
  base.election = live.election;
  return base;
}

// ---------------------------------------------------------------------------
// Loopback lanes

/// One worker thread's private virtual-time world. Contacts executed on the
/// lane are independent episodes: the clock is reset and the reactor rebased
/// to each contact's start (legal because decay ticks are disabled and
/// sessions disarm their timers at teardown, so nothing is pending between
/// contacts).
struct FleetRuntime::Lane {
  ManualClock clock;
  Reactor reactor;
  LoopbackHub hub;
  /// Hub attachments are permanent (LoopbackHub::attach rejects
  /// duplicates), so remember which node ids this lane has seen.
  std::unordered_map<std::uint32_t, LoopbackTransport*> ports;

  explicit Lane(std::size_t mtu)
      : clock(0), reactor(clock), hub(LoopbackHub::Config{.mtu = mtu}) {}

  LoopbackTransport& port(std::uint32_t node) {
    auto it = ports.find(node);
    if (it != ports.end()) return *it->second;
    LoopbackTransport& t = hub.attach(node);
    ports.emplace(node, &t);
    return t;
  }
};

// ---------------------------------------------------------------------------
// UDP shards

struct FleetRuntime::Command {
  enum class Kind : std::uint8_t { kContact, kRole, kPublish };
  Kind kind = Kind::kContact;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  bool a_broker = false;
  bool b_broker = false;
  std::uint32_t message_index = 0;
};

/// One reactor thread of the real-time engine: its reactor + UDP slice,
/// its command inbox (driver -> shard, woken through a pipe so commands
/// interrupt the fd wait), and the per-contact liveness timers for contacts
/// this shard initiated.
struct FleetRuntime::Shard {
  std::size_t index;
  Reactor reactor;
  FleetUdpShard io;
  int wake_read = -1;
  int wake_write = -1;

  std::mutex mu;
  std::vector<Command> inbox;
  std::vector<Command> draining;
  std::atomic<bool> stop{false};
  std::thread thread;

  struct Live {
    Reactor::TimerId idle = TimerQueue::kInvalidTimer;
    Reactor::TimerId timeout = TimerQueue::kInvalidTimer;
    bool closing = false;
  };
  /// Keyed by contact_key(initiator, peer); only initiator-side closes
  /// complete a contact.
  std::unordered_map<std::uint64_t, Live> live;
  std::vector<std::int64_t> latency_ms;

  Shard(std::size_t idx, std::size_t count, Clock& clock,
        const FleetUdpConfig& udp)
      : index(idx), reactor(clock), io(reactor, idx, count, udp) {
    int fds[2];
    if (::pipe(fds) != 0) {
      throw std::runtime_error("FleetRuntime: pipe() failed: " +
                               std::string(std::strerror(errno)));
    }
    wake_read = fds[0];
    wake_write = fds[1];
    ::fcntl(wake_read, F_SETFL, O_NONBLOCK);
    ::fcntl(wake_write, F_SETFL, O_NONBLOCK);
  }

  ~Shard() {
    if (wake_read >= 0) ::close(wake_read);
    if (wake_write >= 0) ::close(wake_write);
  }
};

// ---------------------------------------------------------------------------

FleetRuntime::FleetRuntime(FleetConfig config) : config_(std::move(config)) {
  if (config_.shards == 0) config_.shards = 1;
}

FleetRuntime::~FleetRuntime() {
  // Nodes must detach before lanes/shards die (members are declared so that
  // nodes_ destructs first, but an explicit unbind keeps the intent clear).
  for (auto& n : nodes_) {
    if (n) n->unbind();
  }
}

void FleetRuntime::require_unused() {
  if (ran_) {
    throw std::logic_error("FleetRuntime: run may be called once");
  }
  ran_ = true;
}

const engine::BsubNode& FleetRuntime::node(trace::NodeId id) const {
  if (id >= nodes_.size()) {
    throw std::out_of_range("FleetRuntime: unknown node");
  }
  return nodes_[id]->node();
}

void FleetRuntime::make_nodes(std::size_t node_count,
                              const workload::Workload& workload) {
  nodes_.reserve(node_count);
  for (trace::NodeId n = 0; n < node_count; ++n) {
    nodes_.push_back(
        std::make_unique<NodeRuntime>(n, config_.runtime, counters_));
    engine::subscribe_interests(nodes_.back()->node(), workload, n);
  }
  election_ =
      std::make_unique<core::BrokerElection>(node_count, config_.election);
}

// ---------------------------------------------------------------------------
// Deterministic loopback engine

FleetRuntime::Lane& FleetRuntime::lane_for_thread() {
  // The token must be unique across FleetRuntime *instances*, not just
  // runs: a later runtime allocated at a recycled address must not revive
  // another run's thread-local lane pointer.
  thread_local std::uint64_t token = 0;
  thread_local Lane* lane = nullptr;
  if (token != run_token_ || lane == nullptr) {
    auto fresh = std::make_unique<Lane>(config_.runtime.session.mtu);
    lane = fresh.get();
    {
      std::lock_guard<std::mutex> lock(lanes_mu_);
      lanes_.push_back(std::move(fresh));
    }
    token = run_token_;
  }
  return *lane;
}

void FleetRuntime::pump_lane(Lane& lane, NodeRuntime& a, NodeRuntime& b,
                             util::Time cap) {
  for (;;) {
    lane.hub.deliver_all();
    if (a.all_sessions_idle() && b.all_sessions_idle() && lane.hub.idle()) {
      return;
    }
    const util::Time next = lane.reactor.next_deadline();
    if (next == util::kTimeMax || next > cap) return;
    lane.reactor.advance_to(lane.clock, next);
  }
}

void FleetRuntime::exec_loopback_contact(Lane& lane, const trace::Contact& c) {
  // A fresh virtual-time episode at the contact's start instant. The global
  // event order only guarantees per-node monotonicity, so the lane clock may
  // have to travel backwards between contacts — reset() + rebase() instead
  // of set().
  lane.clock.reset(c.start);
  lane.reactor.rebase(c.start);

  // Election only mutates the two endpoints' state — safe inside a
  // conflict batch, exactly like TraceRunner.
  election_->on_contact(c.a, c.b, c.start);
  NodeRuntime& a = *nodes_[c.a];
  NodeRuntime& b = *nodes_[c.b];
  a.node().set_broker(election_->is_broker(c.a));
  b.node().set_broker(election_->is_broker(c.b));

  a.bind(lane.port(c.a), lane.reactor);
  b.bind(lane.port(c.b), lane.reactor);

  // One shared byte budget, charged frame-by-frame by the two sessions in
  // the same order the engine harness charges its FIFO.
  auto budget = std::make_shared<sim::Link>(c.duration(),
                                            config_.bandwidth_bytes_per_second);
  a.connect(c.b, budget);
  b.connect(c.a, budget);

  const util::Time contact_end = c.start + c.duration();
  pump_lane(lane, a, b, contact_end);

  // Goodbye handshake; whatever survives the window is torn down as lost.
  a.close(c.b);
  b.close(c.a);
  for (;;) {
    lane.hub.deliver_all();
    if (!a.has_session(c.b) && !b.has_session(c.a)) break;
    const util::Time next = lane.reactor.next_deadline();
    if (next == util::kTimeMax || next > contact_end) {
      a.abort(c.b);
      b.abort(c.a);
      break;
    }
    lane.reactor.advance_to(lane.clock, next);
  }
  lane.hub.deliver_all();  // FIN_ACKs that outlived their sessions

  a.unbind();
  b.unbind();

  contacts_processed_.fetch_add(1, std::memory_order_relaxed);
  bytes_used_.fetch_add(budget->used_bytes(), std::memory_order_relaxed);
}

void FleetRuntime::exec_loopback_event(const sim::ScenarioEvent& e,
                                       const workload::Workload& workload) {
  if (e.is_message) {
    const workload::Message& m = workload.messages()[e.message_index];
    nodes_[m.producer]->node().publish(
        engine::content_message(workload, m, m.created), m.created);
    return;
  }
  exec_loopback_contact(lane_for_thread(), e.contact);
}

FleetRunResults FleetRuntime::run_loopback(trace::ContactStream& contacts,
                                          const workload::Workload& workload) {
  require_unused();
  if (config_.runtime.decay_tick != 0) {
    throw util::ConfigError(
        "fleet loopback lanes require decay_tick = 0",
        "fleet.decay_tick",
        "lanes have no timeline between contacts; decay stays lazy");
  }
  sim::ScenarioEventStream events(contacts, workload);
  const std::size_t node_count = events.node_count();
  make_nodes(node_count, workload);
  deliveries_ = engine::DeliveryLog(node_count);
  for (trace::NodeId n = 0; n < node_count; ++n) {
    deliveries_.attach(nodes_[n]->node(), n);
  }

  static std::atomic<std::uint64_t> run_sequence{0};
  run_token_ = run_sequence.fetch_add(1, std::memory_order_relaxed) + 1;
  const auto wall_start = std::chrono::steady_clock::now();

  sim::ParallelRunConfig pcfg;
  pcfg.threads = config_.threads;
  pcfg.window_events = config_.window_events;
  pcfg.min_batch_fanout = config_.min_batch_fanout;

  FleetRunResults results;
  results.exec =
      sim::replay_scenario(events, pcfg, [&](const sim::ScenarioEvent& e) {
        exec_loopback_event(e, workload);
      }).exec;

  results.wall_seconds = elapsed_seconds(wall_start);
  results.nodes = node_count;
  results.reactor_threads = results.exec.threads_used;

  results.protocol.contacts_processed = contacts_processed_.load();
  results.protocol.bytes_used = bytes_used_.load();
  results.transport = counters_.snapshot();
  results.protocol.frames_delivered = results.transport.frames_received;
  results.protocol.frames_dropped = results.transport.frames_dropped;

  deliveries_.summarize(workload, results.protocol);
  if (results.wall_seconds > 0) {
    results.contacts_per_second =
        static_cast<double>(results.protocol.contacts_processed) /
        results.wall_seconds;
    results.deliveries_per_second =
        static_cast<double>(results.protocol.deliveries) /
        results.wall_seconds;
  }
  return results;
}

// ---------------------------------------------------------------------------
// Real-time UDP engine

void FleetRuntime::post(Shard& shard, const Command& cmd) {
  bool was_empty = false;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    was_empty = shard.inbox.empty();
    shard.inbox.push_back(cmd);
  }
  if (was_empty) {
    const char byte = 1;
    // Nonblocking: a full pipe already guarantees a pending wakeup.
    (void)!::write(shard.wake_write, &byte, 1);
  }
}

void FleetRuntime::drain_inbox(Shard& shard) {
  char buf[64];
  while (::read(shard.wake_read, buf, sizeof(buf)) > 0) {
  }
  shard.draining.clear();
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.draining.swap(shard.inbox);
  }
  for (const Command& cmd : shard.draining) {
    exec_command(shard, cmd, *workload_);
  }
}

void FleetRuntime::complete_contact(Shard& shard, std::uint64_t key) {
  auto it = shard.live.find(key);
  if (it == shard.live.end()) return;
  shard.reactor.cancel(it->second.idle);
  shard.reactor.cancel(it->second.timeout);
  shard.live.erase(it);
  completed_.fetch_add(1, std::memory_order_release);
}

void FleetRuntime::arm_idle_check(Shard& shard, std::uint32_t a,
                                  std::uint32_t b) {
  auto it = shard.live.find(contact_key(a, b));
  if (it == shard.live.end()) return;
  it->second.idle =
      shard.reactor.schedule_after(config_.idle_check_period, [this, &shard,
                                                               a, b] {
        auto lit = shard.live.find(contact_key(a, b));
        if (lit == shard.live.end()) return;
        lit->second.idle = TimerQueue::kInvalidTimer;
        Session* sess = nodes_[a]->session(b);
        if (sess == nullptr) {
          // Session vanished without our close (peer-driven teardown);
          // treat the contact as done.
          complete_contact(shard, contact_key(a, b));
          return;
        }
        if (!lit->second.closing && sess->idle()) {
          lit->second.closing = true;
          nodes_[a]->close(b);
        }
        arm_idle_check(shard, a, b);  // keep polling until it closes
      });
}

void FleetRuntime::exec_command(Shard& shard, const Command& cmd,
                                const workload::Workload& workload) {
  switch (cmd.kind) {
    case Command::Kind::kRole:
      nodes_[cmd.b]->node().set_broker(cmd.b_broker);
      return;
    case Command::Kind::kPublish: {
      const workload::Message& m = workload.messages()[cmd.message_index];
      // Real-time runs live on the shared steady clock, not trace time;
      // workload TTLs (hours) comfortably outlast the run.
      const util::Time now = shard.reactor.now();
      publish_ms_[cmd.message_index].store(now, std::memory_order_relaxed);
      nodes_[m.producer]->node().publish(
          engine::content_message(workload, m, now), now);
      return;
    }
    case Command::Kind::kContact:
      break;
  }

  const std::uint64_t key = contact_key(cmd.a, cmd.b);
  if (cmd.a == cmd.b || shard.live.contains(key)) {
    // Degenerate or still-running duplicate: keep the issued/completed
    // accounting balanced and let the live contact finish on its own.
    completed_.fetch_add(1, std::memory_order_release);
    return;
  }
  nodes_[cmd.a]->node().set_broker(cmd.a_broker);
  if (shard_of(cmd.b) == shard.index) {
    nodes_[cmd.b]->node().set_broker(cmd.b_broker);
  }
  nodes_[cmd.a]->connect(cmd.b);

  Shard::Live live;
  shard.live.emplace(key, live);
  arm_idle_check(shard, cmd.a, cmd.b);
  auto it = shard.live.find(key);
  it->second.timeout =
      shard.reactor.schedule_after(config_.contact_timeout, [this, &shard,
                                                             key, cmd] {
        auto lit = shard.live.find(key);
        if (lit == shard.live.end()) return;
        lit->second.timeout = TimerQueue::kInvalidTimer;
        timed_out_.fetch_add(1, std::memory_order_relaxed);
        // abort() fires the closed handler, which completes the contact.
        nodes_[cmd.a]->abort(cmd.b);
      });
}

FleetRunResults FleetRuntime::run_udp(trace::ContactStream& contacts,
                                      const workload::Workload& workload) {
  require_unused();
  config_.udp.validate();
  if (config_.udp.mtu < config_.runtime.session.mtu) {
    throw util::ConfigError(
        "fleet UDP mtu smaller than the session datagram size",
        "fleet.udp.mtu", "raise udp.mtu or lower session.mtu");
  }
  // Shard s binds base_port + s; past 65535 the port would wrap and the
  // shard would land on an ephemeral port no peer routes to, and port 0
  // asks for ephemeral ports outright.
  if (config_.udp.base_port == 0 ||
      config_.udp.base_port + config_.shards - 1 > 65535) {
    throw util::ConfigError(
        "fleet UDP shard ports out of range", "fleet.udp.base_port",
        "base_port >= 1 and base_port + shards - 1 <= 65535");
  }
  sim::ScenarioEventStream events(contacts, workload);
  const std::size_t node_count = events.node_count();
  make_nodes(node_count, workload);
  workload_ = &workload;

  const auto& messages = workload.messages();
  publish_ms_ = std::make_unique<std::atomic<std::int64_t>[]>(
      std::max<std::size_t>(messages.size(), 1));
  for (std::size_t i = 0; i < messages.size(); ++i) {
    publish_ms_[i].store(-1, std::memory_order_relaxed);
  }

  // One steady clock shared by every shard reactor, so publish and delivery
  // instants are comparable across shards.
  SteadyClock clock;
  shards_.reserve(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s) {
    shards_.push_back(
        std::make_unique<Shard>(s, config_.shards, clock, config_.udp));
  }

  // Attach every node to its home shard and wire the real-time hooks. All
  // of this happens before the shard threads start, so it needs no locks.
  for (trace::NodeId n = 0; n < node_count; ++n) {
    Shard& home = *shards_[shard_of(n)];
    FleetPort& port = home.io.add_node(n);
    nodes_[n]->bind(port, home.reactor);
    nodes_[n]->set_session_closed_handler(
        [this, &home, n](Endpoint peer, SessionCloseReason) {
          complete_contact(home,
                           contact_key(n, static_cast<std::uint32_t>(peer)));
        });
    nodes_[n]->node().set_delivery_handler(
        [this, &home](const engine::ContentMessage& msg, util::Time at) {
          live_deliveries_.fetch_add(1, std::memory_order_relaxed);
          // Workload ids are dense, but this one arrived off the wire.
          if (msg.id >= workload_->messages().size()) return;
          const std::int64_t sent =
              publish_ms_[msg.id].load(std::memory_order_relaxed);
          if (sent >= 0) home.latency_ms.push_back(at - sent);
        });
  }

  for (auto& shard : shards_) {
    Shard* s = shard.get();
    s->reactor.add_fd(s->wake_read, [this, s] { drain_inbox(*s); });
    s->thread = std::thread([this, s] {
      while (!s->stop.load(std::memory_order_acquire)) {
        s->reactor.run_once(2 * util::kMillisecond);
        s->io.flush();
      }
    });
  }

  // Driver: replay the merged scenario as fast as the in-flight window
  // allows. The scenario's virtual timestamps only order events; pacing is
  // real ("as fast as the fleet can absorb").
  const auto wall_start = std::chrono::steady_clock::now();
  sim::ScenarioEvent e;
  while (events.next(e)) {
    if (e.is_message) {
      const workload::Message& m = messages[e.message_index];
      Command cmd;
      cmd.kind = Command::Kind::kPublish;
      cmd.message_index = e.message_index;
      post(*shards_[shard_of(m.producer)], cmd);
      continue;
    }
    const trace::Contact& c = e.contact;
    election_->on_contact(c.a, c.b, c.start);
    const bool a_broker = election_->is_broker(c.a);
    const bool b_broker = election_->is_broker(c.b);
    if (shard_of(c.b) != shard_of(c.a)) {
      Command role;
      role.kind = Command::Kind::kRole;
      role.b = c.b;
      role.b_broker = b_broker;
      post(*shards_[shard_of(c.b)], role);
    }
    Command cmd;
    cmd.kind = Command::Kind::kContact;
    cmd.a = c.a;
    cmd.b = c.b;
    cmd.a_broker = a_broker;
    cmd.b_broker = b_broker;
    issued_.fetch_add(1, std::memory_order_relaxed);
    post(*shards_[shard_of(c.a)], cmd);

    while (issued_.load(std::memory_order_relaxed) -
               completed_.load(std::memory_order_acquire) >
           config_.max_inflight_contacts) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  // Drain: every issued contact completes by idle-close or hard timeout.
  // The extra margin covers command queues and scheduler stalls.
  const double drain_cap_seconds =
      util::to_seconds(config_.contact_timeout) + 30.0;
  const auto drain_start = std::chrono::steady_clock::now();
  while (completed_.load(std::memory_order_acquire) <
         issued_.load(std::memory_order_relaxed)) {
    if (elapsed_seconds(drain_start) > drain_cap_seconds) break;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  const double wall = elapsed_seconds(wall_start);

  for (auto& s : shards_) {
    s->stop.store(true, std::memory_order_release);
    const char byte = 1;
    (void)!::write(s->wake_write, &byte, 1);
  }
  for (auto& s : shards_) {
    if (s->thread.joinable()) s->thread.join();
  }
  for (auto& n : nodes_) n->unbind();

  FleetRunResults results;
  results.nodes = node_count;
  results.reactor_threads = config_.shards;
  results.wall_seconds = wall;
  results.contacts_timed_out = timed_out_.load();

  std::vector<std::int64_t> latencies;
  for (auto& s : shards_) {
    latencies.insert(latencies.end(), s->latency_ms.begin(),
                     s->latency_ms.end());
    results.send_syscalls += s->io.send_syscalls();
    results.recv_syscalls += s->io.recv_syscalls();
    results.datagrams_out += s->io.datagrams_out();
    results.datagrams_in += s->io.datagrams_in();
    results.sendq_drops += s->io.sendq_drops();
    results.unroutable_drops += s->io.unroutable_drops();
  }
  std::sort(latencies.begin(), latencies.end());
  results.p50_delivery_latency_ms = percentile(latencies, 0.50);
  results.p99_delivery_latency_ms = percentile(latencies, 0.99);

  results.transport = counters_.snapshot();
  results.protocol.contacts_processed = completed_.load();
  results.protocol.frames_delivered = results.transport.frames_received;
  results.protocol.frames_dropped = results.transport.frames_dropped;
  results.protocol.deliveries = live_deliveries_.load();
  results.protocol.expected_deliveries = workload.expected_deliveries();
  if (results.protocol.expected_deliveries > 0) {
    results.protocol.delivery_ratio =
        static_cast<double>(results.protocol.deliveries) /
        static_cast<double>(results.protocol.expected_deliveries);
  }
  if (!latencies.empty()) {
    double sum = 0.0;
    for (std::int64_t v : latencies) sum += static_cast<double>(v);
    results.protocol.mean_delay_minutes = util::to_minutes(
        static_cast<util::Time>(sum / static_cast<double>(latencies.size())));
  }
  if (wall > 0) {
    results.contacts_per_second =
        static_cast<double>(results.protocol.contacts_processed) / wall;
    results.deliveries_per_second =
        static_cast<double>(results.protocol.deliveries) / wall;
  }
  return results;
}

}  // namespace bsub::net
