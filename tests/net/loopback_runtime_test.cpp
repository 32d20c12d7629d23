// NodeRuntime over the loopback hub: a full B-SUB encounter (HELLO, filter
// exchange, message transfer) through real sessions, passive opens, decay
// ticks, and teardown.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "engine/node.h"
#include "metrics/collector.h"
#include "net/clock.h"
#include "net/loopback.h"
#include "net/node_runtime.h"
#include "net/reactor.h"
#include "util/time.h"

namespace bsub::net {
namespace {

struct Mesh {
  explicit Mesh(std::size_t nodes, RuntimeConfig config = {}) {
    reactor = std::make_unique<Reactor>(clock);
    hub = std::make_unique<LoopbackHub>();
    for (std::size_t n = 0; n < nodes; ++n) {
      runtimes.push_back(std::make_unique<NodeRuntime>(n, config));
      runtimes.back()->bind(hub->attach(n), *reactor, counters);
    }
  }

  ManualClock clock;
  metrics::TransportCounters counters;
  std::unique_ptr<Reactor> reactor;
  std::unique_ptr<LoopbackHub> hub;
  std::vector<std::unique_ptr<NodeRuntime>> runtimes;
};

engine::ContentMessage message(std::uint64_t id, const std::string& key,
                               util::Time now) {
  engine::ContentMessage m;
  m.id = id;
  m.key = key;
  m.body = {1, 2, 3};
  m.created = now;
  m.ttl = util::kHour;
  return m;
}

TEST(NodeRuntime, ContactDeliversPublishedMessage) {
  Mesh mesh(2);
  std::vector<std::uint64_t> delivered;
  mesh.runtimes[1]->node().subscribe("news");
  mesh.runtimes[1]->node().set_delivery_handler(
      [&](const engine::ContentMessage& m, util::Time) {
        delivered.push_back(m.id);
      });
  mesh.runtimes[0]->node().publish(message(42, "news", 0), 0);

  mesh.runtimes[0]->connect(1);
  mesh.hub->deliver_all();

  EXPECT_EQ(delivered, (std::vector<std::uint64_t>{42}));
  // The passive side opened its own session and said HELLO back.
  EXPECT_TRUE(mesh.runtimes[1]->has_session(0));
  EXPECT_EQ(mesh.counters.session_opens.load(), 2u);
}

TEST(NodeRuntime, CloseTearsDownBothSides) {
  Mesh mesh(2);
  mesh.runtimes[0]->connect(1);
  mesh.hub->deliver_all();
  ASSERT_TRUE(mesh.runtimes[0]->has_session(1));
  ASSERT_TRUE(mesh.runtimes[1]->has_session(0));

  std::vector<std::pair<Endpoint, SessionCloseReason>> closed;
  mesh.runtimes[0]->set_session_closed_handler(
      [&](Endpoint peer, SessionCloseReason r) {
        closed.push_back({peer, r});
      });
  mesh.runtimes[0]->close_all();
  mesh.hub->deliver_all();
  EXPECT_FALSE(mesh.runtimes[0]->has_session(1));
  EXPECT_FALSE(mesh.runtimes[1]->has_session(0));
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].first, Endpoint{1});
  EXPECT_EQ(closed[0].second, SessionCloseReason::kLocalClose);
  EXPECT_TRUE(mesh.runtimes[0]->all_sessions_idle());
}

TEST(NodeRuntime, RepeatContactsUseFreshEpochs) {
  Mesh mesh(2);
  Session& first = mesh.runtimes[0]->connect(1);
  const std::uint32_t epoch1 = first.local_epoch();
  mesh.hub->deliver_all();
  mesh.runtimes[0]->close_all();
  mesh.runtimes[1]->close_all();
  mesh.hub->deliver_all();

  Session& second = mesh.runtimes[0]->connect(1);
  EXPECT_GT(second.local_epoch(), epoch1);
}

TEST(NodeRuntime, DecayTickPurgesExpiredMessages) {
  RuntimeConfig config;
  config.decay_tick = util::kMinute;
  Mesh mesh(1, config);
  engine::ContentMessage m = message(7, "news", 0);
  m.ttl = 2 * util::kMinute;
  mesh.runtimes[0]->node().publish(std::move(m), 0);
  EXPECT_EQ(mesh.runtimes[0]->node().produced_count(), 1u);

  mesh.reactor->advance_to(mesh.clock, 3 * util::kMinute);
  EXPECT_EQ(mesh.runtimes[0]->node().produced_count(), 0u);
}

TEST(NodeRuntime, GarbageDatagramDoesNotOpenSession) {
  Mesh mesh(2);
  LoopbackTransport& rogue = mesh.hub->attach(99);
  const std::vector<std::uint8_t> garbage = {0xDE, 0xAD, 0xBE, 0xEF};
  ASSERT_TRUE(rogue.send(0, garbage));
  // A well-formed non-DATA datagram from a stranger opens nothing either,
  // but it is received, not dropped: after a simultaneous close each
  // side's FIN_ACK legitimately reaches a session that is already gone.
  std::vector<std::uint8_t> ack;
  encode_ack(1, 1, ack);
  ASSERT_TRUE(rogue.send(0, ack));
  mesh.hub->deliver_all();
  EXPECT_EQ(mesh.runtimes[0]->session_count(), 0u);
  EXPECT_EQ(mesh.counters.datagrams_received.load(), 2u);
  EXPECT_EQ(mesh.counters.datagrams_dropped.load(), 1u);
}

TEST(NodeRuntime, BrokerRelayPathMovesCustodyOverTransport) {
  // producer 0 -> broker 1 -> consumer 2, in two separate contacts: the
  // paper's store-and-forward relay riding real sessions.
  Mesh mesh(3);
  mesh.runtimes[1]->node().set_broker(true);
  std::vector<std::uint64_t> delivered;
  mesh.runtimes[2]->node().subscribe("news");
  mesh.runtimes[2]->node().set_delivery_handler(
      [&](const engine::ContentMessage& m, util::Time) {
        delivered.push_back(m.id);
      });

  mesh.runtimes[0]->node().publish(message(7, "news", 0), 0);

  // Contact A: producer meets broker; the genuine filter the broker learned
  // from an earlier consumer encounter is what routes pickup, so run the
  // consumer contact first.
  mesh.runtimes[2]->connect(1);
  mesh.hub->deliver_all();
  mesh.runtimes[2]->close(1);
  mesh.runtimes[1]->close(2);
  mesh.hub->deliver_all();

  mesh.runtimes[0]->connect(1);
  mesh.hub->deliver_all();
  EXPECT_GT(mesh.runtimes[1]->node().carried_count(), 0u);

  mesh.runtimes[0]->close(1);
  mesh.runtimes[1]->close(0);
  mesh.hub->deliver_all();

  // Contact B: broker meets consumer and hands the message over.
  mesh.runtimes[1]->connect(2);
  mesh.hub->deliver_all();
  EXPECT_EQ(delivered, (std::vector<std::uint64_t>{7}));
}

}  // namespace
}  // namespace bsub::net
