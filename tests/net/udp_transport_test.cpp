// Real-socket smoke tests: two UdpTransports on 127.0.0.1 ephemeral ports,
// raw datagram exchange and then a full B-SUB contact (NodeRuntime sessions
// end to end over actual UDP).
//
// Environments that forbid even loopback sockets make the constructor
// throw; those tests skip rather than fail.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "engine/node.h"
#include "metrics/collector.h"
#include "net/clock.h"
#include "net/node_runtime.h"
#include "net/reactor.h"
#include "net/udp.h"
#include "util/time.h"

namespace bsub::net {
namespace {

constexpr Endpoint kLoopbackAny = make_udp_endpoint(0x7F000001, 0);
constexpr util::Time kDeadline = 10 * util::kSecond;

TEST(UdpTransport, EndpointFormatting) {
  Endpoint ep = 0;
  ASSERT_TRUE(parse_udp_endpoint("127.0.0.1:9000", ep));
  EXPECT_EQ(endpoint_ipv4(ep), 0x7F000001u);
  EXPECT_EQ(endpoint_port(ep), 9000u);
  EXPECT_EQ(format_udp_endpoint(ep), "127.0.0.1:9000");
  EXPECT_FALSE(parse_udp_endpoint("not-an-endpoint", ep));
  EXPECT_FALSE(parse_udp_endpoint("127.0.0.1", ep));
  EXPECT_FALSE(parse_udp_endpoint("127.0.0.1:99999", ep));
}

TEST(UdpTransport, DatagramRoundtripOverLoopback) {
  SteadyClock clock;
  Reactor reactor(clock);
  std::unique_ptr<UdpTransport> a, b;
  try {
    a = std::make_unique<UdpTransport>(reactor, kLoopbackAny);
    b = std::make_unique<UdpTransport>(reactor, kLoopbackAny);
  } catch (const std::runtime_error& e) {
    GTEST_SKIP() << "no loopback sockets here: " << e.what();
  }
  ASSERT_NE(endpoint_port(a->local_endpoint()), 0u);
  ASSERT_NE(endpoint_port(b->local_endpoint()), 0u);

  std::optional<std::pair<Endpoint, std::vector<std::uint8_t>>> got;
  b->set_receive_handler([&](Endpoint from,
                             std::span<const std::uint8_t> bytes) {
    got = {from, std::vector<std::uint8_t>(bytes.begin(), bytes.end())};
    reactor.stop();
  });

  const std::vector<std::uint8_t> payload = {9, 8, 7, 6};
  ASSERT_TRUE(a->send(b->local_endpoint(), payload));
  // Oversize datagrams are refused locally, not truncated.
  EXPECT_FALSE(a->send(b->local_endpoint(),
                       std::vector<std::uint8_t>(a->max_datagram_bytes() + 1)));

  const util::Time start = clock.now();
  while (!reactor.stopped() && clock.now() - start < kDeadline) {
    reactor.run_once(50 * util::kMillisecond);
  }
  ASSERT_TRUE(got.has_value()) << "datagram never arrived";
  EXPECT_EQ(got->second, payload);
  EXPECT_EQ(got->first, a->local_endpoint());
}

TEST(UdpTransport, BsubContactDeliversEndToEnd) {
  // Publisher and subscriber as full NodeRuntimes over real sockets: the
  // acceptance smoke for the daemon's data path.
  SteadyClock clock;
  Reactor reactor(clock);
  std::unique_ptr<UdpTransport> ta, tb;
  try {
    ta = std::make_unique<UdpTransport>(reactor, kLoopbackAny);
    tb = std::make_unique<UdpTransport>(reactor, kLoopbackAny);
  } catch (const std::runtime_error& e) {
    GTEST_SKIP() << "no loopback sockets here: " << e.what();
  }

  metrics::TransportCounters counters;
  RuntimeConfig config;
  config.decay_tick = 0;
  NodeRuntime publisher(1, config);
  NodeRuntime subscriber(2, config);
  publisher.bind(*ta, reactor, counters);
  subscriber.bind(*tb, reactor, counters);

  std::vector<std::uint64_t> delivered;
  subscriber.node().subscribe("news");
  subscriber.node().set_delivery_handler(
      [&](const engine::ContentMessage& m, util::Time) {
        delivered.push_back(m.id);
      });

  engine::ContentMessage m;
  m.id = 77;
  m.key = "news";
  m.body.assign(4000, 0x5A);  // forces multi-datagram fragmentation
  m.created = clock.now();
  m.ttl = util::kHour;
  publisher.node().publish(std::move(m), clock.now());

  publisher.connect(tb->local_endpoint());
  const util::Time start = clock.now();
  while (delivered.empty() && clock.now() - start < kDeadline) {
    reactor.run_once(50 * util::kMillisecond);
  }
  ASSERT_EQ(delivered, (std::vector<std::uint64_t>{77}));
  EXPECT_TRUE(subscriber.has_session(publisher.endpoint()));
  EXPECT_GE(counters.frames_received.load(), 2u);  // HELLOs + data

  publisher.close_all();
  subscriber.close_all();
  const util::Time drain = clock.now();
  while (clock.now() - drain < util::kSecond &&
         (publisher.session_count() > 0 || subscriber.session_count() > 0)) {
    reactor.run_once(20 * util::kMillisecond);
  }
  EXPECT_EQ(publisher.session_count(), 0u);
  EXPECT_EQ(subscriber.session_count(), 0u);
}

}  // namespace
}  // namespace bsub::net
