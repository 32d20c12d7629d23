// Fleet UDP plane: config validation, the node-id mux header over shard
// sockets, the queued send path and the burst drain, one fd per shard —
// all over real loopback sockets. Environments without loopback make the
// shard constructor throw; those tests skip rather than fail.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "net/clock.h"
#include "net/fleet/fleet_udp.h"
#include "net/reactor.h"
#include "util/errors.h"
#include "util/time.h"

namespace bsub::net {
namespace {

constexpr util::Time kDeadline = 10 * util::kSecond;

TEST(FleetUdpConfig, ValidateRejectsUnsupportedCombinations) {
  const FleetUdpConfig ok;
  EXPECT_NO_THROW(ok.validate());

  FleetUdpConfig burst = ok;
  burst.batch_burst = 0;
  EXPECT_THROW(burst.validate(), util::ConfigError);
  burst.batch_burst = 100000;
  EXPECT_THROW(burst.validate(), util::ConfigError);

  FleetUdpConfig mtu = ok;
  mtu.mtu = 8;
  EXPECT_THROW(mtu.validate(), util::ConfigError);
}

struct Plane {
  SteadyClock clock;
  Reactor reactor;
  std::vector<std::unique_ptr<FleetUdpShard>> shards;

  Plane(std::size_t shard_count, FleetUdpConfig config) : reactor(clock) {
    for (std::size_t s = 0; s < shard_count; ++s) {
      shards.push_back(
          std::make_unique<FleetUdpShard>(reactor, s, shard_count, config));
    }
  }
};

using Received = std::pair<Endpoint, std::vector<std::uint8_t>>;

void pump_until(Plane& p, const std::function<bool()>& done) {
  const util::Time start = p.clock.now();
  while (!done() && p.clock.now() - start < kDeadline) {
    p.reactor.run_once(20 * util::kMillisecond);
    for (auto& s : p.shards) s->flush();
  }
}

void roundtrip_case(FleetUdpConfig config, std::size_t shard_count) {
  std::unique_ptr<Plane> p;
  try {
    p = std::make_unique<Plane>(shard_count, config);
  } catch (const std::runtime_error& e) {
    GTEST_SKIP() << "no loopback sockets here: " << e.what();
  }
  // Nodes 0..3 homed round-robin across the shards.
  std::vector<FleetPort*> ports;
  for (std::uint32_t n = 0; n < 4; ++n) {
    ports.push_back(&p->shards[n % shard_count]->add_node(n));
  }
  std::optional<Received> got;
  ports[3]->set_receive_handler(
      [&](Endpoint from, std::span<const std::uint8_t> bytes) {
        got = {from, std::vector<std::uint8_t>(bytes.begin(), bytes.end())};
      });

  const std::vector<std::uint8_t> payload = {0xA, 0xB, 0xC, 0xD, 0xE};
  ASSERT_TRUE(ports[0]->send(/*to=*/3, payload));
  // Oversize datagrams are refused locally, never truncated on the wire.
  EXPECT_FALSE(ports[0]->send(
      3, std::vector<std::uint8_t>(ports[0]->max_datagram_bytes() + 1)));

  pump_until(*p, [&] { return got.has_value(); });
  ASSERT_TRUE(got.has_value()) << "datagram never arrived";
  EXPECT_EQ(got->second, payload);
  EXPECT_EQ(got->first, 0u);  // endpoints are node ids

  std::uint64_t out = 0, in = 0;
  for (auto& s : p->shards) {
    out += s->datagrams_out();
    in += s->datagrams_in();
  }
  EXPECT_EQ(out, 1u);
  EXPECT_EQ(in, 1u);
}

TEST(FleetUdp, BatchedShardSockets) {
  FleetUdpConfig config;
  config.base_port = 46130;
  config.batch_burst = 8;
  roundtrip_case(config, 2);
}

TEST(FleetUdp, BatchedBurstCrossesShards) {
  // More datagrams than one burst, both directions at once, across two
  // shard sockets: exercises the send queue flush and the burst drain
  // rather than the one-datagram happy path.
  FleetUdpConfig config;
  config.base_port = 46170;
  config.batch_burst = 4;
  std::unique_ptr<Plane> p;
  try {
    p = std::make_unique<Plane>(2, config);
  } catch (const std::runtime_error& e) {
    GTEST_SKIP() << "no loopback sockets here: " << e.what();
  }
  FleetPort& a = p->shards[0]->add_node(0);  // shard 0
  FleetPort& b = p->shards[1]->add_node(1);  // shard 1
  std::vector<std::vector<std::uint8_t>> at_a, at_b;
  a.set_receive_handler([&](Endpoint, std::span<const std::uint8_t> bytes) {
    at_a.emplace_back(bytes.begin(), bytes.end());
  });
  b.set_receive_handler([&](Endpoint, std::span<const std::uint8_t> bytes) {
    at_b.emplace_back(bytes.begin(), bytes.end());
  });

  constexpr std::size_t kCount = 25;  // 6+ bursts of 4
  for (std::uint8_t i = 0; i < kCount; ++i) {
    ASSERT_TRUE(a.send(1, std::vector<std::uint8_t>{std::uint8_t(i), 1}));
    ASSERT_TRUE(b.send(0, std::vector<std::uint8_t>{std::uint8_t(i), 2}));
  }
  pump_until(*p,
             [&] { return at_a.size() >= kCount && at_b.size() >= kCount; });
  ASSERT_EQ(at_a.size(), kCount);
  ASSERT_EQ(at_b.size(), kCount);
  // UDP order within one loopback socket pair is preserved in practice,
  // but only assert contents as a multiset-by-index.
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(at_b[i][1], 1);  // everything b saw came from a
    EXPECT_EQ(at_a[i][1], 2);
  }
#if defined(__linux__)
  // sendmmsg actually batched: fewer send syscalls than datagrams.
  const std::uint64_t syscalls =
      p->shards[0]->send_syscalls() + p->shards[1]->send_syscalls();
  EXPECT_LT(syscalls, 2 * kCount);
#endif
  EXPECT_EQ(p->shards[0]->datagrams_out() + p->shards[1]->datagrams_out(),
            2 * kCount);
}

TEST(FleetUdp, RepliesFlushedMidBurstLeaveTheBurstIntact) {
  // Each datagram b receives triggers two replies, so the send queue
  // reaches batch_burst and flushes in the middle of b's receive burst:
  // the flush must not disturb the datagrams the burst has yet to
  // dispatch.
  FleetUdpConfig config;
  config.base_port = 46270;
  config.batch_burst = 4;
  std::unique_ptr<Plane> p;
  try {
    p = std::make_unique<Plane>(2, config);
  } catch (const std::runtime_error& e) {
    GTEST_SKIP() << "no loopback sockets here: " << e.what();
  }
  FleetPort& a = p->shards[0]->add_node(0);  // shard 0
  FleetPort& b = p->shards[1]->add_node(1);  // shard 1
  std::vector<std::vector<std::uint8_t>> at_a, at_b;
  a.set_receive_handler([&](Endpoint, std::span<const std::uint8_t> bytes) {
    at_a.emplace_back(bytes.begin(), bytes.end());
  });
  b.set_receive_handler([&](Endpoint, std::span<const std::uint8_t> bytes) {
    at_b.emplace_back(bytes.begin(), bytes.end());
    // Replies shorter than the requests, so a reply's length can never
    // pass for a request's.
    const std::vector<std::uint8_t> reply = {bytes[0]};
    ASSERT_TRUE(b.send(0, reply));
    ASSERT_TRUE(b.send(0, reply));
  });

  constexpr std::size_t kCount = 16;
  for (std::uint8_t i = 0; i < kCount; ++i) {
    ASSERT_TRUE(a.send(1, std::vector<std::uint8_t>{i, 0xA, 0xB, 0xC}));
  }
  pump_until(*p, [&] {
    return at_b.size() >= kCount && at_a.size() >= 2 * kCount;
  });
  ASSERT_EQ(at_b.size(), kCount);
  for (std::uint8_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(at_b[i], (std::vector<std::uint8_t>{i, 0xA, 0xB, 0xC}));
  }
  EXPECT_EQ(at_a.size(), 2 * kCount);
  EXPECT_EQ(p->shards[0]->unroutable_drops() +
                p->shards[1]->unroutable_drops(),
            0u);
}

TEST(FleetUdp, MalformedAndUnroutableDatagramsAreCounted) {
  FleetUdpConfig config;
  config.base_port = 46190;
  std::unique_ptr<Plane> p;
  try {
    p = std::make_unique<Plane>(1, config);
  } catch (const std::runtime_error& e) {
    GTEST_SKIP() << "no loopback sockets here: " << e.what();
  }
  FleetPort& a = p->shards[0]->add_node(0);
  bool delivered = false;
  a.set_receive_handler(
      [&](Endpoint, std::span<const std::uint8_t>) { delivered = true; });

  // A datagram for a node this shard has never heard of: well-formed wire
  // bytes, no route. Send it from node 0's port to node 7 (homed on this
  // same single shard but never added).
  ASSERT_TRUE(a.send(7, std::vector<std::uint8_t>{1, 2, 3}));
  pump_until(*p, [&] { return p->shards[0]->unroutable_drops() >= 1; });
  EXPECT_EQ(p->shards[0]->unroutable_drops(), 1u);
  EXPECT_FALSE(delivered);
}

// The reactor's readiness path (poll(2), DESIGN.md §12) rests on a shard
// registering one socket no matter how many nodes it hosts. If per-node
// sockets ever come back, this fails and that choice must be revisited.
TEST(FleetUdp, ShardWatchesOneFdForAllItsNodes) {
  FleetUdpConfig config;
  config.base_port = 46230;
  SteadyClock clock;
  Reactor reactor(clock);
  std::unique_ptr<FleetUdpShard> shard;
  try {
    shard = std::make_unique<FleetUdpShard>(reactor, 0, 1, config);
  } catch (const std::runtime_error& e) {
    GTEST_SKIP() << "no loopback sockets here: " << e.what();
  }
  for (std::uint32_t n = 0; n < 1000; ++n) shard->add_node(n);
  EXPECT_EQ(shard->local_nodes(), 1000u);
  EXPECT_EQ(reactor.fd_count(), 1u);
  shard.reset();
  EXPECT_EQ(reactor.fd_count(), 0u);
}

}  // namespace
}  // namespace bsub::net
