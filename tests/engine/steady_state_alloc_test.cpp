// Allocation checks on the live contact path:
//   - with warm caches and unchanged filters, a contact's outbound hello
//     and relay frames are pure cache hits that allocate nothing;
//   - handling warm inbound genuine and relay frames allocates nothing;
//   - a serial loopback replay of a reduced fleet scenario stays within an
//     allocation budget per contact;
//   - reassembly memory follows the bytes that arrived, not the frame
//     lengths datagrams claim.
//
// This test has its own binary because counting allocations replaces the
// global allocation functions for the whole process (bench/resource_stats.h).
#define BSUB_RESOURCE_STATS_COUNT_ALLOCS
#include "resource_stats.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bloom/bloom_filter.h"
#include "bloom/tcbf.h"
#include "engine/node.h"
#include "engine/wire.h"
#include "fleet_common.h"
#include "metrics/collector.h"
#include "net/clock.h"
#include "net/fragment.h"
#include "net/loopback.h"
#include "net/reactor.h"
#include "net/session.h"
#include "util/hash.h"

namespace bsub {
namespace {

TEST(SteadyStateAllocs, CachedEncodesAllocateNothing) {
  const bloom::BloomParams params{256, 4};
  bloom::BloomFilter interest(params);
  bloom::BloomFilter relay_report(params);
  bloom::Tcbf relay(params, 50.0);
  for (int i = 0; i < 8; ++i) {
    const util::HashPair hp = util::hash_pair("key-" + std::to_string(i));
    interest.insert(hp);
    relay_report.insert(hp);
    relay.insert(hp);
  }

  engine::FrameCache hello, rel;
  // Warm every cache (the one allowed miss per epoch).
  engine::encode_hello_cached(1, true, interest, relay_report, hello);
  engine::encode_relay_cached(1, relay, rel);

  constexpr int kRounds = 10000;
  std::size_t bytes = 0;
  const std::uint64_t before = bench::allocs_now();
  for (int i = 0; i < kRounds; ++i) {
    bytes +=
        engine::encode_hello_cached(1, true, interest, relay_report, hello)
            .size();
    bytes += engine::encode_relay_cached(1, relay, rel).size();
  }
  const std::uint64_t allocs = bench::allocs_now() - before;

  EXPECT_EQ(allocs, 0u) << "over " << kRounds << " cache-hit rounds";
  EXPECT_GT(bytes, 0u);  // the encodes really ran
}

TEST(SteadyStateAllocs, WarmFilterFramesAllocateNothing) {
  // A broker absorbs a genuine filter (A-merge) and exchanges relay
  // filters (ranking, then M-merge). Both frames decode into one reused
  // per-thread filter, so once the relay, the decode target and the
  // outbox are warm, handling them allocates nothing.
  const bloom::BloomParams params{256, 4};
  bloom::Tcbf genuine(params, 50.0);
  bloom::Tcbf relay(params, 50.0);
  for (int i = 0; i < 8; ++i) {
    genuine.insert("key-" + std::to_string(i));
    relay.insert("key-" + std::to_string(i + 4));
  }
  const std::vector<std::uint8_t> genuine_frame =
      engine::encode(engine::GenuineFrame{1, genuine});
  const std::vector<std::uint8_t> relay_frame =
      engine::encode(engine::RelayFrame{1, relay});
  engine::NodeConfig cfg;
  cfg.filter_params = params;
  engine::BsubNode node(2, cfg);
  node.set_broker(true);
  const util::Time now = util::kMinute;
  node.handle(genuine_frame, now);
  node.handle(relay_frame, now);

  constexpr int kRounds = 10000;
  std::size_t replies = 0;
  const std::uint64_t before = bench::allocs_now();
  for (int i = 0; i < kRounds; ++i) {
    replies += node.handle(genuine_frame, now).size();
    replies += node.handle(relay_frame, now).size();
  }
  const std::uint64_t allocs = bench::allocs_now() - before;

  EXPECT_EQ(allocs, 0u) << "over " << kRounds << " warm rounds";
  EXPECT_EQ(replies, 0u);  // no custody to offer: both frames only merge
  EXPECT_TRUE(node.relay_filter().contains("key-0"));  // the merges ran
  EXPECT_TRUE(node.relay_filter().contains("key-11"));
}

TEST(SteadyStateAllocs, FleetLoopbackContactStaysWithinBudget) {
  // Serial loopback replay of a 200-node, 20,000-contact fleet scenario
  // (bench/fleet_common.h, seed 2010). Before hellos were kept across
  // decay and frames and datagrams moved through reused buffers, this
  // replay made 130.2 allocations per contact; the budget is a third.
  constexpr double kBudget = 130.2 / 3;
  const bench::FleetScenario scenario({200, 20000, 100}, /*seed=*/2010);
  net::FleetConfig cfg = bench::make_fleet_config(scenario, "");
  cfg.threads = 1;
  net::FleetRuntime fleet(cfg);
  const std::uint64_t before = bench::allocs_now();
  const net::FleetRunResults r =
      fleet.run_loopback(scenario.trace, scenario.workload);
  const double per_contact =
      static_cast<double>(bench::allocs_now() - before) /
      static_cast<double>(r.protocol.contacts_processed);
  EXPECT_EQ(r.protocol.contacts_processed, 20000u);
  EXPECT_GT(r.protocol.deliveries, 0u);
  EXPECT_LE(per_contact, kBudget);
}

/// A 16-byte DATA datagram claiming fragment 0 of 2 of a 4 MiB frame and
/// carrying one byte of it.
std::vector<std::uint8_t> hostile_datagram(std::uint8_t seq) {
  return {net::kNetMagic,
          net::kNetVersion,
          static_cast<std::uint8_t>(net::DatagramKind::kData),
          1, 0, 0, 0,              // epoch 1
          seq,                     // varint seq (< 128)
          2,                       // varint fragment count
          0,                       // varint fragment index
          0x80, 0x80, 0x80, 0x02,  // varint frame length 4 MiB
          0,                       // varint offset
          0xAB};                   // the one payload byte
}

TEST(SteadyStateAllocs, ReassemblyHoldsWhatArrivedNotWhatIsClaimed) {
  net::ManualClock clock;
  net::Reactor reactor(clock);
  metrics::TransportCounters counters;
  net::LoopbackHub hub({.mtu = 128});
  net::SessionConfig config;
  config.mtu = 128;
  // The 64 hostile partial frames fill the default cap; one more slot keeps
  // room for the honest frame below.
  config.max_partial_frames = 65;
  net::Session session(/*peer=*/1, /*local_epoch=*/1, config, hub.attach(2),
                       reactor, counters);
  std::vector<std::vector<std::uint8_t>> received;
  session.set_frame_handler([&](std::span<const std::uint8_t> f) {
    received.emplace_back(f.begin(), f.end());
  });

  const std::uint64_t before = bench::allocated_bytes_now();
  for (std::uint8_t seq = 1; seq <= 64; ++seq) {
    session.on_datagram(hostile_datagram(seq));
  }
  EXPECT_LT(bench::allocated_bytes_now() - before, std::uint64_t{1} << 20);
  EXPECT_EQ(counters.datagrams_dropped.load(), 0u);  // all held as partials

  // An honest fragmented frame still reassembles whole, out of order.
  std::vector<std::uint8_t> frame(1000);
  for (std::size_t i = 0; i < frame.size(); ++i) {
    frame[i] = static_cast<std::uint8_t>(i * 7);
  }
  const std::size_t count = net::fragment_count(frame.size(), config.mtu);
  ASSERT_GE(count, 2u);
  std::vector<std::uint8_t> datagram;
  for (std::size_t i = count; i-- > 0;) {
    net::encode_fragment(/*epoch=*/1, /*seq=*/0, frame, config.mtu, i,
                         datagram);
    session.on_datagram(datagram);
  }
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0], frame);
}

TEST(SteadyStateAllocs, CounterSeesAllocations) {
  // Guards the check above against a counter that never moves.
  const std::uint64_t before = bench::allocs_now();
  std::string* volatile p = new std::string(64, 'x');  // escapes: kept
  const std::uint64_t allocs = bench::allocs_now() - before;
  delete p;
  EXPECT_GT(allocs, 0u);
}

}  // namespace
}  // namespace bsub
