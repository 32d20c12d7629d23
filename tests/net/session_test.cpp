// Session state machine over the loopback hub: in-order reliable delivery,
// retransmission under injected loss, retry exhaustion, graceful close, and
// epoch hygiene.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "metrics/collector.h"
#include "net/clock.h"
#include "net/loopback.h"
#include "net/reactor.h"
#include "net/session.h"
#include "util/time.h"

namespace bsub::net {
namespace {

std::vector<std::uint8_t> frame_of(const std::string& text) {
  return std::vector<std::uint8_t>(text.begin(), text.end());
}

std::string text_of(std::span<const std::uint8_t> frame) {
  return std::string(frame.begin(), frame.end());
}

/// Every DATA datagram of `frame`, each encoded into its own vector.
std::vector<std::vector<std::uint8_t>> fragments(
    std::uint32_t epoch, std::uint64_t seq,
    std::span<const std::uint8_t> frame, std::size_t mtu) {
  std::vector<std::vector<std::uint8_t>> out(fragment_count(frame.size(), mtu));
  for (std::size_t i = 0; i < out.size(); ++i) {
    encode_fragment(epoch, seq, frame, mtu, i, out[i]);
  }
  return out;
}

/// Two sessions joined by a hub, with all the reactor plumbing.
struct Pair {
  explicit Pair(LoopbackHub::Config hub_config = {},
                SessionConfig session_config = {})
      : reactor(clock), hub(hub_config) {
    LoopbackTransport& ta = hub.attach(1);
    LoopbackTransport& tb = hub.attach(2);
    a = std::make_unique<Session>(2, 1, session_config, ta, reactor,
                                  counters);
    b = std::make_unique<Session>(1, 1, session_config, tb, reactor,
                                  counters);
    ta.set_receive_handler(
        [this](Endpoint, std::span<const std::uint8_t> bytes) {
          a->on_datagram(bytes);
        });
    tb.set_receive_handler(
        [this](Endpoint, std::span<const std::uint8_t> bytes) {
          b->on_datagram(bytes);
        });
    a->set_frame_handler([this](std::span<const std::uint8_t> f) {
      received_by_a.push_back(text_of(f));
    });
    b->set_frame_handler([this](std::span<const std::uint8_t> f) {
      received_by_b.push_back(text_of(f));
    });
  }

  /// Drains the hub and fires retransmit deadlines until both sessions are
  /// idle or `cap` virtual time has passed.
  void pump(util::Time cap = 60 * util::kSecond) {
    for (;;) {
      hub.deliver_all();
      if (a->idle() && b->idle()) return;
      const util::Time next = reactor.next_deadline();
      if (next == util::kTimeMax || next > cap) return;
      reactor.advance_to(clock, next);
    }
  }

  ManualClock clock;
  Reactor reactor;
  metrics::TransportCounters counters;
  LoopbackHub hub;
  std::unique_ptr<Session> a;
  std::unique_ptr<Session> b;
  std::vector<std::string> received_by_a;
  std::vector<std::string> received_by_b;
};

TEST(Session, DeliversFramesInOfferOrder) {
  Pair p;
  EXPECT_TRUE(p.a->offer(frame_of("one")));
  EXPECT_TRUE(p.a->offer(frame_of("two")));
  EXPECT_TRUE(p.b->offer(frame_of("reply")));
  p.pump();
  EXPECT_EQ(p.received_by_b, (std::vector<std::string>{"one", "two"}));
  EXPECT_EQ(p.received_by_a, (std::vector<std::string>{"reply"}));
  EXPECT_TRUE(p.a->idle());
  EXPECT_EQ(p.a->retransmits(), 0u);
  EXPECT_EQ(p.counters.frames_received.load(), 3u);
}

TEST(Session, LargeFrameFragmentsAndReassembles) {
  SessionConfig config;
  config.mtu = 128;
  Pair p({.mtu = 128}, config);
  const std::string big(10000, 'x');
  EXPECT_TRUE(p.a->offer(frame_of(big)));
  p.pump();
  ASSERT_EQ(p.received_by_b.size(), 1u);
  EXPECT_EQ(p.received_by_b[0], big);
}

TEST(Session, RetransmitsThroughInjectedLoss) {
  LoopbackHub::Config hub_config;
  hub_config.loss_probability = 0.4;
  hub_config.loss_seed = 0xFEED;
  Pair p(hub_config);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(p.a->offer(frame_of("msg" + std::to_string(i))));
  }
  p.pump(10 * util::kMinute);
  ASSERT_EQ(p.received_by_b.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(p.received_by_b[static_cast<std::size_t>(i)],
              "msg" + std::to_string(i));
  }
  // Loss actually happened and was repaired.
  EXPECT_GT(p.hub.dropped_loss(), 0u);
  EXPECT_GT(p.a->retransmits() + p.b->retransmits(), 0u);
  EXPECT_GT(p.counters.frames_retransmitted.load(), 0u);
}

TEST(Session, BackoffGrowsBetweenRetries) {
  // Peer never answers: RTO deadlines must space out exponentially.
  ManualClock clock;
  Reactor reactor(clock);
  metrics::TransportCounters counters;
  LoopbackHub hub;  // b never attached: datagrams to it are unroutable
  LoopbackTransport& ta = hub.attach(1);
  SessionConfig config;
  config.rto_initial = 100;
  config.rto_backoff = 2.0;
  config.rto_max = 100000;
  config.max_retries = 4;
  Session s(2, 1, config, ta, reactor, counters);

  SessionCloseReason reason = SessionCloseReason::kNone;
  s.set_closed_handler([&](SessionCloseReason r) { reason = r; });
  EXPECT_TRUE(s.offer(frame_of("hello?")));

  std::vector<util::Time> gaps;
  util::Time last = 0;
  while (s.state() != SessionState::kClosed) {
    const util::Time next = reactor.next_deadline();
    ASSERT_NE(next, util::kTimeMax);
    gaps.push_back(next - last);
    last = next;
    reactor.advance_to(clock, next);
    hub.deliver_all();  // drops them all (unroutable)
  }
  // 100, 200, 400, 800, then the fifth timeout exceeds max_retries.
  ASSERT_EQ(gaps.size(), 5u);
  EXPECT_EQ(gaps[0], 100);
  EXPECT_EQ(gaps[1], 200);
  EXPECT_EQ(gaps[2], 400);
  EXPECT_EQ(gaps[3], 800);
  EXPECT_EQ(reason, SessionCloseReason::kPeerLost);
  EXPECT_EQ(counters.session_timeouts.load(), 1u);
}

TEST(Session, GracefulCloseHandshake) {
  Pair p;
  EXPECT_TRUE(p.a->offer(frame_of("payload")));
  p.pump();

  SessionCloseReason reason_a = SessionCloseReason::kNone;
  SessionCloseReason reason_b = SessionCloseReason::kNone;
  p.a->set_closed_handler([&](SessionCloseReason r) { reason_a = r; });
  p.b->set_closed_handler([&](SessionCloseReason r) { reason_b = r; });
  p.a->close();
  p.hub.deliver_all();
  EXPECT_EQ(p.a->state(), SessionState::kClosed);
  EXPECT_EQ(p.b->state(), SessionState::kClosed);
  EXPECT_EQ(reason_a, SessionCloseReason::kLocalClose);
  EXPECT_EQ(reason_b, SessionCloseReason::kPeerClose);
  // A closed session refuses new work.
  EXPECT_FALSE(p.a->offer(frame_of("too late")));
}

TEST(Session, StaleEpochDatagramsDropped) {
  Pair p;
  EXPECT_TRUE(p.a->offer(frame_of("current")));
  p.pump();

  // Craft a datagram from an older incarnation of a (epoch 0 < 1).
  const auto stale =
      fragments(/*epoch=*/0, /*seq=*/0, frame_of("ghost"), 1400);
  const std::uint64_t dropped_before = p.counters.datagrams_dropped.load();
  p.b->on_datagram(stale[0]);
  EXPECT_EQ(p.counters.datagrams_dropped.load(), dropped_before + 1);
  EXPECT_EQ(p.received_by_b, (std::vector<std::string>{"current"}));
}

TEST(Session, NewerEpochResetsReceiveState) {
  Pair p;
  EXPECT_TRUE(p.a->offer(frame_of("old world")));
  p.pump();
  ASSERT_EQ(p.received_by_b.size(), 1u);

  // The peer restarts with a higher epoch and reuses seq 0: b must accept
  // the new incarnation's stream from scratch.
  const auto fresh =
      fragments(/*epoch=*/5, /*seq=*/0, frame_of("new world"), 1400);
  for (const auto& d : fresh) p.b->on_datagram(d);
  ASSERT_EQ(p.received_by_b.size(), 2u);
  EXPECT_EQ(p.received_by_b[1], "new world");
}

TEST(Session, WholeAndFragmentedFramesArriveOnceInOrder) {
  // Frames 0, 2 and 4 fit one datagram (delivered without reassembly when
  // in order); 1 and 3 span several. Their datagrams arrive out of order,
  // with duplicates, and the receiver's acks are lost (nothing routes to
  // the sender), so the sender's retransmissions arrive after delivery.
  ManualClock clock;
  Reactor reactor(clock);
  metrics::TransportCounters counters;
  LoopbackHub hub({.mtu = 128});
  SessionConfig config;
  config.mtu = 128;
  Session b(/*peer=*/1, /*local_epoch=*/1, config, hub.attach(2), reactor,
            counters);
  std::vector<std::string> received;
  b.set_frame_handler([&](std::span<const std::uint8_t> f) {
    received.push_back(text_of(f));
  });

  const std::vector<std::string> frames = {
      "zero", std::string(300, '1'), "two", std::string(500, '3'), "four"};
  std::vector<std::vector<std::vector<std::uint8_t>>> datagrams;
  for (std::size_t seq = 0; seq < frames.size(); ++seq) {
    datagrams.push_back(
        fragments(/*epoch=*/7, seq, frame_of(frames[seq]), config.mtu));
  }
  ASSERT_EQ(datagrams[0].size(), 1u);
  ASSERT_GE(datagrams[1].size(), 3u);
  ASSERT_EQ(datagrams[2].size(), 1u);
  ASSERT_GE(datagrams[3].size(), 5u);
  ASSERT_EQ(datagrams[4].size(), 1u);

  auto feed = [&](std::size_t seq, std::size_t fragment) {
    b.on_datagram(datagrams[seq][fragment]);
  };
  feed(2, 0);  // whole, ahead of a gap: held
  feed(1, 1);  // fragment of 1
  EXPECT_TRUE(received.empty());
  feed(0, 0);  // whole and in order: straight up
  EXPECT_EQ(received, (std::vector<std::string>{frames[0]}));
  feed(0, 0);  // retransmit after a lost ack: re-acked, not re-delivered
  feed(2, 0);  // duplicate of a held frame
  for (std::size_t i = datagrams[1].size(); i-- > 0;) feed(1, i);
  EXPECT_EQ(received,
            (std::vector<std::string>{frames[0], frames[1], frames[2]}));
  feed(3, 2);
  feed(3, 0);
  feed(3, 2);  // duplicate fragment
  feed(4, 0);  // whole, ahead of the fragmented 3: held
  feed(1, 0);  // a stale fragment of a delivered frame
  for (std::size_t i = 1; i < datagrams[3].size(); ++i) feed(3, i);
  // The sender never heard an ack: it retransmits everything.
  for (const auto& frame : datagrams) {
    for (const auto& d : frame) b.on_datagram(d);
  }

  EXPECT_EQ(received, frames);
  EXPECT_EQ(counters.frames_received.load(), frames.size());
  EXPECT_EQ(counters.reassembly_failures.load(), 0u);
  EXPECT_TRUE(b.idle());
}

TEST(Session, BudgetChargesOfferOnceAndDropsWhenExhausted) {
  Pair p;
  // 300 bytes of budget: the first small frame fits, a big one does not.
  sim::Link budget(/*duration=*/util::kSecond,
                   /*bandwidth_bytes_per_second=*/300.0);
  p.a->set_budget(&budget);
  EXPECT_TRUE(p.a->offer(frame_of(std::string(100, 'a'))));
  EXPECT_FALSE(p.a->offer(frame_of(std::string(400, 'b'))));
  EXPECT_TRUE(p.a->offer(frame_of(std::string(50, 'c'))));
  p.pump();
  ASSERT_EQ(p.received_by_b.size(), 2u);
  EXPECT_EQ(p.counters.frames_dropped.load(), 1u);
  EXPECT_EQ(budget.used_bytes(), 150u);
}

TEST(Session, AbortFiresClosedHandlerOnce) {
  Pair p;
  int closed = 0;
  p.a->set_closed_handler([&](SessionCloseReason) { ++closed; });
  p.a->abort(SessionCloseReason::kPeerLost);
  p.a->abort(SessionCloseReason::kPeerLost);
  p.a->close();
  EXPECT_EQ(closed, 1);
  EXPECT_EQ(p.a->state(), SessionState::kClosed);
}

}  // namespace
}  // namespace bsub::net
