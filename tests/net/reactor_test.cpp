// Reactor: virtual-time driving (advance_to), real-time dispatch over a
// pipe, EINTR hardening, O(1) fd churn, and timer registration plumbing.
#include <gtest/gtest.h>

#include <pthread.h>
#include <csignal>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sys/eventfd.h>
#endif

#include "net/clock.h"
#include "net/reactor.h"
#include "util/time.h"

namespace bsub::net {
namespace {

TEST(Reactor, AdvanceToFiresDeadlinesInOrderAndLandsOnTarget) {
  ManualClock clock;
  Reactor reactor(clock);
  std::vector<std::pair<int, util::Time>> fired;
  reactor.schedule_at(30, [&] { fired.push_back({3, reactor.now()}); });
  reactor.schedule_at(10, [&] { fired.push_back({1, reactor.now()}); });
  reactor.schedule_after(20, [&] { fired.push_back({2, reactor.now()}); });
  reactor.advance_to(clock, 100);
  // Each callback observes the clock standing at its own deadline — the
  // property the session RTO ladder and decay ticks rely on.
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_EQ(fired[0], (std::pair<int, util::Time>{1, 10}));
  EXPECT_EQ(fired[1], (std::pair<int, util::Time>{2, 20}));
  EXPECT_EQ(fired[2], (std::pair<int, util::Time>{3, 30}));
  EXPECT_EQ(clock.now(), 100);
}

TEST(Reactor, CancelledTimerNeverFires) {
  ManualClock clock;
  Reactor reactor(clock);
  int fired = 0;
  const Reactor::TimerId id = reactor.schedule_after(10, [&] { ++fired; });
  EXPECT_TRUE(reactor.cancel(id));
  reactor.advance_to(clock, 50);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(reactor.pending_timers(), 0u);
}

TEST(Reactor, TimerChainsAcrossAdvances) {
  ManualClock clock;
  Reactor reactor(clock);
  std::vector<util::Time> ticks;
  std::function<void()> tick = [&] {
    ticks.push_back(reactor.now());
    if (ticks.size() < 3) reactor.schedule_after(100, tick);
  };
  reactor.schedule_after(100, tick);
  reactor.advance_to(clock, 1000);
  EXPECT_EQ(ticks, (std::vector<util::Time>{100, 200, 300}));
}

TEST(Reactor, RunOnceDispatchesReadableFd) {
  SteadyClock clock;
  Reactor reactor(clock);
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  int reads = 0;
  reactor.add_fd(fds[0], [&] {
    char buf[8];
    (void)!::read(fds[0], buf, sizeof(buf));
    ++reads;
    reactor.stop();
  });
  ASSERT_EQ(::write(fds[1], "x", 1), 1);
  while (!reactor.stopped()) {
    reactor.run_once(10 * util::kMillisecond);
  }
  EXPECT_EQ(reads, 1);
  reactor.remove_fd(fds[0]);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(Reactor, RunOnceFiresDueTimersWithoutFds) {
  SteadyClock clock;
  Reactor reactor(clock);
  int fired = 0;
  reactor.schedule_after(5, [&] { ++fired; });
  // A few poll rounds with a short cap must reach the deadline.
  for (int i = 0; i < 100 && fired == 0; ++i) {
    reactor.run_once(10 * util::kMillisecond);
  }
  EXPECT_EQ(fired, 1);
}

// A readable pipe end dispatches once, and removing it empties the poll
// set.
TEST(Reactor, RemovingADispatchedFdEmptiesThePollSet) {
  SteadyClock clock;
  Reactor reactor(clock);
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  int reads = 0;
  reactor.add_fd(fds[0], [&] {
    char buf[8];
    (void)!::read(fds[0], buf, sizeof(buf));
    ++reads;
    reactor.stop();
  });
  EXPECT_EQ(reactor.fd_count(), 1u);
  ASSERT_EQ(::write(fds[1], "x", 1), 1);
  while (!reactor.stopped()) {
    reactor.run_once(10 * util::kMillisecond);
  }
  EXPECT_EQ(reads, 1);
  reactor.remove_fd(fds[0]);
  EXPECT_EQ(reactor.fd_count(), 0u);
  ::close(fds[0]);
  ::close(fds[1]);
}

// Re-registering an fd replaces its callback; removing inside a callback is
// safe; removing an unknown fd is a no-op.
TEST(Reactor, ReRegisterReplacesAndSelfRemoveIsSafe) {
  SteadyClock clock;
  Reactor reactor(clock);
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  int first = 0;
  int second = 0;
  reactor.add_fd(fds[0], [&] { ++first; });
  reactor.add_fd(fds[0], [&] {
    char buf[8];
    (void)!::read(fds[0], buf, sizeof(buf));
    ++second;
    reactor.remove_fd(fds[0]);  // self-remove mid-dispatch
    reactor.stop();
  });
  EXPECT_EQ(reactor.fd_count(), 1u);
  reactor.remove_fd(9999);  // never registered: no-op
  ASSERT_EQ(::write(fds[1], "x", 1), 1);
  while (!reactor.stopped()) {
    reactor.run_once(10 * util::kMillisecond);
  }
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
  EXPECT_EQ(reactor.fd_count(), 0u);
  ::close(fds[0]);
  ::close(fds[1]);
}

// fd registration must be O(1). 10k fds registered, half removed from the
// middle (an erase_if over the poll set would walk the whole vector per
// removal, i.e. O(n^2) for this loop), readiness still lands on the
// surviving registrations. Kept brisk enough that a quadratic regression
// shows up as a timeout-scale slowdown, not flakiness.
TEST(Reactor, TenThousandFdChurn) {
  SteadyClock clock;
  Reactor reactor(clock);
  constexpr int kFds = 10000;
  std::vector<int> fds;
  fds.reserve(kFds);
#if defined(__linux__)
  for (int i = 0; i < kFds; ++i) {
    const int fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    ASSERT_GE(fd, 0) << "eventfd " << i;
    fds.push_back(fd);
  }
#else
  // Portable fallback: pipes cost two fds each, so halve the count.
  for (int i = 0; i < kFds / 2; ++i) {
    int p[2];
    ASSERT_EQ(::pipe(p), 0);
    fds.push_back(p[0]);
    fds.push_back(p[1]);
  }
#endif
  std::atomic<int> hits{0};
  for (const int fd : fds) {
    reactor.add_fd(fd, [&hits] { ++hits; });
  }
  EXPECT_EQ(reactor.fd_count(), fds.size());
  // Remove every even registration (middle-of-array removals exercise the
  // swap-erase path), then re-add a quarter of them.
  for (std::size_t i = 0; i < fds.size(); i += 2) {
    reactor.remove_fd(fds[i]);
  }
  EXPECT_EQ(reactor.fd_count(), fds.size() / 2);
  for (std::size_t i = 0; i < fds.size(); i += 4) {
    reactor.add_fd(fds[i], [&hits] { ++hits; });
  }

#if defined(__linux__)
  // Make a few live and a few removed fds readable: only live ones fire.
  const std::uint64_t one = 1;
  ASSERT_EQ(::write(fds[1], &one, sizeof(one)), (ssize_t)sizeof(one));
  ASSERT_EQ(::write(fds[4], &one, sizeof(one)), (ssize_t)sizeof(one));
  ASSERT_EQ(::write(fds[2], &one, sizeof(one)), (ssize_t)sizeof(one));
  reactor.run_once(0);
  EXPECT_EQ(hits.load(), 2);
#endif

  for (const int fd : fds) {
    reactor.remove_fd(fd);
    ::close(fd);
  }
  EXPECT_EQ(reactor.fd_count(), 0u);
}

// A signal interrupting the wait must look like a timeout (nothing ready,
// due timers still fire), never a spurious error or a missed dispatch.
TEST(Reactor, SignalDuringWaitIsHarmless) {
  // Install a no-op handler (no SA_RESTART, so the wait really returns
  // EINTR instead of being transparently restarted).
  struct sigaction sa{};
  sa.sa_handler = [](int) {};
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  struct sigaction old{};
  ASSERT_EQ(::sigaction(SIGUSR1, &sa, &old), 0);

  SteadyClock clock;
  Reactor reactor(clock);
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  std::atomic<int> reads{0};
  std::atomic<int> timer_fired{0};
  reactor.add_fd(fds[0], [&] {
    char buf[8];
    (void)!::read(fds[0], buf, sizeof(buf));
    ++reads;
  });
  reactor.schedule_after(40, [&] { ++timer_fired; });

  std::atomic<bool> done{false};
  std::thread loop([&] {
    while (!done.load() && reads.load() == 0) {
      reactor.run_once(500 * util::kMillisecond);
    }
    // Drain remaining deadlines.
    while (!done.load() && timer_fired.load() == 0) {
      reactor.run_once(50 * util::kMillisecond);
    }
  });

  // Pepper the loop thread with signals while it blocks in the wait.
  for (int i = 0; i < 20; ++i) {
    pthread_kill(loop.native_handle(), SIGUSR1);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(::write(fds[1], "x", 1), 1);
  for (int i = 0; i < 500 && (reads.load() == 0 || timer_fired.load() == 0);
       ++i) {
    pthread_kill(loop.native_handle(), SIGUSR1);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  done = true;
  loop.join();

  EXPECT_EQ(reads.load(), 1);
  EXPECT_EQ(timer_fired.load(), 1);
  reactor.remove_fd(fds[0]);
  ::close(fds[0]);
  ::close(fds[1]);
  ASSERT_EQ(::sigaction(SIGUSR1, &old, nullptr), 0);
}

// Satellite: the wait must not undershoot a timer deadline because of ms
// rounding — run_once with an unbounded cap sleeps to the deadline and
// fires it without a busy-spin of zero-timeout wakeups.
TEST(Reactor, DeadlineRoundingFiresWithoutSpin) {
  SteadyClock clock;
  Reactor reactor(clock);
  int fired = 0;
  reactor.schedule_after(30, [&] { ++fired; });
  int rounds = 0;
  while (fired == 0 && rounds < 50) {
    reactor.run_once(-1);  // "sleep to next deadline"
    ++rounds;
  }
  EXPECT_EQ(fired, 1);
  // One wake for the deadline plus at most a couple of scheduler hiccups —
  // a floor-rounded sleep would spin hundreds of times here.
  EXPECT_LE(rounds, 10);
}

TEST(Reactor, RebaseStartsAFreshVirtualEpisode) {
  ManualClock clock(5000);
  Reactor reactor(clock);
  std::vector<util::Time> fired;
  reactor.schedule_at(5010, [&] { fired.push_back(reactor.now()); });
  reactor.advance_to(clock, 6000);
  ASSERT_EQ(fired, (std::vector<util::Time>{5010}));
  ASSERT_EQ(reactor.pending_timers(), 0u);

  // A fleet lane reuses the reactor for an earlier contact: rewind both.
  clock.reset(100);
  reactor.rebase(100);
  EXPECT_EQ(reactor.now(), 100);
  EXPECT_EQ(reactor.next_deadline(), util::kTimeMax);
  reactor.schedule_after(25, [&] { fired.push_back(reactor.now()); });
  reactor.advance_to(clock, 200);
  EXPECT_EQ(fired, (std::vector<util::Time>{5010, 125}));
}

}  // namespace
}  // namespace bsub::net
