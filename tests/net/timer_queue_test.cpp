// Timer queue: deterministic firing order (also for timers scheduled by
// callbacks), cancellation, near and far deadlines, and huge jumps — driven
// both directly and through a ManualClock-backed Reactor.
//
// The suite keeps the name of the hierarchical wheel the queue replaced, so
// these cases keep their test ids; the deadlines that once probed the
// wheel's levels, slot wraparound and overflow bucket still pin the same
// firing and cancellation behavior.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "net/clock.h"
#include "net/reactor.h"
#include "net/timer_queue.h"
#include "util/time.h"

namespace bsub::net {
namespace {

TEST(TimerWheel, FiresInDeadlineThenScheduleOrder) {
  TimerQueue timers;
  std::vector<int> fired;
  timers.schedule(30, [&] { fired.push_back(3); });
  timers.schedule(10, [&] { fired.push_back(1); });
  timers.schedule(20, [&] { fired.push_back(2); });
  timers.schedule(10, [&] { fired.push_back(11); });  // same deadline, later id
  EXPECT_EQ(timers.pending(), 4u);
  EXPECT_EQ(timers.advance(25), 3u);
  EXPECT_EQ(fired, (std::vector<int>{1, 11, 2}));
  EXPECT_EQ(timers.advance(30), 1u);
  EXPECT_EQ(fired, (std::vector<int>{1, 11, 2, 3}));
  EXPECT_EQ(timers.pending(), 0u);
}

TEST(TimerWheel, CancelPreventsFiring) {
  TimerQueue timers;
  int fired = 0;
  const TimerQueue::TimerId id = timers.schedule(10, [&] { ++fired; });
  timers.schedule(10, [&] { ++fired; });
  EXPECT_TRUE(timers.cancel(id));
  EXPECT_FALSE(timers.cancel(id));  // already dead
  EXPECT_FALSE(timers.cancel(TimerQueue::kInvalidTimer));
  timers.advance(100);
  EXPECT_EQ(fired, 1);
}

TEST(TimerWheel, NextDeadlineTracksEarliestPending) {
  TimerQueue timers;
  EXPECT_EQ(timers.next_deadline(), util::kTimeMax);
  const auto far = timers.schedule(500, [] {});
  timers.schedule(90, [] {});
  EXPECT_EQ(timers.next_deadline(), 90);
  timers.advance(90);
  EXPECT_EQ(timers.next_deadline(), 500);
  timers.cancel(far);
  EXPECT_EQ(timers.next_deadline(), util::kTimeMax);
}

TEST(TimerWheel, LongDeadlinesPromoteAcrossLevels) {
  // Deadlines from 1 ms to days fire exactly once, at or after their
  // deadline, in deadline order.
  TimerQueue timers;
  std::vector<util::Time> fired;
  const std::vector<util::Time> deadlines = {
      1,    63,   64,    65,     4095,      4096,
      4097, 262143, 262144, 1'000'000, 16'777'216, 100'000'000};
  for (util::Time d : deadlines) {
    timers.schedule(d, [&, d] { fired.push_back(d); });
  }
  // Advance in awkward uneven hops.
  for (util::Time t = 0; t <= 100'000'001; t += 997'003) timers.advance(t);
  timers.advance(100'000'001);
  EXPECT_EQ(fired, deadlines);
  EXPECT_EQ(timers.pending(), 0u);
}

TEST(TimerWheel, OverflowEntriesSurviveHugeJumps) {
  // A deadline hours out; one giant advance must still find and fire it.
  constexpr util::Time kHorizon = 64LL * 64 * 64 * 64;
  TimerQueue timers;
  int fired = 0;
  timers.schedule(kHorizon * 3, [&] { ++fired; });
  EXPECT_EQ(timers.next_deadline(), kHorizon * 3);
  timers.advance(kHorizon * 4);
  EXPECT_EQ(fired, 1);
}

TEST(TimerWheel, CallbackMayRescheduleWithinSameAdvance) {
  // The contract: timers scheduled during an advance whose deadlines are
  // already due fire within that same call.
  TimerQueue timers;
  int fired = 0;
  std::function<void()> tick = [&] {
    if (++fired < 5) {
      timers.schedule(static_cast<util::Time>(fired + 1) * 10, tick);
    }
  };
  timers.schedule(10, tick);
  EXPECT_EQ(timers.advance(1000), 5u);
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(timers.pending(), 0u);
}

TEST(TimerWheel, OverdueScheduleFiresOnNextAdvance) {
  TimerQueue timers;
  timers.advance(100);
  int fired = 0;
  timers.schedule(50, [&] { ++fired; });  // already past due
  timers.advance(100);
  EXPECT_EQ(fired, 1);
}

TEST(TimerWheel, CancelSurvivesCascadeAcrossLevelBoundaries) {
  // Cancelling between advances that approach a deadline must stick: the
  // lazily dropped heap entry never fires.
  constexpr util::Time kDeadline = 5000;
  TimerQueue timers;
  int fired = 0;
  const auto id = timers.schedule(kDeadline, [&] { ++fired; });
  timers.schedule(kDeadline + 7, [&] { ++fired; });  // survivor control
  // Approach the deadline, then cancel.
  timers.advance(4500);
  EXPECT_TRUE(timers.cancel(id));
  EXPECT_FALSE(timers.cancel(id));
  // Approach further, then pass the deadline.
  timers.advance(4990);
  timers.advance(kDeadline + 10);
  EXPECT_EQ(fired, 1);  // only the survivor
  EXPECT_EQ(timers.pending(), 0u);
}

TEST(TimerWheel, CancelAtEveryCascadeDepth) {
  // Deadlines from ms to hours; cancel each after advancing to just
  // before its deadline, none may fire.
  constexpr util::Time kHorizon = 64LL * 64 * 64 * 64;
  const std::vector<util::Time> deadlines = {40,     3000,       200'000,
                                             10'000'000, kHorizon * 2};
  TimerQueue timers;
  int fired = 0;
  std::vector<TimerQueue::TimerId> ids;
  for (util::Time d : deadlines) {
    ids.push_back(timers.schedule(d, [&] { ++fired; }));
  }
  for (std::size_t i = 0; i < deadlines.size(); ++i) {
    timers.advance(deadlines[i] - 1);
    EXPECT_TRUE(timers.cancel(ids[i])) << "deadline " << deadlines[i];
    timers.advance(deadlines[i] + 1);
  }
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(timers.pending(), 0u);
  EXPECT_EQ(timers.next_deadline(), util::kTimeMax);
}

TEST(TimerWheel, SlotIndexWraparound) {
  // A queue that starts late: deadlines shortly after its start fire in
  // order.
  TimerQueue timers(60);
  std::vector<util::Time> fired;
  for (util::Time d : {61, 63, 64, 65, 100, 123, 124, 130}) {
    timers.schedule(d, [&, d] { fired.push_back(d); });
  }
  timers.advance(130);
  EXPECT_EQ(fired,
            (std::vector<util::Time>{61, 63, 64, 65, 100, 123, 124, 130}));
}

TEST(TimerWheel, FarFutureCancelInOverflowBeforeAndAfterRecascade) {
  constexpr util::Time kHorizon = 64LL * 64 * 64 * 64;
  TimerQueue timers;
  int fired = 0;
  // Cancelled long before its deadline.
  const auto parked = timers.schedule(kHorizon * 5, [&] { ++fired; });
  // Cancelled after the queue advanced close to it.
  const auto cascaded = timers.schedule(kHorizon + 500, [&] { ++fired; });
  // Far-future survivor: must still fire after both cancellations.
  timers.schedule(kHorizon * 5 + 1, [&] { ++fired; });
  EXPECT_TRUE(timers.cancel(parked));
  timers.advance(kHorizon + 100);
  EXPECT_TRUE(timers.cancel(cascaded));
  timers.advance(kHorizon * 6);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(timers.pending(), 0u);
}

TEST(TimerWheel, VeryFarFutureDeadlineDoesNotOverflowArithmetic) {
  // A deadline centuries out (but far from kTimeMax, which is the "no
  // deadline" sentinel) is still cancellable and queryable.
  constexpr util::Time kCenturies = 400LL * 365 * 24 * 3600 * 1000;
  TimerQueue timers;
  int fired = 0;
  const auto id = timers.schedule(kCenturies, [&] { ++fired; });
  EXPECT_EQ(timers.next_deadline(), kCenturies);
  timers.advance(10'000'000);
  EXPECT_EQ(fired, 0);
  EXPECT_TRUE(timers.cancel(id));
  timers.advance(20'000'000);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(timers.pending(), 0u);
}

TEST(TimerWheel, ManualClockReactorCancelAcrossLevels) {
  // The same cancellation discipline driven the way the runtime drives it:
  // a Reactor over a ManualClock, with a callback cancelling a far timer.
  ManualClock clock;
  Reactor reactor(clock);
  std::vector<util::Time> fired;
  Reactor::TimerId victim =
      reactor.schedule_at(300'000, [&] { fired.push_back(reactor.now()); });
  reactor.schedule_at(100, [&] {
    fired.push_back(reactor.now());
    EXPECT_TRUE(reactor.cancel(victim));
    // Replacement beyond the original, proving the queue stays coherent.
    reactor.schedule_at(400'000, [&] { fired.push_back(reactor.now()); });
  });
  reactor.advance_to(clock, 500'000);
  EXPECT_EQ(fired, (std::vector<util::Time>{100, 400'000}));
  EXPECT_EQ(reactor.pending_timers(), 0u);
}

TEST(TimerWheel, DueTimerScheduledByACallbackFiresInDeadlineOrder) {
  // A callback on the timer due at 10 schedules one due at 20 while a third
  // waits at 500: one advance past all three must fire 10, 20, 500.
  TimerQueue timers;
  std::vector<util::Time> fired;
  timers.schedule(10, [&] {
    fired.push_back(10);
    timers.schedule(20, [&] { fired.push_back(20); });
  });
  timers.schedule(500, [&] { fired.push_back(500); });
  EXPECT_EQ(timers.advance(1000), 3u);
  EXPECT_EQ(fired, (std::vector<util::Time>{10, 20, 500}));
  EXPECT_EQ(timers.pending(), 0u);
}

}  // namespace
}  // namespace bsub::net
