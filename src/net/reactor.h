// Event loop for the live runtime: fd readiness + deadlines.
//
// One reactor drives everything a node endpoint does: socket readiness
// (over registered fds) and deadlines (a hierarchical TimerWheel —
// retransmits, session teardown, TCBF decay ticks). Two driving modes share
// the same registration API:
//
//   real time   run()/run_once() wait on the fds with a timeout bounded by
//               the next timer deadline, then fire due timers. Used by the
//               bsub_node daemon, the fleet shards, and the UDP transports
//               (SteadyClock).
//   virtual time advance_to(t) moves a ManualClock through every timer
//               deadline up to t in deterministic order without ever
//               blocking. Used by the loopback tests and the fleet's
//               loopback lanes; fds are not polled (loopback has none).
//
// Readiness is poll(2) over a dense pollfd array. A production reactor
// watches at most two fds (a daemon's socket; a fleet shard's socket and
// its wake pipe), so the O(registered fds) wait costs nothing next to the
// syscall itself (DESIGN.md §12). Registration is O(1): an fd -> slot index
// over a swap-erased array. Waits are EINTR-safe: a signal landing
// mid-wait is treated as a zero-ready wakeup, never surfaced as an error.
//
// The reactor is single-threaded by design: every callback runs on the
// loop, so sessions and nodes need no locks.
#pragma once

#include <poll.h>

#include <functional>
#include <unordered_map>
#include <vector>

#include "net/clock.h"
#include "net/timer_wheel.h"
#include "util/time.h"

namespace bsub::net {

class Reactor {
 public:
  using TimerId = TimerWheel::TimerId;

  explicit Reactor(Clock& clock);

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  Clock& clock() { return clock_; }
  util::Time now() const { return clock_.now(); }

  /// Schedules `cb` at an absolute instant / after a delay from now.
  TimerId schedule_at(util::Time deadline, TimerWheel::Callback cb);
  TimerId schedule_after(util::Time delay, TimerWheel::Callback cb);
  bool cancel(TimerId id);

  util::Time next_deadline() const { return wheel_.next_deadline(); }
  std::size_t pending_timers() const { return wheel_.pending(); }

  /// Registers `fd` for readability callbacks (real-time mode). The fd must
  /// stay valid until remove_fd(). Registering an already-registered fd
  /// replaces its callback. O(1).
  void add_fd(int fd, std::function<void()> on_readable);
  /// Unregisters `fd`; no-op when it was never registered. O(1).
  void remove_fd(int fd);
  std::size_t fd_count() const { return pfds_.size(); }

  /// Fires every timer due at the clock's current instant. Returns count.
  std::size_t fire_due() { return wheel_.advance(clock_.now()); }

  /// Virtual-time driving (ManualClock): steps the clock through each due
  /// deadline in order up to `t`, firing timers as it goes, and leaves the
  /// clock at `t`. Requires the clock passed at construction to be the same
  /// ManualClock.
  void advance_to(ManualClock& clock, util::Time t);

  /// Rewinds the timer wheel to `t` for reuse by a new virtual-time episode
  /// (the fleet's loopback lanes execute node-disjoint contacts out of
  /// global time order, one rebased episode per contact). Requires no
  /// pending timers — everything from the previous episode must have fired
  /// or been cancelled.
  void rebase(util::Time t);

  /// Real-time driving: waits until a registered fd is readable or the next
  /// timer is due, capped at `max_wait`; dispatches both. A signal
  /// interrupting the wait counts as a timeout, not an error. Returns false
  /// only on stop(). `max_wait < 0` means "until the next deadline".
  bool run_once(util::Time max_wait = 100 * util::kMillisecond);

  /// Loops run_once() until stop() is called (from a callback or a signal
  /// handler flag checked by the caller between iterations).
  void run();
  void stop() { stopped_ = true; }
  bool stopped() const { return stopped_; }

 private:
  struct Slot {
    std::size_t index;  ///< position in pfds_
    std::function<void()> on_readable;
  };

  Clock& clock_;
  TimerWheel wheel_;
  /// The poll set: pfds_[slots_[fd].index].fd == fd for every registered fd.
  std::vector<pollfd> pfds_;
  std::unordered_map<int, Slot> slots_;
  std::vector<int> ready_scratch_;
  bool stopped_ = false;
};

}  // namespace bsub::net
