// Timer queue for the reactor's deadlines (retransmit timers, session
// teardown grace, TCBF decay ticks, fleet contact polls and timeouts).
//
// A binary min-heap over (deadline, id) plus a slot table of callbacks. A
// reactor holds few timers: a loopback lane at most two session RTO timers
// per contact, a fleet UDP shard about two per in-flight contact plus one
// RTO per live session. schedule() is O(log n); cancel() is O(1) and lazy —
// the heap entry stays until it reaches the top, where it is dropped;
// advance(t) costs O(log n) per timer fired, however far t jumps, so a
// virtual-time reactor can skip hours of trace time cheaply. An id is a
// schedule sequence number above the index of its callback's slot; freed
// slots are reused, so a warm queue schedules without allocating.
//
// Firing order is fully deterministic: timers fire strictly in (deadline,
// schedule order), including timers that callbacks schedule during the
// same advance.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "util/time.h"

namespace bsub::net {

class TimerQueue {
 public:
  using TimerId = std::uint64_t;
  using Callback = std::function<void()>;

  static constexpr TimerId kInvalidTimer = 0;

  explicit TimerQueue(util::Time start = 0) : now_(start) {}

  /// Schedules `cb` to fire when the queue advances to `deadline` (or
  /// later; a deadline at or before the current instant fires on the next
  /// advance).
  TimerId schedule(util::Time deadline, Callback cb);

  /// Cancels a pending timer. Returns false if the id already fired, was
  /// already cancelled, or never existed.
  bool cancel(TimerId id);

  /// Earliest pending deadline, or util::kTimeMax when no timer is pending.
  util::Time next_deadline() const;

  /// Moves the queue's notion of "now" to `now` (monotonic; earlier values
  /// are ignored) and fires every timer with deadline <= now, ordered by
  /// (deadline, schedule order). Returns the number of timers fired.
  /// Callbacks may schedule() and cancel() freely; timers scheduled during
  /// the advance with deadlines <= now fire within the same call, in that
  /// same order.
  std::size_t advance(util::Time now);

  /// Restarts the clock at `t` for a new virtual-time episode. Requires no
  /// pending timers; drops the heap's cancelled entries.
  void rebase(util::Time t);

  std::size_t pending() const { return live_; }
  util::Time now() const { return now_; }

 private:
  using Entry = std::pair<util::Time, TimerId>;
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const { return a > b; }
  };
  struct Slot {
    TimerId id = kInvalidTimer;  ///< kInvalidTimer: free
    Callback cb;
  };
  /// Low id bits: the slot index. The sequence number above them makes ids
  /// unique and orders them by schedule order.
  static constexpr unsigned kSlotBits = 24;

  bool live(TimerId id) const {
    const std::size_t slot = id & ((TimerId{1} << kSlotBits) - 1);
    return id != kInvalidTimer && slot < slots_.size() &&
           slots_[slot].id == id;
  }
  /// Frees the slot of live timer `id`, returning its callback.
  Callback release(TimerId id);
  /// Pops cancelled entries off the top of the heap.
  void drop_cancelled() const;

  util::Time now_;
  std::vector<Slot> slots_;
  std::vector<std::size_t> free_slots_;
  std::size_t live_ = 0;
  /// Min-heap over (deadline, id) of every timer not yet popped; cancelled
  /// ids are dropped lazily when they reach the top.
  mutable std::vector<Entry> heap_;
  TimerId next_seq_ = 1;
};

}  // namespace bsub::net
