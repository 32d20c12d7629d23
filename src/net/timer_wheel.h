// Hierarchical timer wheel for the reactor's deadlines (retransmit timers,
// session teardown grace, TCBF decay ticks).
//
// Four levels of 64 slots each, with slot granularities of 1 ms, 64 ms,
// ~4.1 s and ~4.4 min cover ~4.7 hours of future deadlines; anything
// further out parks in an overflow bucket that is re-cascaded when the
// wheel's horizon reaches it. schedule() and cancel() are O(1); advance(t)
// costs O(slots crossed + timers fired), so a virtual-time reactor can
// jump hours of trace time cheaply.
//
// Firing order is fully deterministic: timers due at or before the new
// instant fire ordered by (deadline, schedule sequence), regardless of
// which slots they sat in. Cancellation is lazy — a cancelled timer stays
// in its slot but is skipped (and reclaimed) when the slot drains.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/time.h"

namespace bsub::net {

class TimerWheel {
 public:
  using TimerId = std::uint64_t;
  using Callback = std::function<void()>;

  static constexpr TimerId kInvalidTimer = 0;

  explicit TimerWheel(util::Time start = 0);

  /// Schedules `cb` to fire when the wheel advances to `deadline` (or later;
  /// a deadline at or before the current instant fires on the next advance).
  TimerId schedule(util::Time deadline, Callback cb);

  /// Cancels a pending timer. Returns false if the id already fired, was
  /// already cancelled, or never existed.
  bool cancel(TimerId id);

  /// Earliest pending deadline, or util::kTimeMax when no timer is pending.
  /// (May be conservative by at most one slot-drain for cancelled timers.)
  util::Time next_deadline() const;

  /// Moves the wheel's notion of "now" to `now` (monotonic; earlier values
  /// are ignored) and fires every timer with deadline <= now, ordered by
  /// (deadline, schedule order). Returns the number of timers fired.
  /// Callbacks may schedule() and cancel() freely; timers scheduled during
  /// the advance with deadlines <= now fire within the same call.
  std::size_t advance(util::Time now);

  std::size_t pending() const { return live_; }
  util::Time now() const { return now_; }

 private:
  static constexpr unsigned kLevels = 4;
  static constexpr unsigned kSlotBits = 6;  // 64 slots per level
  static constexpr std::uint64_t kSlots = 1u << kSlotBits;

  struct Entry {
    TimerId id;
    util::Time deadline;
  };

  /// Level whose slot granularity can still distinguish the delay, i.e. the
  /// slot this deadline belongs to given the current wheel time.
  unsigned level_for(util::Time deadline) const;
  void place(Entry entry);
  /// Drains one slot (or the overflow), re-placing or collecting due timers.
  void drain(std::vector<Entry>& slot, util::Time now,
             std::vector<Entry>& due);

  struct HeapGreater {
    bool operator()(const std::pair<util::Time, TimerId>& a,
                    const std::pair<util::Time, TimerId>& b) const {
      return a > b;  // min-heap by (deadline, id)
    }
  };

  util::Time now_;
  std::vector<Entry> slots_[kLevels][kSlots];
  std::vector<Entry> overflow_;  ///< deadlines beyond the top level horizon
  std::unordered_map<TimerId, Callback> callbacks_;  ///< live timers only
  /// Min-heap over (deadline, id) pairs of every schedule() not yet known
  /// dead; next_deadline() lazily pops fired/cancelled ids.
  mutable std::vector<std::pair<util::Time, TimerId>> heap_;
  TimerId next_id_ = 1;
  std::size_t live_ = 0;
};

}  // namespace bsub::net
