#include "net/timer_queue.h"

#include <algorithm>
#include <cassert>

namespace bsub::net {

TimerQueue::TimerId TimerQueue::schedule(util::Time deadline, Callback cb) {
  std::size_t slot;
  if (free_slots_.empty()) {
    slot = slots_.size();
    assert(slot < (std::size_t{1} << kSlotBits) && "too many live timers");
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  const TimerId id = (next_seq_++ << kSlotBits) | slot;
  slots_[slot] = Slot{id, std::move(cb)};
  ++live_;
  heap_.emplace_back(deadline, id);
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return id;
}

TimerQueue::Callback TimerQueue::release(TimerId id) {
  const std::size_t slot = id & ((TimerId{1} << kSlotBits) - 1);
  Callback cb = std::move(slots_[slot].cb);
  slots_[slot] = Slot{};
  free_slots_.push_back(slot);
  --live_;
  return cb;
}

bool TimerQueue::cancel(TimerId id) {
  if (!live(id)) return false;
  release(id);
  return true;
}

void TimerQueue::drop_cancelled() const {
  while (!heap_.empty() && !live(heap_.front().second)) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
}

util::Time TimerQueue::next_deadline() const {
  drop_cancelled();
  return heap_.empty() ? util::kTimeMax : heap_.front().first;
}

std::size_t TimerQueue::advance(util::Time now) {
  now_ = std::max(now_, now);
  std::size_t fired = 0;
  for (;;) {
    drop_cancelled();
    if (heap_.empty() || heap_.front().first > now_) break;
    const TimerId id = heap_.front().second;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    Callback cb = release(id);
    ++fired;
    cb();
  }
  return fired;
}

void TimerQueue::rebase(util::Time t) {
  assert(live_ == 0 &&
         "rebase with pending timers would silently drop them");
  heap_.clear();
  now_ = t;
}

}  // namespace bsub::net
