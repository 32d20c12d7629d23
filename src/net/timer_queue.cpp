#include "net/timer_queue.h"

#include <algorithm>
#include <cassert>

namespace bsub::net {

TimerQueue::TimerId TimerQueue::schedule(util::Time deadline, Callback cb) {
  const TimerId id = next_id_++;
  callbacks_.emplace(id, std::move(cb));
  heap_.emplace_back(deadline, id);
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return id;
}

bool TimerQueue::cancel(TimerId id) { return callbacks_.erase(id) != 0; }

void TimerQueue::drop_cancelled() const {
  while (!heap_.empty() && !callbacks_.contains(heap_.front().second)) {
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
    auto it = callbacks_.find(id);
    Callback cb = std::move(it->second);
    callbacks_.erase(it);
    ++fired;
    cb();
  }
  return fired;
}

void TimerQueue::rebase(util::Time t) {
  assert(callbacks_.empty() &&
         "rebase with pending timers would silently drop them");
  heap_.clear();
  now_ = t;
}

}  // namespace bsub::net
