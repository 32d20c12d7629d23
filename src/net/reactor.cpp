#include "net/reactor.h"

#include <algorithm>
#include <cassert>

namespace bsub::net {

Reactor::Reactor(Clock& clock) : clock_(clock), wheel_(clock.now()) {}

Reactor::TimerId Reactor::schedule_at(util::Time deadline,
                                      TimerWheel::Callback cb) {
  return wheel_.schedule(deadline, std::move(cb));
}

Reactor::TimerId Reactor::schedule_after(util::Time delay,
                                         TimerWheel::Callback cb) {
  return wheel_.schedule(clock_.now() + std::max<util::Time>(delay, 0),
                         std::move(cb));
}

bool Reactor::cancel(TimerId id) { return wheel_.cancel(id); }

void Reactor::add_fd(int fd, std::function<void()> on_readable) {
  auto [it, inserted] = slots_.try_emplace(fd, Slot{pfds_.size(), {}});
  it->second.on_readable = std::move(on_readable);
  if (inserted) pfds_.push_back(pollfd{fd, POLLIN, 0});
}

void Reactor::remove_fd(int fd) {
  auto it = slots_.find(fd);
  if (it == slots_.end()) return;
  // Swap-erase: the tail slot moves into the hole, so removal stays O(1).
  const std::size_t index = it->second.index;
  slots_.erase(it);
  if (index != pfds_.size() - 1) {
    pfds_[index] = pfds_.back();
    slots_.at(pfds_[index].fd).index = index;
  }
  pfds_.pop_back();
}

void Reactor::advance_to(ManualClock& clock, util::Time t) {
  assert(&clock == &clock_);
  // Step deadline by deadline so every timer fires with the clock reading
  // exactly its own deadline — the property the deterministic differential
  // tests rely on.
  while (true) {
    const util::Time d = wheel_.next_deadline();
    if (d > t) break;
    clock.set(d);
    wheel_.advance(d);
  }
  clock.set(t);
  wheel_.advance(t);
}

void Reactor::rebase(util::Time t) {
  assert(wheel_.pending() == 0 &&
         "rebase with pending timers would silently drop them");
  wheel_ = TimerWheel(t);
}

bool Reactor::run_once(util::Time max_wait) {
  if (stopped_) return false;
  util::Time wait = max_wait;
  const util::Time next = wheel_.next_deadline();
  if (next != util::kTimeMax) {
    // Round the sleep up by one tick: the ms clock floors, so sleeping
    // exactly (next - now) can wake with the clock still reading one ms
    // before the deadline and busy-spin. One extra ms guarantees progress;
    // the subsequent advance() fires everything due.
    const util::Time until =
        std::max<util::Time>(next - clock_.now(), 0) + util::kMillisecond;
    wait = (wait < 0) ? until : std::min(wait, until);
  } else if (wait < 0) {
    wait = 100 * util::kMillisecond;  // no deadline: wake up periodically
  }

  const int timeout_ms =
      static_cast<int>(std::min<util::Time>(wait, 60 * util::kSecond));
  for (pollfd& p : pfds_) p.revents = 0;
  const int n = ::poll(pfds_.empty() ? nullptr : pfds_.data(),
                       static_cast<nfds_t>(pfds_.size()), timeout_ms);
  // n <= 0: timeout, or EINTR/transient error == nothing ready.
  ready_scratch_.clear();
  if (n > 0) {
    for (const pollfd& p : pfds_) {
      if (p.revents & (POLLIN | POLLERR | POLLHUP)) {
        ready_scratch_.push_back(p.fd);
      }
    }
  }
  for (const int fd : ready_scratch_) {
    // Look the handler up fresh (a prior callback may have removed this fd)
    // and copy it out (the callback may remove/replace itself).
    auto it = slots_.find(fd);
    if (it == slots_.end()) continue;
    auto cb = it->second.on_readable;
    cb();
  }
  wheel_.advance(clock_.now());
  return !stopped_;
}

void Reactor::run() {
  while (run_once()) {
  }
}

}  // namespace bsub::net
