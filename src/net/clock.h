// Time sources for the live runtime.
//
// The runtime never reads wall time directly: every component takes a Clock
// so the same reactor/session/transport code runs under a ManualClock
// (deterministic virtual time, advanced by a test or a fleet loopback
// lane) or a SteadyClock (monotonic real time, used by the
// bsub_node daemon). util::Time stays the single time type — for the real
// clock it means "milliseconds since the clock was constructed", which
// lines up with traces measuring time since their own start.
#pragma once

#include <chrono>

#include "util/time.h"

namespace bsub::net {

class Clock {
 public:
  virtual ~Clock() = default;
  virtual util::Time now() const = 0;
};

/// Virtual time under external control; never moves on its own.
class ManualClock final : public Clock {
 public:
  explicit ManualClock(util::Time start = 0) : now_(start) {}

  util::Time now() const override { return now_; }

  /// Time is monotonic: set() below the current instant is a logic error
  /// upstream, so it clamps rather than travels backwards.
  void set(util::Time t) {
    if (t > now_) now_ = t;
  }
  void advance(util::Time delta) {
    if (delta > 0) now_ += delta;
  }

  /// Unconditionally rewinds/forwards the clock: the escape hatch for
  /// reusing one clock across independent virtual-time episodes (a fleet
  /// lane executes node-disjoint contacts out of global time order, one
  /// episode per contact). Pair with Reactor::rebase(). Within one episode
  /// time stays monotonic via set()/advance().
  void reset(util::Time t) { now_ = t; }

 private:
  util::Time now_;
};

/// Monotonic real time, in milliseconds since construction.
class SteadyClock final : public Clock {
 public:
  SteadyClock() : start_(std::chrono::steady_clock::now()) {}

  util::Time now() const override {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    return static_cast<util::Time>(
        std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
            .count());
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace bsub::net
