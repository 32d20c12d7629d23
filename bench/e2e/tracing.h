// Layer spans for the traced run, recorded from outside the program: each
// decorator wraps one public layer interface and times the calls crossing
// it. Nothing in src/ knows it is being measured.
//
//   TimedStream    trace::ContactStream — reads ahead in blocks of 256
//                  contacts and times each block, so the clock is read
//                  twice per block, not per contact.
//   TimedProtocol  sim::Protocol — counts every on_* call and times all of
//                  them, or a random eighth, into per-thread slots (the
//                  simulator calls it from up to 4 workers at once), with a
//                  log-bucket histogram of the timed on_contact calls.
//                  Timing every call cost city-dense, the parallel
//                  workload, 7% of its throughput (two ~30 ns clock reads
//                  against a median contact of ~1.6 us, on the workers'
//                  critical path); the serial paper traces pay ~1% and need
//                  every call: their contacts are heavy-tailed (haggle p99
//                  ~11x the median), so a sample misestimates the sum.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "sim/protocol.h"
#include "trace/contact_stream.h"

namespace bsub::e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline std::uint64_t ns_since(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

/// Histogram of nanosecond durations with four buckets per power of two
/// (quantiles within ~12%).
class LogHistogram {
 public:
  void add(std::uint64_t ns) { ++counts_[bucket(ns)]; }

  void merge(const LogHistogram& o) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
  }

  /// Midpoint of the bucket holding quantile q (0 when empty).
  double quantile(double q) const {
    std::uint64_t total = 0;
    for (std::uint64_t c : counts_) total += c;
    if (total == 0) return 0.0;
    const double want = q * static_cast<double>(total);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += counts_[i];
      if (static_cast<double>(seen) >= want) return midpoint(i);
    }
    return midpoint(kBuckets - 1);
  }

 private:
  static constexpr std::size_t kBuckets = 4 * 64;

  /// Values below 4 get a bucket each; above, bucket 4*o + s holds
  /// [2^o * (1 + s/4), 2^o * (1 + (s+1)/4)).
  static std::size_t bucket(std::uint64_t v) {
    if (v < 4) return static_cast<std::size_t>(v);
    const int octave = 63 - __builtin_clzll(v);
    const std::uint64_t sub = (v >> (octave - 2)) & 3u;
    return static_cast<std::size_t>(4 * octave) + sub;
  }

  static double midpoint(std::size_t i) {
    if (i < 4) return static_cast<double>(i);
    const double base = static_cast<double>(1ULL << (i / 4));
    return base * (1.0 + (static_cast<double>(i % 4) + 0.5) / 4.0);
  }

  std::array<std::uint64_t, kBuckets> counts_{};
};

/// Contact-stream decorator: the trace layer's span.
class TimedStream final : public trace::ContactStream {
 public:
  static constexpr std::size_t kBlock = 256;

  explicit TimedStream(trace::ContactStream& inner) : inner_(inner) {
    block_.reserve(kBlock);
  }

  std::size_t node_count() const override { return inner_.node_count(); }

  bool next(trace::Contact& out) override {
    if (pos_ == block_.size() && !refill()) return false;
    out = block_[pos_++];
    return true;
  }

  void reset() override {
    inner_.reset();
    block_.clear();
    pos_ = 0;
    exhausted_ = false;
  }

  std::optional<std::uint64_t> size_hint() const override {
    return inner_.size_hint();
  }
  const std::string& name() const override { return inner_.name(); }

  double seconds() const { return seconds_; }
  std::uint64_t contacts() const { return contacts_; }

 private:
  bool refill() {
    block_.clear();
    pos_ = 0;
    if (exhausted_) return false;
    const Clock::time_point t0 = Clock::now();
    trace::Contact c;
    while (block_.size() < kBlock && inner_.next(c)) block_.push_back(c);
    seconds_ += seconds_since(t0);
    exhausted_ = block_.size() < kBlock;
    contacts_ += block_.size();
    return !block_.empty();
  }

  trace::ContactStream& inner_;
  std::vector<trace::Contact> block_;
  std::size_t pos_ = 0;
  bool exhausted_ = false;
  double seconds_ = 0.0;
  std::uint64_t contacts_ = 0;
};

/// Protocol decorator: the protocol core's span. Forwards every call to
/// `inner` unchanged, so a traced replay computes exactly what an untraced
/// one does (the determinism gate compares them).
class TimedProtocol final : public sim::Protocol {
 public:
  struct Totals {
    std::uint64_t contacts = 0;  ///< calls
    std::uint64_t messages = 0;
    std::uint64_t contacts_timed = 0;
    std::uint64_t messages_timed = 0;
    std::uint64_t contact_ns = 0;  ///< summed over the timed calls
    std::uint64_t message_ns = 0;
    LogHistogram contact_hist;  ///< timed on_contact calls

    /// Estimated time of all calls: the timed calls' mean times the count.
    double contact_seconds() const {
      return scaled(contact_ns, contacts, contacts_timed);
    }
    double message_seconds() const {
      return scaled(message_ns, messages, messages_timed);
    }

   private:
    static double scaled(std::uint64_t ns, std::uint64_t calls,
                         std::uint64_t timed) {
      return timed == 0 ? 0.0
                        : static_cast<double>(ns) * 1e-9 *
                              static_cast<double>(calls) /
                              static_cast<double>(timed);
    }
  };

  /// `sampled`: time a random eighth of the calls instead of all.
  TimedProtocol(sim::Protocol& inner, bool sampled)
      : inner_(inner), sampled_(sampled) {}

  using sim::Protocol::on_start;
  void on_start(const sim::ScenarioInfo& scenario,
                const workload::Workload& workload,
                metrics::Collector& collector) override {
    const Clock::time_point t0 = Clock::now();
    inner_.on_start(scenario, workload, collector);
    start_s_ = seconds_since(t0);
  }

  void on_message_created(const workload::Message& msg,
                          util::Time now) override {
    Slot& s = slot();
    ++s.t.messages;
    if (sampled_ && !s.sample()) {
      inner_.on_message_created(msg, now);
      return;
    }
    const Clock::time_point t0 = Clock::now();
    inner_.on_message_created(msg, now);
    s.t.message_ns += ns_since(t0);
    ++s.t.messages_timed;
  }

  void on_contact(trace::NodeId a, trace::NodeId b, util::Time now,
                  util::Time duration, sim::Link& link) override {
    Slot& s = slot();
    ++s.t.contacts;
    if (sampled_ && !s.sample()) {
      inner_.on_contact(a, b, now, duration, link);
      return;
    }
    const Clock::time_point t0 = Clock::now();
    inner_.on_contact(a, b, now, duration, link);
    const std::uint64_t ns = ns_since(t0);
    s.t.contact_ns += ns;
    ++s.t.contacts_timed;
    s.t.contact_hist.add(ns);
  }

  void on_end(util::Time now) override {
    const Clock::time_point t0 = Clock::now();
    inner_.on_end(now);
    end_s_ = seconds_since(t0);
  }

  bool parallel_contacts_safe() const override {
    return inner_.parallel_contacts_safe();
  }
  const char* name() const override { return inner_.name(); }

  double start_seconds() const { return start_s_; }
  double end_seconds() const { return end_s_; }

  /// Sum over every thread that called in. Read after the run.
  Totals totals() const {
    Totals out;
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& s : slots_) {
      out.contacts += s->t.contacts;
      out.messages += s->t.messages;
      out.contacts_timed += s->t.contacts_timed;
      out.messages_timed += s->t.messages_timed;
      out.contact_ns += s->t.contact_ns;
      out.message_ns += s->t.message_ns;
      out.contact_hist.merge(s->t.contact_hist);
    }
    return out;
  }

 private:
  struct alignas(64) Slot {
    Totals t;
    std::uint64_t rng = 0x9E3779B97F4A7C15ULL;

    /// True for a random eighth of the calls (xorshift64). A fixed rhythm
    /// aliases with the traces' session structure: every eighth call
    /// overstated haggle's protocol time by 5%, every sixteenth by 14%.
    bool sample() {
      rng ^= rng << 13;
      rng ^= rng >> 7;
      rng ^= rng << 17;
      return (rng & 7) == 0;
    }
  };

  /// This thread's slot, created on its first call. Keyed by a process-
  /// unique id, not the address: a later decorator may reuse this one's.
  Slot& slot() {
    thread_local std::uint64_t owner = 0;
    thread_local Slot* cached = nullptr;
    if (owner != id_) {
      std::lock_guard<std::mutex> lock(mu_);
      slots_.push_back(std::make_unique<Slot>());
      cached = slots_.back().get();
      owner = id_;
    }
    return *cached;
  }

  static std::uint64_t next_id() {
    static std::atomic<std::uint64_t> ids{0};
    return ids.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  sim::Protocol& inner_;
  const bool sampled_;
  const std::uint64_t id_ = next_id();
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Slot>> slots_;
  double start_s_ = 0.0;
  double end_s_ = 0.0;
};

}  // namespace bsub::e2e
