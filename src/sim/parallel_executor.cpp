#include "sim/parallel_executor.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace bsub::sim::detail {
namespace {

constexpr std::uint32_t kNone = 0xffffffffu;

/// Queue positions and queued events carry the window's sequence number in
/// their upper 32 bits, so a value left over from an earlier window never
/// matches the current one.
constexpr std::uint64_t kEpochMask = ~std::uint64_t{0xffffffffu};

/// Polls an idle thread makes before it blocks in atomic::wait.
constexpr int kSpinRounds = 128;

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// One staged window and its dependency links.
struct Frame {
  std::vector<EventNodes> nodes;
  /// succ[2j] and succ[2j + 1]: the next event of the window on j's a and
  /// b endpoint, or kNone. When both endpoints lead to the same event only
  /// the a slot is set, so every event is released exactly once per
  /// distinct predecessor.
  std::vector<std::uint32_t> succ;
  /// Unfinished distinct predecessors per event.
  std::unique_ptr<std::atomic<std::uint32_t>[]> pending;
};

/// One multi-threaded run: the thread team, the two frames and the shared
/// ready queue. Windows are numbered from 1; window w lives in frame w & 1.
class DependencyRun {
 public:
  DependencyRun(std::size_t node_count, std::size_t threads,
                std::size_t window, const WindowCallbacks& callbacks)
      : callbacks_(callbacks), threads_(threads), last_(node_count, 0),
        level_(window),
        ready_(new std::atomic<std::uint64_t>[window]()) {
    for (Frame& f : frames_) {
      f.nodes.resize(window);
      f.succ.resize(2 * window);
      f.pending.reset(new std::atomic<std::uint32_t>[window]());
    }
  }

  ~DependencyRun() { shutdown(); }

  DependencyRun(const DependencyRun&) = delete;
  DependencyRun& operator=(const DependencyRun&) = delete;

  ParallelRunStats run() {
    ParallelRunStats stats;
    stats.threads_used = 1;
    std::uint64_t w = 1;
    std::size_t count = fill(w);
    if (count == 0) return stats;  // nothing to run: no team, a serial run
    stats.threads_used = threads_;

    std::exception_ptr caller_error;
    try {
      workers_.reserve(threads_ - 1);
      for (std::size_t t = 1; t < threads_; ++t) {
        workers_.emplace_back([this] { worker_loop(); });
      }
      for (;;) {
        link_and_publish(w, count, stats);
        // Stage the next window while this one runs, then help drain it.
        const std::size_t next = fill(w + 1);
        help_until_drained();
        if (failed_.load(std::memory_order_acquire) || next == 0) break;
        ++w;
        count = next;
      }
    } catch (...) {
      caller_error = std::current_exception();
    }
    shutdown();
    if (error_) std::rethrow_exception(error_);
    if (caller_error) std::rethrow_exception(caller_error);
    return stats;
  }

 private:
  std::size_t fill(std::uint64_t w) {
    Frame& f = frames_[w & 1];
    return callbacks_.fill(callbacks_.fill_ctx, w & 1,
                           std::span<EventNodes>(f.nodes));
  }

  /// Index of the latest event of window `epoch` on `node`, or kNone.
  std::uint32_t previous(trace::NodeId node, std::uint64_t epoch) const {
    const std::uint64_t v = last_[node];
    return (v & kEpochMask) == epoch ? static_cast<std::uint32_t>(v) : kNone;
  }

  void check_node(trace::NodeId node) const {
    if (node != EventNodes::kNoNode && node >= last_.size()) {
      throw std::out_of_range("event endpoint " + std::to_string(node) +
                              " outside the " +
                              std::to_string(last_.size()) + " nodes");
    }
  }

  /// Links window `w` (`count` events staged in its frame), records its
  /// depth and widest level, and hands its roots to the team. Runs only
  /// while no window is in flight.
  void link_and_publish(std::uint64_t w, std::size_t count,
                        ParallelRunStats& stats) {
    Frame& f = frames_[w & 1];
    const std::uint64_t epoch = w << 32;
    level_count_.assign(1, 0);
    std::uint32_t roots = 0;
    for (std::uint32_t j = 0; j < count; ++j) {
      const EventNodes e = f.nodes[j];
      check_node(e.a);
      check_node(e.b);
      const std::uint32_t pa =
          e.a != EventNodes::kNoNode ? previous(e.a, epoch) : kNone;
      const std::uint32_t pb = e.b != EventNodes::kNoNode && e.b != e.a
                                   ? previous(e.b, epoch)
                                   : kNone;
      f.succ[2 * j] = kNone;
      f.succ[2 * j + 1] = kNone;
      std::uint32_t preds = 0;
      std::uint32_t level = 0;
      const auto link = [&](std::uint32_t p, trace::NodeId node) {
        f.succ[2 * p + (f.nodes[p].a == node ? 0 : 1)] = j;
        level = std::max(level, level_[p]);
        ++preds;
      };
      if (pa != kNone) link(pa, e.a);
      if (pb != kNone && pb != pa) link(pb, e.b);
      level_[j] = ++level;
      if (level_count_.size() <= level) level_count_.resize(level + 1, 0);
      ++level_count_[level];
      f.pending[j].store(preds, std::memory_order_relaxed);
      if (preds == 0) {
        ready_[roots++].store(epoch | j, std::memory_order_relaxed);
      }
      if (e.a != EventNodes::kNoNode) last_[e.a] = epoch | j;
      if (e.b != EventNodes::kNoNode) last_[e.b] = epoch | j;
    }
    stats.events += count;
    ++stats.windows;
    stats.batches += level_count_.size() - 1;
    stats.max_batch = std::max<std::uint64_t>(
        stats.max_batch,
        *std::max_element(level_count_.begin(), level_count_.end()));

    remaining_.store(count, std::memory_order_relaxed);
    tail_.store(epoch | roots, std::memory_order_seq_cst);
    head_.store(epoch, std::memory_order_seq_cst);
    wake(true);
  }

  bool queue_nonempty() const {
    const std::uint64_t h = head_.load(std::memory_order_seq_cst);
    const std::uint64_t t = tail_.load(std::memory_order_seq_cst);
    return (h & kEpochMask) == (t & kEpochMask) && t > h;
  }

  /// Claims the next ready event (its window epoch | index).
  bool try_pop(std::uint64_t& item) {
    std::uint64_t h = head_.load(std::memory_order_acquire);
    for (;;) {
      const std::uint64_t t = tail_.load(std::memory_order_acquire);
      if ((h & kEpochMask) != (t & kEpochMask) || t <= h) return false;
      if (head_.compare_exchange_weak(h, h + 1, std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
        break;
      }
    }
    // The pusher reserved the position before writing it; wait for the
    // write, recognised by this window's epoch.
    std::atomic<std::uint64_t>& slot = ready_[h & ~kEpochMask];
    std::uint64_t v = slot.load(std::memory_order_acquire);
    while ((v & kEpochMask) != (h & kEpochMask)) {
      cpu_relax();
      v = slot.load(std::memory_order_acquire);
    }
    item = v;
    return true;
  }

  void push(std::uint64_t epoch, std::uint32_t event) {
    const std::uint64_t t = tail_.fetch_add(1, std::memory_order_seq_cst);
    ready_[t & ~kEpochMask].store(epoch | event, std::memory_order_release);
    wake(false);
  }

  /// Runs `item` and then, as long as the event just run released one, a
  /// successor; a second released successor goes to the queue.
  void run_chain(std::uint64_t item) {
    const std::uint64_t epoch = item & kEpochMask;
    const std::size_t buffer = (epoch >> 32) & 1;
    Frame& f = frames_[buffer];
    auto e = static_cast<std::uint32_t>(item);
    std::size_t done = 0;
    for (;;) {
      if (!failed_.load(std::memory_order_relaxed)) {
        try {
          callbacks_.exec(callbacks_.exec_ctx, buffer, e);
        } catch (...) {
          record(std::current_exception());
        }
      }
      ++done;
      std::uint32_t next = kNone;
      for (std::uint32_t s : {f.succ[2 * e], f.succ[2 * e + 1]}) {
        if (s == kNone ||
            f.pending[s].fetch_sub(1, std::memory_order_acq_rel) != 1) {
          continue;
        }
        if (next == kNone) {
          next = s;
        } else {
          push(epoch, std::max(next, s));
          next = std::min(next, s);
        }
      }
      if (next == kNone) break;
      e = next;
    }
    if (remaining_.fetch_sub(done, std::memory_order_seq_cst) == done) {
      wake(true);  // window drained
    }
  }

  void record(std::exception_ptr error) {
    std::lock_guard<std::mutex> lock(error_mu_);
    if (!error_) error_ = std::move(error);
    failed_.store(true, std::memory_order_release);
  }

  /// Wakes blocked threads after a push, a drain or a publish. The change
  /// and this load are seq_cst, like the sleeper's registration and
  /// recheck in idle(): either the recheck sees the change, or this load
  /// sees the sleeper.
  void wake(bool all) {
    if (sleepers_.load(std::memory_order_seq_cst) == 0) return;
    signal_.fetch_add(1, std::memory_order_release);
    if (all) {
      signal_.notify_all();
    } else {
      signal_.notify_one();
    }
  }

  /// Returns once `ready()` holds or after one blocking wait: a short
  /// spin, then atomic::wait on the wake signal.
  template <class Ready>
  void idle(Ready ready) {
    for (int i = 0; i < kSpinRounds; ++i) {
      if (ready()) return;
      cpu_relax();
    }
    const std::uint32_t seen = signal_.load(std::memory_order_acquire);
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    if (!ready()) signal_.wait(seen, std::memory_order_acquire);
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
  }

  void worker_loop() {
    for (;;) {
      std::uint64_t item = 0;
      if (try_pop(item)) {
        run_chain(item);
        continue;
      }
      if (stop_.load(std::memory_order_acquire)) return;
      idle([this] {
        return queue_nonempty() || stop_.load(std::memory_order_acquire);
      });
    }
  }

  /// The calling thread's share of a window: run ready events until the
  /// window has drained.
  void help_until_drained() {
    while (remaining_.load(std::memory_order_acquire) != 0) {
      std::uint64_t item = 0;
      if (try_pop(item)) {
        run_chain(item);
        continue;
      }
      idle([this] {
        return queue_nonempty() ||
               remaining_.load(std::memory_order_seq_cst) == 0;
      });
    }
  }

  /// Drains a window left in flight (skipping its unstarted events), then
  /// stops and joins the team. Idempotent.
  void shutdown() {
    if (remaining_.load(std::memory_order_acquire) != 0) {
      failed_.store(true, std::memory_order_release);
      help_until_drained();
    }
    stop_.store(true, std::memory_order_release);
    signal_.fetch_add(1, std::memory_order_release);
    signal_.notify_all();
    for (std::thread& t : workers_) t.join();
    workers_.clear();
  }

  const WindowCallbacks callbacks_;
  const std::size_t threads_;
  std::array<Frame, 2> frames_;
  /// Per node: epoch | index of its latest event in the window being
  /// linked; entries of older windows read as "none".
  std::vector<std::uint64_t> last_;
  std::vector<std::uint32_t> level_;         ///< linking scratch
  std::vector<std::uint64_t> level_count_;   ///< events per level
  std::unique_ptr<std::atomic<std::uint64_t>[]> ready_;

  alignas(64) std::atomic<std::uint64_t> head_{0};
  alignas(64) std::atomic<std::uint64_t> tail_{0};
  alignas(64) std::atomic<std::size_t> remaining_{0};
  alignas(64) std::atomic<std::uint32_t> signal_{0};
  std::atomic<std::uint32_t> sleepers_{0};
  std::atomic<bool> stop_{false};
  std::atomic<bool> failed_{false};

  std::mutex error_mu_;
  std::exception_ptr error_;
  std::vector<std::thread> workers_;
};

}  // namespace

ParallelRunStats run_dependency_windows(std::size_t node_count,
                                        std::size_t threads,
                                        std::size_t window,
                                        const WindowCallbacks& callbacks) {
  if (window >= kNone) {
    throw std::invalid_argument("window_events must be below 2^32 - 1");
  }
  DependencyRun run(node_count, threads, window, callbacks);
  return run.run();
}

}  // namespace bsub::sim::detail
