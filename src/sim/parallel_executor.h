// Windowed conflict-batch executor: runs a trace-ordered event stream
// across a thread pool while staying bit-identical to serial execution.
//
// Pipeline per window of `window_events` events:
//   1. ConflictScheduler partitions the window into node-disjoint batches
//      (see conflict_schedule.h for the order-preservation argument);
//   2. each batch runs either inline (small batches — the pool handoff
//      costs more than the work) or chunked across the pool's workers,
//      with wait_idle() as the barrier before the next batch.
//
// Determinism: a node's events execute in trace order (conflicting events
// occupy strictly increasing batches; batches and windows are sequential),
// so all per-node state evolves exactly as in a serial run. Cross-node
// effects must be commutative (relaxed atomic tallies) or per-node logs
// reduced in a canonical order — that is the callee's contract, enforced
// by Protocol::parallel_contacts_safe() at the driver layer.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/conflict_schedule.h"
#include "util/parallel.h"

namespace bsub::sim {

/// Knobs for the windowed conflict-batch executor.
struct ParallelRunConfig {
  /// Worker count; 0 = util::default_thread_count() (honors BSUB_THREADS).
  std::size_t threads = 0;
  /// Events per scheduling window. Larger windows find more parallelism
  /// (batches grow toward node_count/2 events) but delay nothing — windows
  /// are a scheduling granularity, not a semantic boundary.
  std::size_t window_events = 4096;
  /// Batches with fewer than `min_batch_fanout` events per worker run
  /// inline on the calling thread; the pool handoff would dominate.
  std::size_t min_batch_fanout = 4;
};

/// Execution-shape report for one run; feeds the bench JSON so perf
/// trajectories stay apples-to-apples across machines and PRs.
struct ParallelRunStats {
  std::size_t threads_used = 0;
  std::uint64_t events = 0;
  std::uint64_t windows = 0;
  std::uint64_t batches = 0;
  std::uint64_t inline_batches = 0;    ///< ran on the calling thread
  std::uint64_t parallel_batches = 0;  ///< fanned out to the pool
  std::uint64_t max_batch = 0;         ///< largest batch seen
  /// batch_size_log2[k] counts batches with floor(log2(size)) == k.
  std::vector<std::uint64_t> batch_size_log2;

  void note_batch(std::size_t size) {
    ++batches;
    max_batch = std::max<std::uint64_t>(max_batch, size);
    std::size_t bucket = 0;
    for (std::size_t s = size; s > 1; s >>= 1) ++bucket;
    if (batch_size_log2.size() <= bucket) batch_size_log2.resize(bucket + 1);
    ++batch_size_log2[bucket];
  }
};

/// Streaming windowed executor: the event sequence is produced one window
/// at a time by `fill` instead of being materialized up front, so a run
/// holds at most `window_events` events in flight — the ring that makes
/// contact-count-independent memory possible.
///
/// Contract:
///   - `fill(slots)` stages the next up-to-slots.size() events, writing one
///     EventNodes per event into `slots[0..n)` and returning n; 0 means the
///     stream is exhausted. Short windows mid-stream are allowed. The
///     caller typically stages matching per-event payloads in its own
///     parallel buffer.
///   - `exec(j)` executes staged event j (window-local, in [0, n)) of the
///     most recent fill. Within a window, `exec` must tolerate concurrent
///     invocation for events touching disjoint nodes; windows themselves
///     are strictly sequential, so `fill` may reuse its staging buffers.
///
/// Determinism: per-node order is preserved inside each window by the
/// conflict schedule and across windows by sequencing, so a streamed run is
/// bit-identical to a serial run over the same event sequence.
template <class Fill, class Exec>
ParallelRunStats run_windowed_parallel(std::size_t node_count, Fill&& fill,
                                       Exec&& exec,
                                       const ParallelRunConfig& cfg = {}) {
  ParallelRunStats stats;
  const std::size_t threads =
      cfg.threads != 0 ? cfg.threads : util::default_thread_count();
  const std::size_t window =
      cfg.window_events != 0 ? cfg.window_events : 4096;
  std::vector<EventNodes> endpoints(window);

  if (threads <= 1) {
    // Serial degenerates to fill-then-run, window by window: same order,
    // no scheduling overhead, and no windows counted.
    stats.threads_used = 1;
    for (;;) {
      const std::size_t count = fill(std::span<EventNodes>(endpoints));
      if (count == 0) break;
      stats.events += count;
      for (std::size_t j = 0; j < count; ++j) exec(j);
    }
    return stats;
  }

  stats.threads_used = threads;
  util::ThreadPool pool(threads);
  ConflictScheduler scheduler(node_count);
  ConflictSchedule schedule;

  for (;;) {
    const std::size_t count = fill(std::span<EventNodes>(endpoints));
    if (count == 0) break;
    stats.events += count;
    ++stats.windows;
    scheduler.schedule(
        std::span<const EventNodes>(endpoints.data(), count), schedule);

    for (std::size_t k = 0; k < schedule.batch_count(); ++k) {
      const std::span<const std::uint32_t> batch = schedule.batch(k);
      stats.note_batch(batch.size());
      if (batch.size() < cfg.min_batch_fanout * threads) {
        ++stats.inline_batches;
        for (std::uint32_t local : batch) exec(local);
        continue;
      }
      ++stats.parallel_batches;
      const std::size_t chunk = (batch.size() + threads - 1) / threads;
      for (std::size_t t = 0; t < threads; ++t) {
        const std::size_t lo = t * chunk;
        if (lo >= batch.size()) break;
        const std::size_t hi = std::min(lo + chunk, batch.size());
        pool.submit([&, lo, hi] {
          for (std::size_t j = lo; j < hi; ++j) exec(batch[j]);
        });
      }
      pool.wait_idle();  // barrier: conflicting events wait here
    }
  }
  return stats;
}

}  // namespace bsub::sim
