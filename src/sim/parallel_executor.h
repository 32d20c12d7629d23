// Windowed dependency-count executor: runs a trace-ordered event stream on
// several threads while staying bit-identical to serial execution.
//
// The structural fact it rests on (PAPER §VII's evaluation model): an
// event — a contact {a, b} or a message creation at its producer — mutates
// only the state of its endpoint node(s). Two events with disjoint endpoint
// sets commute exactly; two events sharing a node must run in stream order.
//
// Per window of `window_events` events:
//   1. Linking (calling thread): each event is linked to the previous event
//      of the same window on each of its endpoints and keeps an atomic
//      count of unfinished predecessors. Edges never cross a window.
//   2. Running: `threads` threads, the calling thread included, run any
//      event whose count is zero. Finishing an event decrements its (at
//      most two) successors; a thread goes straight into a successor it
//      released and queues a second one for any idle thread.
//   3. Overlap: while window n runs, the calling thread stages window n+1
//      into the other of two buffers, then joins the run. It links window
//      n+1 once window n has drained.
//
// Determinism: two events sharing a node are ordered by a chain of edges
// in stream order, so each node sees its events in exactly the serial
// order and per-node state evolves as in a serial run. Cross-node effects
// must be commutative (relaxed atomic tallies) or per-node logs reduced in
// a canonical order — that is the callee's contract, enforced by
// Protocol::parallel_contacts_safe() at the driver layer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "trace/contact.h"
#include "util/parallel.h"

namespace bsub::sim {

/// Endpoint set of one event. Single-node events (message creations) use
/// b == kNoNode.
struct EventNodes {
  static constexpr trace::NodeId kNoNode = 0xffffffffu;
  trace::NodeId a = kNoNode;
  trace::NodeId b = kNoNode;
};

/// Knobs for the windowed executor.
struct ParallelRunConfig {
  /// Threads running events, the calling thread included; 0 =
  /// util::default_thread_count() (honors BSUB_THREADS), 1 = serial.
  std::size_t threads = 0;
  /// Events per window. A window bounds the events in flight (two windows
  /// are staged at once) and the reach of the dependency links; it is not
  /// a semantic boundary.
  std::size_t window_events = 4096;
};

/// Execution-shape report for one run; feeds the bench JSON so perf
/// trajectories stay apples-to-apples across machines and PRs.
struct ParallelRunStats {
  /// Threads that ran events; 1 for a serial or empty run.
  std::size_t threads_used = 0;
  std::uint64_t events = 0;
  std::uint64_t windows = 0;
  /// Sum over windows of the dependency depth: an event's level is 1 + the
  /// highest level among its predecessors, and a window's depth is its
  /// highest level (the longest chain of events sharing nodes).
  std::uint64_t batches = 0;
  /// Always 0: no event runs inline outside the thread team. Kept because
  /// the end-to-end bench reads it.
  std::uint64_t inline_batches = 0;
  std::uint64_t max_batch = 0;  ///< most events on one level of one window
};

namespace detail {

/// Type-erased callbacks of run_windowed_parallel (see its contract).
struct WindowCallbacks {
  void* fill_ctx = nullptr;
  std::size_t (*fill)(void* ctx, std::size_t buffer,
                      std::span<EventNodes> slots) = nullptr;
  void* exec_ctx = nullptr;
  void (*exec)(void* ctx, std::size_t buffer, std::size_t j) = nullptr;
};

/// The multi-threaded path of run_windowed_parallel; `threads` >= 2.
ParallelRunStats run_dependency_windows(std::size_t node_count,
                                        std::size_t threads,
                                        std::size_t window,
                                        const WindowCallbacks& callbacks);

}  // namespace detail

/// Streaming windowed executor: the event sequence is produced one window
/// at a time by `fill` instead of being materialized up front, so a run
/// holds at most two windows of events — the ring that makes
/// contact-count-independent memory possible.
///
/// Contract:
///   - `fill(buffer, slots)` stages the next up-to-slots.size() events
///     into staging buffer `buffer` (0 or 1), writing one EventNodes per
///     event into `slots[0..n)` and returning n; 0 means the stream is
///     exhausted. Short windows mid-stream are allowed. Windows alternate
///     between the two buffers, and `fill` for one window runs while the
///     previous window's events execute, so the caller keeps its per-event
///     payloads in two buffers too.
///   - `exec(buffer, j)` executes staged event j (in [0, n)) of `buffer`.
///     It may run concurrently with `fill` of the other buffer and with
///     `exec` of events touching disjoint nodes, on any of the threads.
///   - The first exception `exec` throws is rethrown once its window has
///     drained (events of that window not yet started are skipped); no
///     later window starts. An exception from `fill` is rethrown the same
///     way. Every thread is joined before the call returns or throws.
///
/// Determinism: per-node order is preserved inside a window by the
/// dependency links and across windows by sequencing, so a streamed run is
/// bit-identical to a serial run over the same event sequence.
template <class Fill, class Exec>
ParallelRunStats run_windowed_parallel(std::size_t node_count, Fill&& fill,
                                       Exec&& exec,
                                       const ParallelRunConfig& cfg = {}) {
  const std::size_t threads =
      cfg.threads != 0 ? cfg.threads : util::default_thread_count();
  const std::size_t window =
      cfg.window_events != 0 ? cfg.window_events : 4096;

  if (threads <= 1) {
    // Serial degenerates to fill-then-run, window by window, in one
    // buffer: same order, no linking, and no windows counted.
    ParallelRunStats stats;
    stats.threads_used = 1;
    std::vector<EventNodes> endpoints(window);
    for (;;) {
      const std::size_t count = fill(0, std::span<EventNodes>(endpoints));
      if (count == 0) break;
      stats.events += count;
      for (std::size_t j = 0; j < count; ++j) exec(0, j);
    }
    return stats;
  }

  using FillT = std::remove_reference_t<Fill>;
  using ExecT = std::remove_reference_t<Exec>;
  detail::WindowCallbacks callbacks;
  callbacks.fill_ctx =
      const_cast<void*>(static_cast<const void*>(std::addressof(fill)));
  callbacks.fill = [](void* ctx, std::size_t buffer,
                      std::span<EventNodes> slots) -> std::size_t {
    return (*static_cast<FillT*>(ctx))(buffer, slots);
  };
  callbacks.exec_ctx =
      const_cast<void*>(static_cast<const void*>(std::addressof(exec)));
  callbacks.exec = [](void* ctx, std::size_t buffer, std::size_t j) {
    (*static_cast<ExecT*>(ctx))(buffer, j);
  };
  return detail::run_dependency_windows(node_count, threads, window,
                                        callbacks);
}

}  // namespace bsub::sim
