// Unit tests for the windowed dependency-count executor in isolation:
// exactly-once execution, stream order for any two events that share a
// node, the depth/width statistics, and exception handling — the
// properties the parallel engine's determinism argument stands on.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/parallel_executor.h"
#include "util/rng.h"

namespace bsub::sim {
namespace {

constexpr trace::NodeId kNone = EventNodes::kNoNode;

std::vector<EventNodes> contacts(
    std::initializer_list<std::pair<trace::NodeId, trace::NodeId>> pairs) {
  std::vector<EventNodes> out;
  for (auto [a, b] : pairs) out.push_back({a, b});
  return out;
}

/// What one run did to each event: how often it ran, and the global
/// sequence numbers at its start and end.
struct Trace {
  std::vector<std::atomic<int>> runs;
  std::vector<std::uint64_t> start;
  std::vector<std::uint64_t> end;
  std::atomic<std::uint64_t> clock{0};

  explicit Trace(std::size_t n) : runs(n), start(n, 0), end(n, 0) {}
};

/// Replays `events` through run_windowed_parallel. The k-th fill stages
/// `sizes[k]` events (capped by the window), or full windows when `sizes`
/// is empty. Each event spins for a pseudo-random while so that concurrent
/// events overlap; `before(i)` runs first and may throw.
template <class Before>
ParallelRunStats replay(const std::vector<EventNodes>& events,
                        std::size_t node_count, std::size_t window,
                        std::size_t threads, Trace& trace, Before before,
                        const std::vector<std::size_t>& sizes = {}) {
  std::size_t cursor = 0;
  std::size_t fills = 0;
  std::vector<std::size_t> staged[2];
  ParallelRunConfig cfg;
  cfg.threads = threads;
  cfg.window_events = window;
  return run_windowed_parallel(
      node_count,
      [&](std::size_t buffer, std::span<EventNodes> slots) {
        const std::size_t want =
            fills < sizes.size() ? std::min(sizes[fills], slots.size())
                                 : slots.size();
        ++fills;
        staged[buffer].clear();
        std::size_t n = 0;
        while (n < want && cursor < events.size()) {
          staged[buffer].push_back(cursor);
          slots[n++] = events[cursor++];
        }
        return n;
      },
      [&](std::size_t buffer, std::size_t j) {
        const std::size_t i = staged[buffer][j];
        before(i);
        trace.start[i] = trace.clock.fetch_add(1);
        volatile std::uint64_t sink = 0;
        for (std::uint64_t k = 0; k < (i * 2654435761u) % 256; ++k) {
          sink = sink + k;
        }
        trace.runs[i].fetch_add(1);
        trace.end[i] = trace.clock.fetch_add(1);
      },
      cfg);
}

ParallelRunStats replay(const std::vector<EventNodes>& events,
                        std::size_t node_count, std::size_t window,
                        std::size_t threads, Trace& trace,
                        const std::vector<std::size_t>& sizes = {}) {
  return replay(
      events, node_count, window, threads, trace, [](std::size_t) {}, sizes);
}

/// Every event ran exactly once, and each node's execution log (its events
/// by start time) is its stream-order subsequence, each event finishing
/// before the node's next one starts.
void expect_stream_order(const std::vector<EventNodes>& events,
                         std::size_t node_count, const Trace& trace) {
  for (std::size_t i = 0; i < events.size(); ++i) {
    ASSERT_EQ(trace.runs[i].load(), 1) << "event " << i;
  }
  std::vector<std::vector<std::size_t>> stream(node_count);
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].a != kNone) stream[events[i].a].push_back(i);
    if (events[i].b != kNone && events[i].b != events[i].a) {
      stream[events[i].b].push_back(i);
    }
  }
  for (std::size_t n = 0; n < node_count; ++n) {
    std::vector<std::size_t> executed = stream[n];
    std::sort(executed.begin(), executed.end(),
              [&](std::size_t x, std::size_t y) {
                return trace.start[x] < trace.start[y];
              });
    EXPECT_EQ(executed, stream[n]) << "node " << n;
    for (std::size_t k = 1; k < stream[n].size(); ++k) {
      EXPECT_LT(trace.end[stream[n][k - 1]], trace.start[stream[n][k]])
          << "node " << n << ": events " << stream[n][k - 1] << " and "
          << stream[n][k] << " overlapped";
    }
  }
}

/// Reference statistics over windows of the given sizes (full windows
/// when empty): level = 1 + the highest level of the window's previous
/// event on either endpoint; depths summed, widths maxed.
ParallelRunStats reference_stats(const std::vector<EventNodes>& events,
                                 std::size_t node_count, std::size_t window,
                                 const std::vector<std::size_t>& sizes = {}) {
  ParallelRunStats s;
  std::size_t lo = 0;
  for (std::size_t k = 0; lo < events.size(); ++k) {
    const std::size_t size =
        k < sizes.size() ? std::min(sizes[k], window) : window;
    const std::size_t hi = std::min(events.size(), lo + size);
    std::vector<std::uint64_t> level_of_node(node_count, 0);
    std::vector<std::uint64_t> width;
    std::uint64_t depth = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      const EventNodes& e = events[i];
      std::uint64_t level = 0;
      if (e.a != kNone) level = std::max(level, level_of_node[e.a]);
      if (e.b != kNone) level = std::max(level, level_of_node[e.b]);
      ++level;
      if (e.a != kNone) level_of_node[e.a] = level;
      if (e.b != kNone) level_of_node[e.b] = level;
      if (width.size() <= level) width.resize(level + 1, 0);
      ++width[level];
      depth = std::max(depth, level);
    }
    ++s.windows;
    s.batches += depth;
    s.max_batch =
        std::max(s.max_batch, *std::max_element(width.begin(), width.end()));
    lo = hi;
  }
  s.events = events.size();
  return s;
}

void expect_stats(const ParallelRunStats& got, const ParallelRunStats& want,
                  std::size_t threads) {
  EXPECT_EQ(got.threads_used, threads);
  EXPECT_EQ(got.events, want.events);
  EXPECT_EQ(got.windows, want.windows);
  EXPECT_EQ(got.batches, want.batches);
  EXPECT_EQ(got.max_batch, want.max_batch);
  EXPECT_EQ(got.inline_batches, 0u);
}

TEST(DependencyExecutor, EmptyStreamRunsNothing) {
  Trace trace(0);
  const ParallelRunStats s = replay({}, 8, 16, 4, trace);
  EXPECT_EQ(s.events, 0u);
  EXPECT_EQ(s.windows, 0u);
  EXPECT_EQ(s.batches, 0u);
  EXPECT_EQ(s.threads_used, 1u);
}

TEST(DependencyExecutor, DisjointContactsShareOneLevel) {
  const auto events = contacts({{0, 1}, {2, 3}, {4, 5}, {6, 7}});
  Trace trace(events.size());
  const ParallelRunStats s = replay(events, 8, 16, 4, trace);
  expect_stream_order(events, 8, trace);
  EXPECT_EQ(s.batches, 1u);
  EXPECT_EQ(s.max_batch, 4u);
}

TEST(DependencyExecutor, ChainOnOneNodeRunsInStreamOrder) {
  // Every contact shares node 0: the run must degenerate to serial.
  const auto events = contacts({{0, 1}, {0, 2}, {0, 3}, {0, 4}});
  Trace trace(events.size());
  const ParallelRunStats s = replay(events, 8, 16, 4, trace);
  expect_stream_order(events, 8, trace);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(trace.end[i - 1], trace.start[i]);
  }
  EXPECT_EQ(s.batches, 4u);
  EXPECT_EQ(s.max_batch, 1u);
}

TEST(DependencyExecutor, SameTimestampContactsSharingANodeStayOrdered) {
  // Contacts at identical timestamps are still distinct stream positions;
  // the executor only sees stream order, and must keep {1,2} before {2,3}
  // (they share node 2) while {4,5} sits on the first level.
  const auto events = contacts({{1, 2}, {2, 3}, {4, 5}});
  Trace trace(events.size());
  const ParallelRunStats s = replay(events, 8, 16, 4, trace);
  expect_stream_order(events, 8, trace);
  EXPECT_LT(trace.end[0], trace.start[1]);
  EXPECT_EQ(s.batches, 2u);
  EXPECT_EQ(s.max_batch, 2u);
}

TEST(DependencyExecutor, CreationEventsOrderAgainstContacts) {
  // A message creation only touches its producer (b == kNoNode), but must
  // still order against contacts involving that producer.
  std::vector<EventNodes> events;
  events.push_back({3, kNone});  // creation at node 3
  events.push_back({3, 4});      // contact using node 3: after it
  events.push_back({5, kNone});  // creation elsewhere: level 1
  events.push_back({5, kNone});  // second creation at 5: after the first
  Trace trace(events.size());
  const ParallelRunStats s = replay(events, 8, 16, 4, trace);
  expect_stream_order(events, 8, trace);
  EXPECT_LT(trace.end[0], trace.start[1]);
  EXPECT_LT(trace.end[2], trace.start[3]);
  EXPECT_EQ(s.batches, 2u);
  EXPECT_EQ(s.max_batch, 2u);
}

TEST(DependencyExecutor, RepeatedPairSharesOnePredecessor) {
  // {0,1} twice: the second event's endpoints both lead to the first, which
  // must release it once, not twice; {1,2} then waits on the second only.
  const auto events = contacts({{0, 1}, {1, 0}, {1, 2}, {0, 1}, {3, 4}});
  for (std::size_t threads : {2u, 4u}) {
    Trace trace(events.size());
    const ParallelRunStats s = replay(events, 5, 16, threads, trace);
    expect_stream_order(events, 5, trace);
    expect_stats(s, reference_stats(events, 5, 16), threads);
    EXPECT_EQ(s.batches, 4u);
  }
}

TEST(DependencyExecutor, LinkTableForgetsEarlierWindows) {
  // Windows of 3: the same three events staged again two windows later
  // must get the same levels — the per-node table keeps nothing from the
  // windows before.
  const auto w1 = contacts({{0, 1}, {1, 2}, {3, 4}});
  std::vector<EventNodes> events = w1;
  for (const EventNodes& e : contacts({{0, 5}, {5, 1}, {2, 3}})) {
    events.push_back(e);
  }
  events.insert(events.end(), w1.begin(), w1.end());
  Trace trace(events.size());
  const ParallelRunStats s = replay(events, 16, 3, 4, trace);
  expect_stream_order(events, 16, trace);
  EXPECT_EQ(s.windows, 3u);
  EXPECT_EQ(s.batches, 2u + 2u + 2u);
  EXPECT_EQ(s.max_batch, 2u);
}

TEST(DependencyExecutor, ShortWindowAfterLongChainStartsAtLevelOne) {
  // A window's chain can be longer than the next window has events; the
  // next window must still start from level 1.
  std::vector<EventNodes> events;
  for (trace::NodeId n = 1; n <= 10; ++n) events.push_back({0, n});
  for (const EventNodes& e : contacts({{0, 1}, {2, 3}})) events.push_back(e);
  Trace trace(events.size());
  const ParallelRunStats s = replay(events, 16, 10, 4, trace);
  expect_stream_order(events, 16, trace);
  EXPECT_EQ(s.windows, 2u);
  EXPECT_EQ(s.batches, 10u + 1u);
  EXPECT_EQ(s.max_batch, 2u);
}

/// Appends up to `count` events over `nodes` nodes in one of four shapes
/// and returns how many: random contacts with some creations and repeated
/// pairs, a chain on one node, fully disjoint contacts (at most nodes / 2
/// of them), or one repeated pair.
std::size_t append_window(util::Rng& rng, std::size_t nodes,
                          std::size_t count, std::vector<EventNodes>& out) {
  const auto node = [&] {
    return static_cast<trace::NodeId>(rng.next_below(nodes));
  };
  const auto other = [&](trace::NodeId a) {
    auto b = node();
    while (b == a) b = node();
    return b;
  };
  switch (rng.next_below(4)) {
    case 0: {  // chain on one node
      const trace::NodeId hub = node();
      for (std::size_t i = 0; i < count; ++i) {
        out.push_back(rng.next_below(4) == 0 ? EventNodes{hub, kNone}
                                             : EventNodes{hub, other(hub)});
      }
      return count;
    }
    case 1: {  // fully disjoint: each node at most once
      const std::size_t pairs = std::min(count, nodes / 2);
      for (std::size_t i = 0; i < pairs; ++i) {
        out.push_back({static_cast<trace::NodeId>(2 * i),
                       static_cast<trace::NodeId>(2 * i + 1)});
      }
      return pairs;
    }
    case 2: {  // one repeated pair, sometimes swapped
      const trace::NodeId a = node();
      const trace::NodeId b = other(a);
      for (std::size_t i = 0; i < count; ++i) {
        out.push_back(rng.next_below(2) == 0 ? EventNodes{a, b}
                                             : EventNodes{b, a});
      }
      return count;
    }
    default:  // random mix
      for (std::size_t i = 0; i < count; ++i) {
        const trace::NodeId a = node();
        if (rng.next_below(8) == 0) {
          out.push_back({a, kNone});  // creation
        } else if (i > 0 && rng.next_below(6) == 0 &&
                   out.back().b != kNone) {
          out.push_back(out.back());  // repeated pair
        } else {
          out.push_back({a, other(a)});
        }
      }
      return count;
  }
}

TEST(DependencyExecutor, RandomizedWindowsKeepStreamOrderPerNode) {
  util::Rng rng(2010);
  for (std::size_t window : {1u, 2u, 7u, 256u}) {
    for (std::size_t threads : {2u, 4u}) {
      const std::size_t nodes = 2 + rng.next_below(60);
      std::vector<EventNodes> events;
      std::vector<std::size_t> sizes;
      for (int w = 0; w < 60; ++w) {
        // Mostly full windows, some short ones mid-stream.
        const std::size_t want =
            rng.next_below(5) == 0 ? 1 + rng.next_below(window) : window;
        const std::size_t got = append_window(rng, nodes, want, events);
        if (got > 0) sizes.push_back(got);
      }
      Trace trace(events.size());
      const ParallelRunStats s =
          replay(events, nodes, window, threads, trace, sizes);
      SCOPED_TRACE(::testing::Message()
                   << "window " << window << ", threads " << threads
                   << ", nodes " << nodes);
      expect_stream_order(events, nodes, trace);
      expect_stats(s, reference_stats(events, nodes, window, sizes), threads);
      EXPECT_EQ(s.windows, sizes.size());
      EXPECT_GE(s.windows, 50u);
    }
  }
}

TEST(DependencyExecutor, EightThreadsOnThreeNodes) {
  // Far more threads than independent events: most threads idle while
  // three nodes' chains interleave.
  util::Rng rng(3);
  std::vector<EventNodes> events;
  while (events.size() < 40 * 64) append_window(rng, 3, 64, events);
  Trace trace(events.size());
  const ParallelRunStats s = replay(events, 3, 64, 8, trace);
  expect_stream_order(events, 3, trace);
  expect_stats(s, reference_stats(events, 3, 64), 8);
}

TEST(DependencyExecutor, ThrowingEventIsRethrownAndStopsLaterWindows) {
  constexpr std::size_t kWindow = 32;
  util::Rng rng(7);
  std::vector<EventNodes> events;
  while (events.size() < 6 * kWindow) append_window(rng, 16, kWindow, events);
  const std::size_t thrower = 2 * kWindow + 5;  // inside the third window

  Trace trace(events.size());
  EXPECT_THROW(replay(events, 16, kWindow, 4, trace,
                      [&](std::size_t i) {
                        if (i == thrower) throw std::runtime_error("boom");
                      }),
               std::runtime_error);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_LE(trace.runs[i].load(), 1) << "event " << i;
    if (i < 2 * kWindow) {
      EXPECT_EQ(trace.runs[i].load(), 1) << "event " << i;
    }
    if (i >= 3 * kWindow) {
      EXPECT_EQ(trace.runs[i].load(), 0) << "later window ran event " << i;
    }
  }
  EXPECT_EQ(trace.runs[thrower].load(), 0);

  // A second executor afterwards runs normally.
  Trace again(events.size());
  const ParallelRunStats s = replay(events, 16, kWindow, 4, again);
  expect_stream_order(events, 16, again);
  expect_stats(s, reference_stats(events, 16, kWindow), 4);
}

TEST(DependencyExecutor, FillExceptionIsRethrownAfterTheRunningWindow) {
  constexpr std::size_t kWindow = 16;
  util::Rng rng(11);
  std::vector<EventNodes> events;
  while (events.size() < 2 * kWindow) append_window(rng, 8, kWindow, events);
  Trace trace(events.size());
  std::size_t fills = 0;
  std::size_t cursor = 0;
  std::vector<std::size_t> staged[2];
  ParallelRunConfig cfg;
  cfg.threads = 4;
  cfg.window_events = kWindow;
  EXPECT_THROW(
      run_windowed_parallel(
          8,
          [&](std::size_t buffer, std::span<EventNodes> slots) {
            if (++fills == 3) throw std::runtime_error("stream failed");
            staged[buffer].clear();
            std::size_t n = 0;
            while (n < slots.size() && cursor < events.size()) {
              staged[buffer].push_back(cursor);
              slots[n++] = events[cursor++];
            }
            return n;
          },
          [&](std::size_t buffer, std::size_t j) {
            trace.runs[staged[buffer][j]].fetch_add(1);
          },
          cfg),
      std::runtime_error);
  // The first window ran to completion before the failing fill; nothing
  // ran twice.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_LE(trace.runs[i].load(), 1) << "event " << i;
    if (i < kWindow) {
      EXPECT_EQ(trace.runs[i].load(), 1) << "event " << i;
    }
  }
}

TEST(DependencyExecutor, EndpointOutsideTheNodesThrows) {
  const auto events = contacts({{0, 1}, {2, 9}});
  Trace trace(events.size());
  EXPECT_THROW(replay(events, 4, 16, 2, trace), std::out_of_range);
}

}  // namespace
}  // namespace bsub::sim
