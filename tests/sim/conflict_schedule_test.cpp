// Unit tests for the conflict-batch scheduler in isolation: node-disjoint
// batches, exactly-once scheduling, and trace-order preservation between
// conflicting events — the three properties the parallel engine's
// determinism argument stands on.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_map>
#include <vector>

#include "sim/conflict_schedule.h"
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

/// Checks the three scheduler invariants for any event list.
void check_invariants(std::span<const EventNodes> events,
                      const ConflictSchedule& s) {
  // Every event scheduled exactly once.
  std::vector<std::uint32_t> sorted(s.order);
  std::sort(sorted.begin(), sorted.end());
  ASSERT_EQ(sorted.size(), events.size());
  for (std::uint32_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);

  // Batches are node-disjoint.
  for (std::size_t k = 0; k < s.batch_count(); ++k) {
    std::set<trace::NodeId> seen;
    for (std::uint32_t idx : s.batch(k)) {
      const EventNodes& e = events[idx];
      if (e.a != kNone) {
        EXPECT_TRUE(seen.insert(e.a).second)
            << "node " << e.a << " twice in batch " << k;
      }
      if (e.b != kNone) {
        EXPECT_TRUE(seen.insert(e.b).second)
            << "node " << e.b << " twice in batch " << k;
      }
    }
  }

  // Conflicting events preserve input (trace) order: for any two events
  // sharing a node, the earlier event sits in a strictly earlier batch.
  std::vector<std::size_t> batch_of(events.size());
  for (std::size_t k = 0; k < s.batch_count(); ++k) {
    for (std::uint32_t idx : s.batch(k)) batch_of[idx] = k;
  }
  for (std::size_t i = 0; i < events.size(); ++i) {
    for (std::size_t j = i + 1; j < events.size(); ++j) {
      const EventNodes& x = events[i];
      const EventNodes& y = events[j];
      const bool conflict =
          (x.a != kNone && (x.a == y.a || x.a == y.b)) ||
          (x.b != kNone && (x.b == y.a || x.b == y.b));
      if (conflict) {
        EXPECT_LT(batch_of[i], batch_of[j])
            << "events " << i << " and " << j << " conflict but are not in "
            << "strictly increasing batches";
      }
    }
  }
}

TEST(ConflictScheduler, EmptyWindow) {
  ConflictScheduler sched(8);
  const ConflictSchedule s = sched.schedule({});
  EXPECT_EQ(s.batch_count(), 0u);
  EXPECT_TRUE(s.order.empty());
}

TEST(ConflictScheduler, DisjointContactsShareOneBatch) {
  ConflictScheduler sched(8);
  const auto events = contacts({{0, 1}, {2, 3}, {4, 5}, {6, 7}});
  const ConflictSchedule s = sched.schedule(events);
  EXPECT_EQ(s.batch_count(), 1u);
  check_invariants(events, s);
}

TEST(ConflictScheduler, ChainOnOneNodeSerializesFully) {
  // Every contact shares node 0: the schedule must degenerate to serial.
  ConflictScheduler sched(8);
  const auto events = contacts({{0, 1}, {0, 2}, {0, 3}, {0, 4}});
  const ConflictSchedule s = sched.schedule(events);
  EXPECT_EQ(s.batch_count(), 4u);
  for (std::size_t k = 0; k < 4; ++k) {
    ASSERT_EQ(s.batch(k).size(), 1u);
    EXPECT_EQ(s.batch(k)[0], k);  // trace order preserved
  }
  check_invariants(events, s);
}

TEST(ConflictScheduler, SameTimestampContactsSharingANodeStayOrdered) {
  // Contacts at identical timestamps are still distinct stream positions;
  // the scheduler only sees stream order, and must keep {1,2} before {2,3}
  // (they share node 2) while letting {4,5} ride in the first batch.
  ConflictScheduler sched(8);
  const auto events = contacts({{1, 2}, {2, 3}, {4, 5}});
  const ConflictSchedule s = sched.schedule(events);
  ASSERT_EQ(s.batch_count(), 2u);
  check_invariants(events, s);
  // Batch 0 holds {1,2} and {4,5}; batch 1 holds {2,3}.
  EXPECT_EQ(s.batch(0).size(), 2u);
  EXPECT_EQ(s.batch(1).size(), 1u);
  EXPECT_EQ(s.batch(1)[0], 1u);
}

TEST(ConflictScheduler, SingleNodeCreationEventsConflictWithContacts) {
  // A message creation only touches its producer (b == kNoNode), but must
  // still order against contacts involving that producer.
  ConflictScheduler sched(8);
  std::vector<EventNodes> events;
  events.push_back({3, kNone});  // creation at node 3
  events.push_back({3, 4});      // contact using node 3 -> later batch
  events.push_back({5, kNone});  // creation elsewhere -> batch 0
  events.push_back({5, kNone});  // second creation at 5 -> must serialize
  const ConflictSchedule s = sched.schedule(events);
  check_invariants(events, s);
  ASSERT_EQ(s.batch_count(), 2u);
  EXPECT_EQ(s.batch(0).size(), 2u);  // creation@3, creation@5
  EXPECT_EQ(s.batch(1).size(), 2u);  // contact{3,4}, creation@5 (again)
}

TEST(ConflictScheduler, SchedulerIsReusableAcrossWindows) {
  // The epoch-reset trick must fully forget the previous window: the same
  // events re-scheduled later get the same batches.
  ConflictScheduler sched(16);
  const auto w1 = contacts({{0, 1}, {1, 2}, {3, 4}});
  const ConflictSchedule first = sched.schedule(w1);
  // An unrelated window in between.
  (void)sched.schedule(contacts({{0, 5}, {5, 1}, {2, 3}, {0, 5}}));
  const ConflictSchedule again = sched.schedule(w1);
  EXPECT_EQ(first.order, again.order);
  EXPECT_EQ(first.offsets, again.offsets);
  check_invariants(w1, again);
}

TEST(ConflictScheduler, ShortWindowAfterLongChainHasNoEmptyBatches) {
  // A window's conflict chain can be longer than the next window has
  // events; the next window must still start from batch 0 and leave no
  // batch empty.
  ConflictScheduler sched(16);
  const auto chain = contacts({{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5},
                               {0, 6}, {0, 7}, {0, 8}, {0, 9}, {0, 10}});
  ASSERT_EQ(sched.schedule(chain).batch_count(), chain.size());

  const auto short_window = contacts({{0, 1}, {2, 3}});
  const ConflictSchedule s = sched.schedule(short_window);
  check_invariants(short_window, s);
  EXPECT_EQ(s.batch_count(), 1u);
  for (std::size_t k = 0; k < s.batch_count(); ++k) {
    EXPECT_FALSE(s.batch(k).empty()) << "batch " << k << " is empty";
  }
}

TEST(ConflictScheduler, RandomizedWindowsHoldAllInvariants) {
  util::Rng rng(2010);
  for (int round = 0; round < 50; ++round) {
    const std::size_t nodes = 2 + rng.next_below(60);
    const std::size_t count = rng.next_below(300);
    std::vector<EventNodes> events;
    events.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      const auto a = static_cast<trace::NodeId>(rng.next_below(nodes));
      if (rng.next_below(8) == 0) {
        events.push_back({a, kNone});  // creation
        continue;
      }
      auto b = static_cast<trace::NodeId>(rng.next_below(nodes));
      while (b == a) b = static_cast<trace::NodeId>(rng.next_below(nodes));
      events.push_back({a, b});
    }
    ConflictScheduler sched(nodes);
    const ConflictSchedule s = sched.schedule(events);
    check_invariants(events, s);
  }
}

}  // namespace
}  // namespace bsub::sim
