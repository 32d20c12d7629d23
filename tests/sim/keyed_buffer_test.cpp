#include "sim/keyed_buffer.h"

#include <gtest/gtest.h>

#include <vector>

namespace bsub::sim {
namespace {

/// A workload-style message table: ids index it, as KeyedBuffer::purge
/// requires.
std::vector<workload::Message> table(
    std::initializer_list<std::pair<workload::KeyId, util::Time>> key_ttl) {
  std::vector<workload::Message> out;
  for (const auto& [key, ttl] : key_ttl) {
    workload::Message m;
    m.id = out.size();
    m.key = key;
    m.producer = 0;
    m.size_bytes = 100;
    m.created = 0;
    m.ttl = ttl;
    out.push_back(m);
  }
  return out;
}

/// Every buffered id, visiting all buckets merged by id.
std::vector<workload::MessageId> ids_in_order(KeyedBuffer& buffer) {
  std::vector<sim::Run> runs;
  for (KeyedBuffer::Bucket& b : buffer.buckets) {
    if (!b.entries.empty()) runs.emplace_back(b.entries);
  }
  std::vector<workload::MessageId> out;
  std::uint64_t visited = 0;
  visit_in_id_order(runs, visited, [&](KeyedBuffer::Entry& e) {
    out.push_back(e.id);
    return true;
  });
  EXPECT_EQ(visited, out.size());
  return out;
}

TEST(KeyedBuffer, AddAndContains) {
  const auto msgs = table({{3, util::kHour}, {1, util::kHour}});
  KeyedBuffer buffer;
  buffer.add(msgs[0], 2);
  buffer.add(msgs[1], 0);
  EXPECT_EQ(buffer.size, 2u);
  EXPECT_TRUE(buffer.contains(3, 0));
  EXPECT_TRUE(buffer.contains(1, 1));
  EXPECT_FALSE(buffer.contains(1, 0));  // wrong bucket
  EXPECT_FALSE(buffer.contains(7, 0));  // no such bucket
}

TEST(KeyedBuffer, FindReturnsStoredMessage) {
  const auto msgs = table({{3, util::kHour}, {1, util::kHour}});
  KeyedBuffer buffer;
  buffer.add(msgs[0], 2);
  buffer.add(msgs[1], 0);
  const KeyedBuffer::Bucket* bucket = buffer.find(3);
  ASSERT_NE(bucket, nullptr);
  ASSERT_EQ(bucket->entries.size(), 1u);
  EXPECT_EQ(bucket->entries[0].msg, &msgs[0]);  // borrowed, not copied
  EXPECT_EQ(bucket->entries[0].copies_left, 2u);
  EXPECT_EQ(buffer.find(2), nullptr);
}

TEST(KeyedBuffer, EraseWorks) {
  const auto msgs = table({{3, util::kHour}, {1, util::kHour}});
  KeyedBuffer buffer;
  buffer.add(msgs[0], 2);
  buffer.add(msgs[1], 0);
  EXPECT_TRUE(buffer.erase(3, 0));
  EXPECT_FALSE(buffer.erase(3, 0));
  EXPECT_FALSE(buffer.erase(5, 1));
  EXPECT_EQ(buffer.size, 1u);
  // An emptied bucket stays, so the key's capacity is reused.
  ASSERT_NE(buffer.find(3), nullptr);
  EXPECT_TRUE(buffer.find(3)->entries.empty());
}

TEST(KeyedBuffer, BucketsInKeyOrderEntriesInIdOrder) {
  const auto msgs = table({{2, util::kHour},
                           {0, util::kHour},
                           {2, util::kHour},
                           {1, util::kHour},
                           {0, util::kHour}});
  KeyedBuffer buffer;
  for (workload::MessageId id : {4, 2, 0, 3, 1}) buffer.add(msgs[id], 0);
  ASSERT_EQ(buffer.buckets.size(), 3u);
  for (std::size_t b = 0; b < buffer.buckets.size(); ++b) {
    EXPECT_EQ(buffer.buckets[b].key, b);
    const auto& entries = buffer.buckets[b].entries;
    for (std::size_t i = 1; i < entries.size(); ++i) {
      EXPECT_LT(entries[i - 1].id, entries[i].id);
    }
  }
  EXPECT_EQ(ids_in_order(buffer),
            (std::vector<workload::MessageId>{0, 1, 2, 3, 4}));
}

TEST(KeyedBuffer, VisitStopsWhenVisitorReturnsFalse) {
  const auto msgs = table({{0, util::kHour},
                           {1, util::kHour},
                           {0, util::kHour},
                           {1, util::kHour}});
  KeyedBuffer buffer;
  for (const workload::Message& m : msgs) buffer.add(m, 0);
  std::vector<sim::Run> runs;
  for (KeyedBuffer::Bucket& b : buffer.buckets) runs.emplace_back(b.entries);
  std::vector<workload::MessageId> seen;
  std::uint64_t visited = 0;
  const bool finished =
      visit_in_id_order(runs, visited, [&](KeyedBuffer::Entry& e) {
        seen.push_back(e.id);
        return e.id < 2;  // the third entry stops the walk
      });
  EXPECT_FALSE(finished);
  EXPECT_EQ(visited, 3u);
  EXPECT_EQ(seen, (std::vector<workload::MessageId>{0, 1, 2}));
}

TEST(KeyedBuffer, SelectKeysTakesEachKeyOnce) {
  const auto msgs = table({{0, util::kHour},
                           {1, util::kHour},
                           {2, util::kHour},
                           {0, util::kHour},
                           {2, util::kHour}});
  KeyedBuffer buffer;
  for (const workload::Message& m : msgs) buffer.add(m, 0);
  buffer.erase(1, 1);  // key 1's bucket is empty: not selected
  const std::vector<workload::KeyId> keys = {2, 1, 0, 2, 5};
  std::vector<sim::Run> runs;
  select_keys(buffer, keys, runs);
  ASSERT_EQ(runs.size(), 2u);
  std::vector<workload::MessageId> seen;
  std::uint64_t visited = 0;
  EXPECT_TRUE(visit_in_id_order(runs, visited, [&](KeyedBuffer::Entry& e) {
    seen.push_back(e.id);
    return true;
  }));
  EXPECT_EQ(seen, (std::vector<workload::MessageId>{0, 2, 3, 4}));
}

TEST(KeyedBuffer, PurgeDropsOnlyExpired) {
  const auto msgs = table({{0, util::kMinute}, {0, 10 * util::kMinute}});
  KeyedBuffer buffer;
  for (const workload::Message& m : msgs) buffer.add(m, 0);
  metrics::HotPathCounters hp;
  buffer.purge(5 * util::kMinute, msgs, hp);
  EXPECT_FALSE(buffer.contains(0, 0));
  EXPECT_TRUE(buffer.contains(0, 1));
  EXPECT_EQ(buffer.size, 1u);
}

TEST(KeyedBuffer, ExpiryIsInclusiveAtDeadline) {
  const auto msgs = table({{0, util::kMinute}});
  KeyedBuffer buffer;
  buffer.add(msgs[0], 0);
  metrics::HotPathCounters hp;
  buffer.purge(util::kMinute - 1, msgs, hp);
  EXPECT_TRUE(buffer.contains(0, 0));
  buffer.purge(util::kMinute, msgs, hp);  // exactly at expiry: gone
  EXPECT_FALSE(buffer.contains(0, 0));
}

TEST(KeyedBuffer, PurgeReportsEachErasedId) {
  const auto msgs =
      table({{0, util::kMinute}, {1, util::kMinute}, {0, util::kHour}});
  KeyedBuffer buffer;
  for (const workload::Message& m : msgs) buffer.add(m, 0);
  metrics::HotPathCounters hp;
  std::vector<workload::MessageId> erased;
  auto note = [&](workload::MessageId id) { erased.push_back(id); };
  buffer.purge(util::kMinute, msgs, hp, note);
  EXPECT_EQ(erased, (std::vector<workload::MessageId>{0, 1}));
  buffer.purge(util::kMinute, msgs, hp, note);  // nothing left to drop
  EXPECT_EQ(erased.size(), 2u);
  EXPECT_EQ(buffer.size, 1u);
}

TEST(KeyedBuffer, PurgeIsSkippedWhenNothingIsDue) {
  const auto msgs = table({{0, util::kHour}});
  KeyedBuffer buffer;
  buffer.add(msgs[0], 0);
  metrics::HotPathCounters hp;
  buffer.purge(util::kMinute, msgs, hp);
  EXPECT_EQ(hp.purge_scans_skipped.load(), 1u);
  EXPECT_EQ(hp.purge_scans_run.load(), 0u);
  buffer.purge(util::kHour, msgs, hp);
  EXPECT_EQ(hp.purge_scans_skipped.load(), 1u);
  EXPECT_EQ(hp.purge_scans_run.load(), 1u);
  EXPECT_EQ(buffer.size, 0u);
}

TEST(KeyedBuffer, StaleIndexEntriesDoNotDropLiveMessages) {
  // Erase a message before its expiry: its index entry goes stale. A later
  // purge at that expiry must pop the stale entry without touching the
  // still-live remainder.
  const auto msgs = table({{0, util::kMinute}, {0, util::kHour}});
  KeyedBuffer buffer;
  for (const workload::Message& m : msgs) buffer.add(m, 0);
  buffer.erase(0, 0);
  metrics::HotPathCounters hp;
  std::size_t erased = 0;
  buffer.purge(util::kMinute, msgs, hp,
               [&](workload::MessageId) { ++erased; });
  EXPECT_EQ(erased, 0u);
  EXPECT_TRUE(buffer.contains(0, 1));
  EXPECT_EQ(hp.purge_scans_run.load(), 1u);
  // The stale pop consumed the due entry; the next purge is O(1) again.
  buffer.purge(util::kMinute, msgs, hp);
  EXPECT_EQ(hp.purge_scans_skipped.load(), 1u);
}

TEST(KeyedBuffer, PurgeAgreesWithFullScanOnRandomizedModel) {
  // Differential model check: drive the buffer and a full-scan oracle (a
  // flag per id, purged by testing every live message) through one
  // randomized op sequence (add / erase / purge at advancing times) and
  // require identical contents, in id order, after every op.
  constexpr std::size_t kMessages = 300;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    std::uint64_t state = seed * 0x9E3779B97F4A7C15ULL;
    auto next = [&state]() {
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      return state;
    };
    std::vector<workload::Message> msgs;
    msgs.reserve(kMessages);  // entries point into the table
    KeyedBuffer buffer;
    std::vector<bool> live;  // the oracle
    metrics::HotPathCounters hp;
    util::Time now = 0;
    for (int op = 0; op < 400; ++op) {
      switch (next() % 4) {
        case 0:
        case 1: {  // add a new message with a random key and ttl
          if (msgs.size() == kMessages) break;
          workload::Message m;
          m.id = msgs.size();
          m.key = static_cast<workload::KeyId>(next() % 5);
          m.created = now;
          m.ttl = 1 + static_cast<util::Time>(next() % (2 * util::kHour));
          msgs.push_back(m);
          buffer.add(msgs.back(), 0);
          live.push_back(true);
          break;
        }
        case 2: {  // erase a random (maybe absent) id
          if (msgs.empty()) break;
          const workload::MessageId id = next() % msgs.size();
          EXPECT_EQ(buffer.erase(msgs[id].key, id), live[id]);
          live[id] = false;
          break;
        }
        case 3: {  // advance time and purge both ways
          now += static_cast<util::Time>(next() % util::kHour);
          buffer.purge(now, msgs, hp);
          for (std::size_t id = 0; id < msgs.size(); ++id) {
            if (msgs[id].expired_at(now)) live[id] = false;
          }
          break;
        }
      }
      std::vector<workload::MessageId> expected;
      for (std::size_t id = 0; id < live.size(); ++id) {
        if (live[id]) expected.push_back(id);
      }
      ASSERT_EQ(ids_in_order(buffer), expected)
          << "seed " << seed << " op " << op;
      ASSERT_EQ(buffer.size, expected.size());
    }
    now += 3 * util::kHour;
    buffer.purge(now, msgs, hp);
    EXPECT_EQ(buffer.size, 0u);
    EXPECT_TRUE(ids_in_order(buffer).empty());
  }
}

}  // namespace
}  // namespace bsub::sim
