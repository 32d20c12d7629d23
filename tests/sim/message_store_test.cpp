#include "sim/message_store.h"

#include <gtest/gtest.h>

namespace bsub::sim {
namespace {

MessageRef msg(workload::MessageId id, util::Time created = 0,
               util::Time ttl = util::kHour) {
  workload::Message m;
  m.id = id;
  m.key = 0;
  m.producer = 0;
  m.size_bytes = 100;
  m.created = created;
  m.ttl = ttl;
  return std::make_shared<const workload::Message>(m);
}

TEST(MessageStore, AddAndContains) {
  MessageStore s;
  EXPECT_TRUE(s.add(msg(1)));
  EXPECT_TRUE(s.contains(1));
  EXPECT_FALSE(s.contains(2));
  EXPECT_EQ(s.size(), 1u);
}

TEST(MessageStore, DuplicateAddRejected) {
  MessageStore s;
  EXPECT_TRUE(s.add(msg(1)));
  EXPECT_FALSE(s.add(msg(1)));
  EXPECT_EQ(s.size(), 1u);
}

TEST(MessageStore, RemoveWorks) {
  MessageStore s;
  s.add(msg(1));
  EXPECT_TRUE(s.remove(1));
  EXPECT_FALSE(s.remove(1));
  EXPECT_TRUE(s.empty());
}

TEST(MessageStore, FindReturnsStoredMessage) {
  MessageStore s;
  s.add(msg(7, 123));
  const workload::Message* m = s.find(7);
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->created, 123);
  EXPECT_EQ(s.find(8), nullptr);
}

TEST(MessageStore, PurgeExpiredDropsOnlyExpired) {
  MessageStore s;
  s.add(msg(1, 0, util::kMinute));        // expires at 1 min
  s.add(msg(2, 0, 10 * util::kMinute));   // expires at 10 min
  s.purge_expired(5 * util::kMinute);
  EXPECT_FALSE(s.contains(1));
  EXPECT_TRUE(s.contains(2));
}

TEST(MessageStore, ExpiryIsInclusiveAtDeadline) {
  MessageStore s;
  s.add(msg(1, 0, util::kMinute));
  s.purge_expired(util::kMinute);  // exactly at expiry: gone
  EXPECT_FALSE(s.contains(1));
}

TEST(MessageStore, IterationIsIdOrdered) {
  MessageStore s;
  s.add(msg(5));
  s.add(msg(1));
  s.add(msg(3));
  std::vector<workload::MessageId> order;
  for (const auto& [id, m] : s) order.push_back(id);
  EXPECT_EQ(order, (std::vector<workload::MessageId>{1, 3, 5}));
}

TEST(MessageStore, ClearEmpties) {
  MessageStore s;
  s.add(msg(1));
  s.clear();
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0u);
}

TEST(MessageStore, PurgeReportsDroppedCount) {
  MessageStore s;
  s.add(msg(1, 0, util::kMinute));
  s.add(msg(2, 0, util::kMinute));
  s.add(msg(3, 0, util::kHour));
  EXPECT_EQ(s.purge_expired(util::kMinute), 2u);
  EXPECT_EQ(s.purge_expired(util::kMinute), 0u);  // nothing left to drop
  EXPECT_EQ(s.size(), 1u);
}

TEST(MessageStore, PurgeIsSkippedWhenNothingIsDue) {
  MessageStore s;
  s.add(msg(1, 0, util::kHour));
  const std::uint64_t skipped_before = s.stats().purges_skipped;
  EXPECT_EQ(s.purge_expired(util::kMinute), 0u);
  EXPECT_EQ(s.stats().purges_skipped, skipped_before + 1);
  EXPECT_EQ(s.stats().purges_scanned, 0u);
}

TEST(MessageStore, SharedAddKeepsPayloadIdentity) {
  MessageRef ref = msg(7, 123);
  MessageStore a;
  MessageStore b;
  a.add(ref);
  b.add(a.find_ref(7));  // custody move: same payload, no copy
  EXPECT_EQ(a.find_ref(7).get(), ref.get());
  EXPECT_EQ(b.find_ref(7).get(), ref.get());
  EXPECT_EQ(a.stats().shared_adds, 1u);
  EXPECT_EQ(b.stats().shared_adds, 1u);
}

TEST(MessageStore, BorrowedMessageIsNonOwning) {
  const workload::Message m = *msg(9, 5);
  MessageRef ref = borrow_message(m);
  EXPECT_EQ(ref.get(), &m);
  MessageStore s;
  s.add(ref);
  EXPECT_EQ(s.find(9), &m);
}

TEST(MessageStore, StaleHeapEntriesDoNotDropLiveMessages) {
  // Remove a message before its expiry: its heap entry goes stale. A later
  // purge at that expiry must pop the stale entry without touching the
  // still-live remainder.
  MessageStore s;
  s.add(msg(1, 0, util::kMinute));
  s.add(msg(2, 0, util::kHour));
  s.remove(1);
  EXPECT_EQ(s.purge_expired(util::kMinute), 0u);
  EXPECT_TRUE(s.contains(2));
  // The stale pop consumed the due entry; the next purge is O(1) again.
  const std::uint64_t skipped_before = s.stats().purges_skipped;
  s.purge_expired(util::kMinute);
  EXPECT_EQ(s.stats().purges_skipped, skipped_before + 1);
}

TEST(MessageStore, FastAndScanPurgeAgreeOnRandomizedModel) {
  // Differential model check: drive a fast store and a naive-scan store
  // through an identical randomized op sequence (add / remove / purge at
  // advancing times) and require identical contents at every purge.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    std::uint64_t state = seed * 0x9E3779B97F4A7C15ULL;
    auto next = [&state]() {
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      return state;
    };
    MessageStore fast;
    MessageStore scan;
    util::Time now = 0;
    workload::MessageId next_id = 1;
    for (int op = 0; op < 400; ++op) {
      switch (next() % 4) {
        case 0:
        case 1: {  // add with randomized ttl
          const MessageRef m =
              msg(next_id++, now, 1 + static_cast<util::Time>(
                                          next() % (2 * util::kHour)));
          fast.add(m);
          scan.add(m);
          break;
        }
        case 2: {  // remove a random (maybe absent) id
          const workload::MessageId id = 1 + next() % next_id;
          fast.remove(id);
          scan.remove(id);
          break;
        }
        case 3: {  // advance time and purge both ways
          now += static_cast<util::Time>(next() % util::kHour);
          EXPECT_EQ(fast.purge_expired(now), scan.purge_expired_scan(now))
              << "seed " << seed << " op " << op;
          break;
        }
      }
      ASSERT_EQ(fast.size(), scan.size()) << "seed " << seed << " op " << op;
    }
    now += 3 * util::kHour;
    EXPECT_EQ(fast.purge_expired(now), scan.purge_expired_scan(now));
    auto fit = fast.begin();
    for (const auto& e : scan) {
      ASSERT_NE(fit, fast.end());
      EXPECT_EQ(fit->id, e.id);
      ++fit;
    }
    EXPECT_EQ(fit, fast.end());
  }
}

}  // namespace
}  // namespace bsub::sim
