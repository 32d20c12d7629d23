// Per-node message buffer of the simulator's protocols that send in id
// order: B-SUB (produced and carried messages), PULL (produced messages)
// and SPRAY (its sources and its relayed copies).
//
// Messages are bucketed by key: one bucket per key the buffer has held, in
// key order, each bucket's entries in id order. Every forwarding question
// these protocols ask of a buffered message (is its key in the peer's
// report or interests, does a relay still route it, what is its
// preference) has a per-key answer, so a contact asks it once per bucket
// and walks only the buckets that pass. Merging those by id
// (visit_in_id_order) yields the messages in the order one id-sorted
// buffer would, so the send order under a contact's byte budget is id
// (creation) order. A bucket stays when it empties, so a key that comes
// back reuses its capacity; there are at most as many buckets as keys.
//
// Entries borrow the workload's message table, which is materialized up
// front and outlives every run: buffering a message or moving it between
// nodes copies a pointer, never a body.
//
// TTL purging rides the ExpiryIndex: purge() is O(1) when nothing
// registered has expired, and otherwise erases exactly the due entries.
// Everything is header-inline because it sits on B-SUB's contact path.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "metrics/collector.h"
#include "sim/expiry_index.h"
#include "util/time.h"
#include "workload/message.h"

namespace bsub::sim {

struct KeyedBuffer {
  struct Entry {
    workload::MessageId id;
    const workload::Message* msg;  ///< borrowed from the workload's table
    std::uint32_t copies_left;     ///< a source's copy budget; else 0
  };
  struct Bucket {
    workload::KeyId key;
    std::vector<Entry> entries;  ///< id order
  };

  std::vector<Bucket> buckets;  ///< key order
  std::size_t size = 0;         ///< entries over all buckets
  /// Every entry's (expiry, id); purge pops only the due ones. An entry
  /// that leaves early (copy budget spent, custody moved) goes stale in
  /// here and is skipped when it comes due.
  ExpiryIndex expiry;

  /// Adds a message (its id must not be buffered already).
  void add(const workload::Message& msg, std::uint32_t copies_left) {
    auto bucket =
        std::lower_bound(buckets.begin(), buckets.end(), msg.key, key_before);
    if (bucket == buckets.end() || bucket->key != msg.key) {
      bucket = buckets.insert(bucket, Bucket{msg.key, {}});
    }
    std::vector<Entry>& entries = bucket->entries;
    const Entry entry{msg.id, &msg, copies_left};
    if (entries.empty() || entries.back().id < msg.id) {
      entries.push_back(entry);  // publications and most copies arrive in order
    } else {
      auto at =
          std::lower_bound(entries.begin(), entries.end(), msg.id, id_before);
      assert(at->id != msg.id);
      entries.insert(at, entry);
    }
    expiry.add(msg.expiry(), msg.id);
    ++size;
  }

  /// Erases (key, id); false if it is not buffered.
  bool erase(workload::KeyId key, workload::MessageId id) {
    Bucket* bucket = find(key);
    if (bucket == nullptr) return false;
    std::vector<Entry>& entries = bucket->entries;
    auto at = std::lower_bound(entries.begin(), entries.end(), id, id_before);
    if (at == entries.end() || at->id != id) return false;
    entries.erase(at);
    --size;
    return true;
  }

  /// The key's bucket, or null if the buffer never held the key.
  Bucket* find(workload::KeyId key) {
    auto bucket =
        std::lower_bound(buckets.begin(), buckets.end(), key, key_before);
    return bucket != buckets.end() && bucket->key == key ? &*bucket : nullptr;
  }
  const Bucket* find(workload::KeyId key) const {
    return const_cast<KeyedBuffer*>(this)->find(key);
  }

  /// True if (key, id) is buffered: a bucket lookup, then a binary search.
  bool contains(workload::KeyId key, workload::MessageId id) const {
    const Bucket* bucket = find(key);
    if (bucket == nullptr) return false;
    const std::vector<Entry>& entries = bucket->entries;
    auto at = std::lower_bound(entries.begin(), entries.end(), id, id_before);
    return at != entries.end() && at->id == id;
  }

  /// Erases exactly the entries whose expiry is due at `now` (inclusive,
  /// as Message::expired_at) and calls on_erase(id) for each. `messages`
  /// is the workload's table, which names a due id's bucket. Counts the
  /// call in `hp`: an O(1) skip when nothing is due, else a run.
  template <class OnErase>
  void purge(util::Time now, std::span<const workload::Message> messages,
             metrics::HotPathCounters& hp, OnErase&& on_erase) {
    if (!expiry.due(now)) {
      ++hp.purge_scans_skipped;
      return;
    }
    ++hp.purge_scans_run;
    // A due id that already left the buffer is not found and skipped.
    expiry.pop_due(now, [&](workload::MessageId id) {
      assert(messages[id].id == id);
      if (erase(messages[id].key, id)) on_erase(id);
    });
  }
  void purge(util::Time now, std::span<const workload::Message> messages,
             metrics::HotPathCounters& hp) {
    purge(now, messages, hp, [](workload::MessageId) {});
  }

 private:
  /// lower_bound comparators: buckets by key, entries by id. Closures,
  /// not functions, so every search inlines its comparison.
  static constexpr auto key_before = [](const Bucket& bucket,
                                        workload::KeyId key) {
    return bucket.key < key;
  };
  static constexpr auto id_before = [](const Entry& entry,
                                       workload::MessageId id) {
    return entry.id < id;
  };
};

/// The not-yet-visited entries of one selected bucket.
using Run = std::span<KeyedBuffer::Entry>;

/// Appends to `runs` the non-empty bucket of each key in `keys`, each key
/// once (an interest list may repeat a key).
inline void select_keys(KeyedBuffer& buffer,
                        std::span<const workload::KeyId> keys,
                        std::vector<Run>& runs) {
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (std::find(keys.begin(), keys.begin() + i, keys[i]) !=
        keys.begin() + i) {
      continue;
    }
    KeyedBuffer::Bucket* bucket = buffer.find(keys[i]);
    if (bucket != nullptr && !bucket->entries.empty()) {
      runs.emplace_back(bucket->entries);
    }
  }
}

/// Calls visit(entry) on the entries of `runs` in ascending id order until
/// it returns false; counts each entry visited. Returns false iff visit
/// stopped the walk. Consumes `runs`.
template <class Visit>
bool visit_in_id_order(std::vector<Run>& runs, std::uint64_t& visited,
                       Visit&& visit) {
  // A linear scan for the smallest head: a contact selects a handful of
  // buckets (one per matching key), and with one run this is a plain loop.
  std::size_t live = runs.size();
  while (live > 0) {
    std::size_t min = 0;
    for (std::size_t r = 1; r < live; ++r) {
      if (runs[r].front().id < runs[min].front().id) min = r;
    }
    ++visited;
    if (!visit(runs[min].front())) return false;
    runs[min] = runs[min].subspan(1);
    if (runs[min].empty()) runs[min] = runs[--live];
  }
  return true;
}

}  // namespace bsub::sim
