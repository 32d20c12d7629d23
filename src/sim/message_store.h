// Per-node message buffer shared by all protocols.
//
// A sorted flat vector of (id, shared payload) entries: iteration — and
// therefore transmission order under bandwidth pressure — is deterministic
// (id == creation order), and lookups are binary searches over a contiguous
// array. Payloads are immutable and shared, so copying a message between
// nodes (pickup, custody transfer, spraying) shares one body instead of
// deep-copying it per holder; the store only ever admits shared payloads.
//
// TTL purging rides the ExpiryIndex fast path: `purge_expired` is O(1) when
// nothing registered has expired, and touches only expired entries
// otherwise. `purge_expired_scan` is the naive full-scan oracle the
// message-store tests hold it against; both report how many messages were
// dropped.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/expiry_index.h"
#include "util/time.h"
#include "workload/message.h"

namespace bsub::sim {

/// Shared immutable message payload.
using MessageRef = std::shared_ptr<const workload::Message>;

/// Wraps a workload-owned message in a non-owning ref. The workload's
/// message table is materialized up front and outlives every run, so
/// protocols can share its entries without a copy or a refcount allocation.
inline MessageRef borrow_message(const workload::Message& msg) {
  return MessageRef(MessageRef{}, &msg);
}

class MessageStore {
 public:
  struct Entry {
    workload::MessageId id;
    MessageRef msg;
  };

  /// Hot-path accounting, aggregated into metrics::HotPathStats at run end.
  struct Stats {
    std::uint64_t shared_adds = 0;    ///< payload copies avoided
    std::uint64_t purges_skipped = 0; ///< O(1) nothing-due purge calls
    std::uint64_t purges_scanned = 0; ///< purge calls that did real work
  };

  /// Adds a shared payload (no body copy); returns false on duplicate id.
  bool add(MessageRef msg) {
    const workload::MessageId id = msg->id;
    auto it = lower_bound(id);
    if (it != entries_.end() && it->id == id) return false;
    expiry_.add(msg->expiry(), id);
    entries_.insert(it, Entry{id, std::move(msg)});
    ++stats_.shared_adds;
    return true;
  }

  bool contains(workload::MessageId id) const {
    auto it = lower_bound(id);
    return it != entries_.end() && it->id == id;
  }

  bool remove(workload::MessageId id) {
    auto it = lower_bound(id);
    if (it == entries_.end() || it->id != id) return false;
    entries_.erase(it);  // the expiry-heap entry goes stale; skipped lazily
    return true;
  }

  /// Pointer to the buffered message, or nullptr if absent.
  const workload::Message* find(workload::MessageId id) const {
    auto it = lower_bound(id);
    return it == entries_.end() || it->id != id ? nullptr : it->msg.get();
  }

  /// Shared handle to the buffered payload (empty if absent); handing this
  /// to another store's add() moves custody without copying the body.
  MessageRef find_ref(workload::MessageId id) const {
    auto it = lower_bound(id);
    return it == entries_.end() || it->id != id ? MessageRef{} : it->msg;
  }

  /// Drops messages whose TTL has elapsed at `now`; returns how many.
  /// O(1) when the expiry index proves nothing expired since the last call.
  std::size_t purge_expired(util::Time now) {
    if (!expiry_.due(now)) {
      ++stats_.purges_skipped;
      return 0;
    }
    ++stats_.purges_scanned;
    bool any_live = false;
    expiry_.pop_due(now, [&](workload::MessageId id) {
      auto it = lower_bound(id);
      any_live |= it != entries_.end() && it->id == id;
    });
    if (!any_live) return 0;  // only stale entries (removed earlier) were due
    const std::size_t before = entries_.size();
    std::erase_if(entries_,
                  [now](const Entry& e) { return e.msg->expired_at(now); });
    return before - entries_.size();
  }

  /// Naive full-scan purge — the oracle the message-store tests run against
  /// purge_expired. Identical observable semantics.
  std::size_t purge_expired_scan(util::Time now) {
    ++stats_.purges_scanned;
    const std::size_t before = entries_.size();
    std::erase_if(entries_,
                  [now](const Entry& e) { return e.msg->expired_at(now); });
    return before - entries_.size();
  }

  /// Earliest (possibly stale) registered expiry; kTimeMax when empty.
  util::Time next_expiry() const { return expiry_.next_due(); }

  const Stats& stats() const { return stats_; }

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  void clear() {
    entries_.clear();
    expiry_.clear();
  }

  /// Iteration in id (creation) order; yields Entry{id, msg}.
  auto begin() const { return entries_.begin(); }
  auto end() const { return entries_.end(); }

 private:
  std::vector<Entry>::const_iterator lower_bound(workload::MessageId id) const {
    return std::lower_bound(
        entries_.begin(), entries_.end(), id,
        [](const Entry& e, workload::MessageId v) { return e.id < v; });
  }
  std::vector<Entry>::iterator lower_bound(workload::MessageId id) {
    return std::lower_bound(
        entries_.begin(), entries_.end(), id,
        [](const Entry& e, workload::MessageId v) { return e.id < v; });
  }

  std::vector<Entry> entries_;
  ExpiryIndex expiry_;
  Stats stats_;
};

}  // namespace bsub::sim
