#include "sim/conflict_schedule.h"

#include <algorithm>
#include <cassert>

namespace bsub::sim {

ConflictScheduler::ConflictScheduler(std::size_t node_count)
    : last_batch_(node_count, 0) {}

ConflictSchedule ConflictScheduler::schedule(
    std::span<const EventNodes> events) {
  ConflictSchedule out;
  schedule(events, out);
  return out;
}

void ConflictScheduler::schedule(std::span<const EventNodes> events,
                                 ConflictSchedule& out) {
  const std::size_t n = events.size();
  out.order.clear();
  out.offsets.clear();
  if (n == 0) {
    out.offsets.push_back(0);
    return;
  }

  batch_of_.resize(n);
  counts_.clear();

  std::uint32_t max_batch = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const EventNodes& e = events[i];
    std::uint64_t prev = 0;
    if (e.a != EventNodes::kNoNode) {
      assert(e.a < last_batch_.size());
      prev = std::max(prev, last_batch_[e.a]);
    }
    if (e.b != EventNodes::kNoNode) {
      assert(e.b < last_batch_.size());
      prev = std::max(prev, last_batch_[e.b]);
    }
    // Stamps are stamp_base_ + batch; anything below stamp_base_ is stale
    // (a previous window) and means "no prior conflict" -> batch 0. A live
    // stamp stamp_base_ + k puts this event in batch k + 1.
    const std::uint32_t batch =
        prev < stamp_base_
            ? 0
            : static_cast<std::uint32_t>(prev - stamp_base_) + 1;
    batch_of_[i] = batch;
    max_batch = std::max(max_batch, batch);
    const std::uint64_t stamp = stamp_base_ + batch;
    if (e.a != EventNodes::kNoNode) last_batch_[e.a] = stamp;
    if (e.b != EventNodes::kNoNode) last_batch_[e.b] = stamp;
    if (counts_.size() <= batch) counts_.resize(batch + 1, 0);
    ++counts_[batch];
  }
  // Epoch trick: moving stamp_base_ past every stamp this window wrote
  // (stamp_base_ + max_batch at most) invalidates the whole table for the
  // next window without touching it.
  stamp_base_ += static_cast<std::uint64_t>(max_batch) + 1;

  // Counting sort by batch keeps input order within each batch and builds
  // the offsets table in one pass — O(n + batches), no comparisons.
  const std::size_t batches = static_cast<std::size_t>(max_batch) + 1;
  out.offsets.resize(batches + 1);
  out.offsets[0] = 0;
  for (std::size_t k = 0; k < batches; ++k) {
    out.offsets[k + 1] = out.offsets[k] + counts_[k];
  }
  out.order.resize(n);
  cursor_.assign(out.offsets.begin(), out.offsets.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    out.order[cursor_[batch_of_[i]]++] = static_cast<std::uint32_t>(i);
  }
}

}  // namespace bsub::sim
