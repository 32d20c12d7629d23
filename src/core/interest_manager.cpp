#include "core/interest_manager.h"

#include <algorithm>
#include <cassert>

namespace bsub::core {

InterestManager::InterestManager(std::size_t node_count,
                                 std::size_t key_count,
                                 bloom::BloomParams params,
                                 double initial_counter, double df_per_minute)
    : key_count_(key_count), params_(params),
      initial_counter_(initial_counter),
      df_per_minute_(df_per_minute), slots_(node_count),
      empty_relay_(params, initial_counter) {
  assert(df_per_minute >= 0.0);
}

InterestManager::RelayState& InterestManager::state_for(trace::NodeId node,
                                                        util::Time now) {
  std::unique_ptr<RelayState>& state = slots_[node].state;
  if (state == nullptr) {
    // Starting the clock at `now` equals an empty state built up front and
    // decayed to `now` — decaying an empty filter is a no-op.
    state = std::make_unique<RelayState>(
        RelayState{bloom::Tcbf(params_, initial_counter_),
                   std::vector<double>(key_count_, 0.0), now});
  }
  return *state;
}

std::size_t InterestManager::materialized_relays() const {
  return static_cast<std::size_t>(
      std::count_if(slots_.begin(), slots_.end(),
                    [](const NodeSlot& s) { return s.state != nullptr; }));
}

bloom::Tcbf& InterestManager::relay(trace::NodeId node, util::Time now) {
  RelayState& s = state_for(node, now);
  if (now > s.last_decay) {
    const double df_override = slots_[node].df_override;
    const double df = df_override >= 0.0 ? df_override : df_per_minute_;
    if (df > 0.0) {
      const double amount = df * util::to_minutes(now - s.last_decay);
      s.filter.decay(amount);
      // A counter that drains to <= 0 is no longer held (0.0); one not
      // held stays 0.0.
      for (double& v : s.shadow) v = std::max(v - amount, 0.0);
    }
    s.last_decay = now;
  }
  return s.filter;
}

bloom::Tcbf InterestManager::make_genuine(
    std::span<const util::HashPair> keys) const {
  bloom::Tcbf g(params_, initial_counter_);
  for (const util::HashPair& hp : keys) g.insert(hp);
  return g;
}

bloom::BloomFilter InterestManager::make_report(
    std::span<const util::HashPair> keys) const {
  bloom::BloomFilter bf(params_);
  for (const util::HashPair& hp : keys) bf.insert(hp);
  return bf;
}

void InterestManager::absorb_genuine(trace::NodeId broker,
                                     const bloom::Tcbf& genuine,
                                     std::span<const workload::KeyId> keys,
                                     util::Time now) {
  relay(broker, now).a_merge(genuine);
  // A-merge adds the genuine counters (all = C) onto each key's bits; the
  // key's minimum counter therefore grows by exactly C (0.0 + C when the
  // key was not held).
  std::vector<double>& shadow = slots_[broker].state->shadow;
  for (workload::KeyId key : keys) shadow[key] += genuine.initial_counter();
}

void InterestManager::merge_relay_from(trace::NodeId dst,
                                       const bloom::Tcbf& src_filter,
                                       std::span<const double> src_shadow,
                                       BrokerMergeMode mode, util::Time now) {
  bloom::Tcbf& filter = relay(dst, now);
  std::vector<double>& shadow = slots_[dst].state->shadow;
  // Every counter is >= 0, so a key either side does not hold (0.0) leaves
  // the other side's value unchanged under both max and sum.
  if (mode == BrokerMergeMode::kMMerge) {
    filter.m_merge(src_filter);
    for (std::size_t key = 0; key < src_shadow.size(); ++key) {
      shadow[key] = std::max(shadow[key], src_shadow[key]);
    }
  } else {
    filter.a_merge(src_filter);
    for (std::size_t key = 0; key < src_shadow.size(); ++key) {
      shadow[key] += src_shadow[key];
    }
  }
}

bool InterestManager::genuinely_contains(trace::NodeId node,
                                         workload::KeyId key,
                                         util::Time now) {
  // An unmaterialized relay never absorbed anything: answer without
  // materializing (decaying an empty state, then probing an empty shadow,
  // would observe the same `false`).
  if (slots_[node].state == nullptr) return false;
  relay(node, now);  // bring the shadow up to date
  return slots_[node].state->shadow[key] > 0.0;
}

void InterestManager::set_node_df(trace::NodeId node, double df_per_minute) {
  slots_[node].df_override = df_per_minute;
}

double InterestManager::node_df(trace::NodeId node) const {
  const double df_override = slots_[node].df_override;
  return df_override >= 0.0 ? df_override : df_per_minute_;
}

}  // namespace bsub::core
