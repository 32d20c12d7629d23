#include "core/interest_manager.h"

#include <algorithm>
#include <cassert>

namespace bsub::core {

InterestManager::InterestManager(std::size_t node_count,
                                 bloom::BloomParams params,
                                 double initial_counter, double df_per_minute)
    : params_(params), initial_counter_(initial_counter),
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
        RelayState{bloom::Tcbf(params_, initial_counter_), {}, now});
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
      for (auto it = s.shadow.begin(); it != s.shadow.end();) {
        it->second -= amount;
        it = it->second <= 0.0 ? s.shadow.erase(it) : std::next(it);
      }
    }
    s.last_decay = now;
  }
  return s.filter;
}

bloom::Tcbf InterestManager::make_genuine(std::string_view key) const {
  bloom::Tcbf g(params_, initial_counter_);
  g.insert(key);
  return g;
}

bloom::Tcbf InterestManager::make_genuine(
    std::span<const std::string_view> keys) const {
  bloom::Tcbf g(params_, initial_counter_);
  for (std::string_view key : keys) g.insert(key);
  return g;
}

bloom::Tcbf InterestManager::make_genuine(
    std::span<const util::HashPair> keys) const {
  bloom::Tcbf g(params_, initial_counter_);
  for (const util::HashPair& hp : keys) g.insert(hp);
  return g;
}

bloom::BloomFilter InterestManager::make_report(std::string_view key) const {
  bloom::BloomFilter bf(params_);
  bf.insert(key);
  return bf;
}

bloom::BloomFilter InterestManager::make_report(
    std::span<const std::string_view> keys) const {
  bloom::BloomFilter bf(params_);
  for (std::string_view key : keys) bf.insert(key);
  return bf;
}

bloom::BloomFilter InterestManager::make_report(
    std::span<const util::HashPair> keys) const {
  bloom::BloomFilter bf(params_);
  for (const util::HashPair& hp : keys) bf.insert(hp);
  return bf;
}

void InterestManager::absorb_genuine(trace::NodeId broker,
                                     const bloom::Tcbf& genuine,
                                     std::string_view key, util::Time now) {
  relay(broker, now).a_merge(genuine);
  // A-merge adds the genuine counters (all = C) onto the key's bits; the
  // key's minimum counter therefore grows by exactly C.
  ShadowMap& shadow = slots_[broker].state->shadow;
  if (auto it = shadow.find(key); it != shadow.end()) {
    it->second += genuine.initial_counter();
  } else {
    shadow.emplace(std::string(key), genuine.initial_counter());
  }
}

void InterestManager::absorb_genuine(trace::NodeId broker,
                                     const bloom::Tcbf& genuine,
                                     std::span<const std::string_view> keys,
                                     util::Time now) {
  relay(broker, now).a_merge(genuine);
  ShadowMap& shadow = slots_[broker].state->shadow;
  for (std::string_view key : keys) {
    if (auto it = shadow.find(key); it != shadow.end()) {
      it->second += genuine.initial_counter();
    } else {
      shadow.emplace(std::string(key), genuine.initial_counter());
    }
  }
}

void InterestManager::merge_relay_from(trace::NodeId dst,
                                       const bloom::Tcbf& src_filter,
                                       const ShadowMap& src_shadow,
                                       BrokerMergeMode mode, util::Time now) {
  bloom::Tcbf& filter = relay(dst, now);
  ShadowMap& shadow = slots_[dst].state->shadow;
  if (mode == BrokerMergeMode::kMMerge) {
    filter.m_merge(src_filter);
    for (const auto& [key, value] : src_shadow) {
      auto [it, inserted] = shadow.emplace(key, value);
      if (!inserted) it->second = std::max(it->second, value);
    }
  } else {
    filter.a_merge(src_filter);
    for (const auto& [key, value] : src_shadow) shadow[key] += value;
  }
}

bool InterestManager::genuinely_contains(trace::NodeId node,
                                         std::string_view key,
                                         util::Time now) {
  // An unmaterialized relay never absorbed anything: answer without
  // materializing (decaying an empty state, then probing an empty shadow,
  // would observe the same `false`).
  if (slots_[node].state == nullptr) return false;
  relay(node, now);  // bring the shadow up to date
  const ShadowMap& shadow = slots_[node].state->shadow;
  auto it = shadow.find(key);  // transparent: no temp string
  return it != shadow.end() && it->second > 0.0;
}

void InterestManager::set_node_df(trace::NodeId node, double df_per_minute) {
  slots_[node].df_override = df_per_minute;
}

double InterestManager::node_df(trace::NodeId node) const {
  const double df_override = slots_[node].df_override;
  return df_override >= 0.0 ? df_override : df_per_minute_;
}

}  // namespace bsub::core
