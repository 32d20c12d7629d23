// Reference model of core::InterestManager's ground-truth shadow, the
// oracle for its KeyId-indexed counter array.
//
// Per relay: a string-keyed hash map holding only the keys the relay
// genuinely absorbed, run with the map layout's own arithmetic — decay
// subtracts from every entry and erases one that drains to <= 0; an absorb
// emplaces C or adds C; an M-merge takes the max and an A-merge adds, over
// the source's entries. Each relay keeps its own lazy decay clock, armed at
// its first touch, under the global DF or its per-node override, exactly as
// InterestManager::relay does. Every held value, and every ground-truth
// answer, must agree bit for bit with the production class.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <iterator>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/config.h"
#include "trace/contact.h"
#include "util/time.h"

namespace bsub::testing {

/// Transparent string hashing so lookups by string_view need no temporary
/// std::string.
struct StringHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};

class ReferenceShadows {
 public:
  /// Ground-truth key -> remaining counter value.
  using ShadowMap =
      std::unordered_map<std::string, double, StringHash, std::equal_to<>>;

  ReferenceShadows(std::size_t node_count, double df_per_minute)
      : df_per_minute_(df_per_minute), relays_(node_count) {}

  void set_node_df(trace::NodeId node, double df_per_minute) {
    relays_[node].df_override = df_per_minute;
  }

  /// Decays `node`'s shadow to `now`, materializing it with its clock
  /// armed at `now` on first touch.
  ShadowMap& advance(trace::NodeId node, util::Time now) {
    Relay& r = relays_[node];
    if (!r.materialized) {
      r.materialized = true;
      r.last_decay = now;
    }
    if (now > r.last_decay) {
      const double df =
          r.df_override >= 0.0 ? r.df_override : df_per_minute_;
      if (df > 0.0) {
        const double amount = df * util::to_minutes(now - r.last_decay);
        for (auto it = r.shadow.begin(); it != r.shadow.end();) {
          it->second -= amount;
          it = it->second <= 0.0 ? r.shadow.erase(it) : std::next(it);
        }
      }
      r.last_decay = now;
    }
    return r.shadow;
  }

  /// A genuine filter of `keys` (repeats included) A-merged into `broker`.
  void absorb(trace::NodeId broker, std::span<const std::string_view> keys,
              double initial_counter, util::Time now) {
    ShadowMap& shadow = advance(broker, now);
    for (std::string_view key : keys) {
      if (auto it = shadow.find(key); it != shadow.end()) {
        it->second += initial_counter;
      } else {
        shadow.emplace(std::string(key), initial_counter);
      }
    }
  }

  void merge(trace::NodeId dst, const ShadowMap& src_shadow,
             core::BrokerMergeMode mode, util::Time now) {
    ShadowMap& shadow = advance(dst, now);
    if (mode == core::BrokerMergeMode::kMMerge) {
      for (const auto& [key, value] : src_shadow) {
        auto [it, inserted] = shadow.emplace(key, value);
        if (!inserted) it->second = std::max(it->second, value);
      }
    } else {
      for (const auto& [key, value] : src_shadow) shadow[key] += value;
    }
  }

  /// Never materializes: an untouched relay holds nothing.
  bool genuinely_contains(trace::NodeId node, std::string_view key,
                          util::Time now) {
    if (!relays_[node].materialized) return false;
    const ShadowMap& shadow = advance(node, now);
    auto it = shadow.find(key);
    return it != shadow.end() && it->second > 0.0;
  }

  /// The key's counter as of the relay's last decay; 0.0 when not held.
  double value(trace::NodeId node, std::string_view key) const {
    const ShadowMap& shadow = relays_[node].shadow;
    auto it = shadow.find(key);
    return it == shadow.end() ? 0.0 : it->second;
  }
  const ShadowMap& shadow(trace::NodeId node) const {
    return relays_[node].shadow;
  }
  bool materialized(trace::NodeId node) const {
    return relays_[node].materialized;
  }
  util::Time last_decay(trace::NodeId node) const {
    return relays_[node].last_decay;
  }

 private:
  struct Relay {
    bool materialized = false;
    ShadowMap shadow;
    util::Time last_decay = 0;
    double df_override = -1.0;
  };

  double df_per_minute_;
  std::vector<Relay> relays_;
};

}  // namespace bsub::testing
