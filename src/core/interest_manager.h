// Relay- and genuine-filter management (paper section V-C).
//
// A consumer's interests live in a *genuine filter* (a fresh TCBF whose
// counters all equal the initial value C — built on demand when reporting).
// A broker accumulates other users' interests in its *relay filter*, which
// decays continuously at the DF; decay is applied lazily (per-filter
// timestamps) so idle nodes cost nothing.
// Ground truth: alongside every relay filter the manager keeps a *shadow
// set* — the keys the filter genuinely absorbed, with counters mirroring the
// TCBF's decay/merge arithmetic. The shadow is measurement instrumentation
// only (it costs no protocol bytes): comparing a TCBF hit against the shadow
// identifies relay-filter false positives, which feed the paper's
// false-delivery metric (Fig. 9(d)).
//
// Storage is lazy: B-SUB's own premise is that only brokers carry relay
// filters, so a node costs 16 bytes of slot (state pointer + DF override)
// until its relay is first touched. Relay state (a full TCBF + shadow map)
// materializes on first use and stays for the rest of the run: a demoted
// broker keeps its relay (BsubProtocol::on_contact). This is bit-identical
// in every protocol-observable way to building every node's relay up front
// (an unmaterialized relay behaves exactly like an eagerly-built empty one:
// decay of an empty filter is a no-op, so the decay-clock origin is
// unobservable until the first insert, which materializes).
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "bloom/bloom_filter.h"
#include "bloom/tcbf.h"
#include "core/config.h"
#include "trace/contact.h"
#include "util/hash.h"
#include "util/time.h"

namespace bsub::core {

/// Transparent string hashing so shadow lookups by string_view need no
/// temporary std::string.
struct StringHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};

class InterestManager {
 public:
  /// Ground-truth key -> remaining counter value.
  using ShadowMap =
      std::unordered_map<std::string, double, StringHash, std::equal_to<>>;
  InterestManager(std::size_t node_count, bloom::BloomParams params,
                  double initial_counter, double df_per_minute);

  /// The node's relay filter, decayed up to `now`. The per-node DF override
  /// (if set) takes precedence over the global DF. Materializes the node's
  /// relay state on first call.
  bloom::Tcbf& relay(trace::NodeId node, util::Time now);

  /// Read-only peek without advancing the decay clock (for inspection).
  /// Unmaterialized nodes see a shared empty filter.
  const bloom::Tcbf& relay_snapshot(trace::NodeId node) const {
    const NodeSlot& s = slots_[node];
    return s.state == nullptr ? empty_relay_ : s.state->filter;
  }

  /// Builds the genuine filter for a single interest key.
  bloom::Tcbf make_genuine(std::string_view key) const;

  /// Builds the genuine filter for a set of interest keys (section V-A's
  /// multi-key extension).
  bloom::Tcbf make_genuine(std::span<const std::string_view> keys) const;

  /// Interned-hash variant: no string hashing on the hot path.
  bloom::Tcbf make_genuine(std::span<const util::HashPair> keys) const;

  /// Builds the counter-less interest report (a plain BF) for a key.
  bloom::BloomFilter make_report(std::string_view key) const;

  /// Counter-less report for a set of keys.
  bloom::BloomFilter make_report(std::span<const std::string_view> keys) const;

  /// Interned-hash variant: no string hashing on the hot path.
  bloom::BloomFilter make_report(std::span<const util::HashPair> keys) const;

  /// A-merges a consumer's genuine filter into a broker's relay filter
  /// (reinforcement happens through repeated meetings). `key` is the
  /// interest the genuine filter represents, recorded in the shadow set.
  void absorb_genuine(trace::NodeId broker, const bloom::Tcbf& genuine,
                      std::string_view key, util::Time now);

  /// Multi-key absorb: every key of the genuine filter enters the shadow.
  void absorb_genuine(trace::NodeId broker, const bloom::Tcbf& genuine,
                      std::span<const std::string_view> keys, util::Time now);

  /// Merges another broker's relay state (filter + shadow) into `dst`'s,
  /// with M-merge or A-merge semantics. `dst` is decayed to `now` first.
  void merge_relay_from(trace::NodeId dst, const bloom::Tcbf& src_filter,
                        const ShadowMap& src_shadow, BrokerMergeMode mode,
                        util::Time now);

  /// Ground truth: does `node`'s relay filter genuinely hold `key` at `now`?
  /// A TCBF hit without this is a relay false positive. Never materializes:
  /// an unmaterialized relay holds nothing.
  bool genuinely_contains(trace::NodeId node, std::string_view key,
                          util::Time now);

  /// Shadow set snapshot (decayed to whenever relay() was last called).
  /// Unmaterialized nodes see a shared empty map.
  const ShadowMap& shadow_snapshot(trace::NodeId node) const {
    const NodeSlot& s = slots_[node];
    return s.state == nullptr ? empty_shadow_ : s.state->shadow;
  }

  /// Per-node DF override in counter units per minute (adaptive DF); pass a
  /// negative value to clear the override.
  void set_node_df(trace::NodeId node, double df_per_minute);
  double node_df(trace::NodeId node) const;

  const bloom::BloomParams& params() const { return params_; }

  /// Observability for tests and memory accounting.
  bool relay_materialized(trace::NodeId node) const {
    return slots_[node].state != nullptr;
  }
  /// Nodes whose relay state exists (O(nodes); read after a run).
  std::size_t materialized_relays() const;
  /// Always 0: relays are never released, so none is ever reused. Kept for
  /// the end-to-end benchmark's `core.relays_recycled` column.
  std::uint64_t relays_recycled() const { return 0; }

 private:
  struct RelayState {
    bloom::Tcbf filter;
    ShadowMap shadow;
    util::Time last_decay = 0;
  };
  /// What every node pays, participant or not: a state pointer (null until
  /// first touch) + DF override.
  struct NodeSlot {
    std::unique_ptr<RelayState> state;
    double df_override = -1.0;
  };

  /// Materializes (or fetches) the node's relay state; a fresh state starts
  /// its decay clock at `now`, which is indistinguishable from an empty
  /// state built up front and decayed to `now`.
  RelayState& state_for(trace::NodeId node, util::Time now);

  bloom::BloomParams params_;
  double initial_counter_;
  double df_per_minute_;
  std::vector<NodeSlot> slots_;
  /// Shared snapshots for unmaterialized nodes.
  bloom::Tcbf empty_relay_;
  ShadowMap empty_shadow_;
};

}  // namespace bsub::core
