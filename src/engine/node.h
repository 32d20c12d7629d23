// A live B-SUB node: the protocol state machine a real deployment would
// run, driven entirely by wire frames (engine/wire.h).
//
// Contact flow between two nodes (section V, one logical round trip):
//
//   harness: contact begins
//     each side emits kHello (id, broker flag, interest + relay reports)
//   on kHello:
//     - deliver matching buffered messages as kData (custody=false);
//       broker-held copies are offered only while the relay still routes
//       them (reverse-path gating);
//     - if the peer is a broker: emit kGenuineFilter;
//     - if the peer is a broker and we produce: replicate matching own
//       messages as kData (custody=true), bounded by the copy limit;
//     - if both sides are brokers: emit kRelayFilter.
//   on kGenuineFilter (broker): A-merge into the relay filter.
//   on kRelayFilter (broker): preferential-query forwarding of carried
//     messages as kData (custody=true), then M-merge.
//   on kData: custody=true -> store in the carried buffer; custody=false ->
//     consume if genuinely interesting (the key is in our interest set).
//
// The node never touches a network: it consumes frames and returns frames,
// so it is equally testable against the in-memory Network harness or a real
// transport.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "util/hash.h"

#include "bloom/bloom_filter.h"
#include "bloom/tcbf.h"
#include "core/broker_allocation.h"
#include "core/config.h"
#include "engine/wire.h"
#include "util/time.h"

namespace bsub::engine {

/// Configuration for a live node; reuses the protocol constants of
/// core::BsubConfig (filter geometry, C, DF, copy limit, gating).
struct NodeConfig {
  bloom::BloomParams filter_params{256, 4};
  double initial_counter = 50.0;
  double df_per_minute = 0.1;
  std::uint32_t copy_limit = 3;
  bool relay_gated_delivery = true;
  core::BrokerMergeMode broker_merge = core::BrokerMergeMode::kMMerge;
};

/// Projects the simulator-side protocol config onto the live node's knobs
/// (the shared constants: filter geometry, C, DF, copy limit, gating,
/// merge mode). Election thresholds are not part of a node; see
/// live_config_from_spec for the full mapping.
NodeConfig node_config_from(const core::BsubConfig& config);

/// A B-SUB spec resolved for every frame-driven surface (TraceRunner, the
/// fleet, the bsub_node daemon): the node's knobs plus the election
/// thresholds.
struct LiveConfig {
  NodeConfig node;
  core::BrokerElection::Config election;
};

/// Parses a B-SUB spec (see core::bsub_config_from_spec) into a LiveConfig:
/// the shared constants map onto NodeConfig, bl/bu/window_ms onto the
/// election config. Throws util::ConfigError for a non-B-SUB spec, a bad
/// parameter, or adaptive=1 (the frame engine has no online DF estimator —
/// failing loudly beats silently running a different protocol than asked).
LiveConfig live_config_from_spec(std::string_view protocol_spec);

class BsubNode {
 public:
  /// Called when a message is accepted by this node as a consumer.
  using DeliveryHandler =
      std::function<void(const ContentMessage&, util::Time)>;

  BsubNode(NodeId id, NodeConfig config = {});

  NodeId id() const { return id_; }
  bool is_broker() const { return broker_; }
  void set_broker(bool broker) { broker_ = broker; }

  /// Subscribes to a content key.
  void subscribe(std::string key);
  const std::set<std::string>& subscriptions() const { return interests_; }

  /// Publishes a message this node produced; it becomes eligible for direct
  /// delivery and broker pickup.
  void publish(ContentMessage message, util::Time now);

  void set_delivery_handler(DeliveryHandler handler) {
    on_delivery_ = std::move(handler);
  }

  /// Contact bootstrap: the frames this node sends when a contact opens.
  std::vector<std::vector<std::uint8_t>> begin_contact(util::Time now);

  /// Handles one incoming frame; returns the response frames (possibly
  /// empty). Malformed frames are dropped (util::DecodeError swallowed —
  /// a real radio sees garbage).
  std::vector<std::vector<std::uint8_t>> handle(
      std::span<const std::uint8_t> frame_bytes, util::Time now);

  /// Drops expired state; safe to call any time.
  void purge(util::Time now);

  /// Timer-driven maintenance for the live runtime: purges expired state
  /// and applies pending relay decay eagerly. TCBF decay is additive in
  /// elapsed time, so ticking is state-equivalent to the lazy on-access
  /// decay — a runtime with any tick cadence computes identical results.
  /// A node whose relay never materialized has nothing to decay (decaying
  /// an empty filter is a no-op), so the tick stays O(1) for it.
  void decay_tick(util::Time now) {
    purge(now);
    if (relay_ != nullptr) relay_now(now);
  }

  /// True if this node ever took broker custody of message `id` (survives
  /// handoff and expiry; used for per-message hop-count accounting).
  bool ever_carried(std::uint64_t id) const {
    return carried_ever_.contains(id);
  }

  // Introspection.
  std::size_t produced_count() const { return produced_.size(); }
  std::size_t carried_count() const { return carried_.size(); }
  /// Materializes the relay on demand: introspecting a node that never
  /// became a broker hands back a freshly allocated empty filter (the same
  /// state the eager layout would hold, since decay of an empty filter is
  /// a no-op).
  const bloom::Tcbf& relay_filter() const {
    if (relay_ == nullptr) {
      relay_ = std::make_unique<bloom::Tcbf>(config_.filter_params,
                                             config_.initial_counter);
    }
    return *relay_;
  }
  std::uint64_t deliveries_made() const { return deliveries_made_; }
  std::uint64_t pickups_sent() const { return pickups_sent_; }
  std::uint64_t custody_accepted() const { return custody_accepted_; }
  std::uint64_t custody_refused() const { return custody_refused_; }
  std::uint64_t consumed_total() const { return consumed_.size(); }

  /// Hot-path introspection: epoch-cached frame encodings reused / rebuilt
  /// across the hello, genuine, and relay streams.
  std::uint64_t frame_cache_hits() const {
    return hello_cache_.hits + genuine_cache_.hits + relay_cache_.hits;
  }
  std::uint64_t frame_cache_misses() const {
    return hello_cache_.misses + genuine_cache_.misses + relay_cache_.misses;
  }
  /// Purge calls skipped because the expiry watermark proved nothing could
  /// have expired, vs. calls that actually scanned the buffers.
  std::uint64_t purges_skipped() const { return purges_skipped_; }
  std::uint64_t purges_run() const { return purges_run_; }

 private:
  struct OwnedMessage {
    ContentMessage msg;
    /// Interned Bloom hash of msg.key: filter matches on every contact
    /// without re-hashing the string.
    util::HashPair key_hash;
    std::uint32_t copies_left;
    /// Brokers that already hold a replica; a copy is never spent twice on
    /// the same peer (the producer remembers its placements).
    std::set<NodeId> placed;
  };

  /// A message held in custody, with its key hash and Bloom bit positions
  /// (for this node's filter params) interned at admission.
  struct CarriedMessage {
    ContentMessage msg;
    util::HashPair key_hash;
    /// msg.key's bit positions under config_.filter_params: the relay
    /// preference ranking runs over these without re-deriving k indices
    /// per contact (kernel point queries gather straight from them).
    util::IndexArray key_indices;
  };

  bloom::Tcbf& relay_now(util::Time now);
  /// Keeps the relay's counter-less BF projection in sync with the relay
  /// filter's epoch; rebuilt only when the relay actually changed.
  const bloom::BloomFilter& relay_report_now(util::Time now);
  /// Registers an admitted message in the purge watermark.
  void note_expiry(util::Time expiry) {
    next_expiry_ = std::min(next_expiry_, expiry);
  }
  std::vector<std::vector<std::uint8_t>> on_hello(const HelloFrame& hello,
                                                  util::Time now);
  std::vector<std::vector<std::uint8_t>> on_relay(const RelayFrame& frame,
                                                  util::Time now);
  void on_genuine(const GenuineFrame& frame, util::Time now);
  std::vector<std::vector<std::uint8_t>> on_data(const DataFrame& frame,
                                                 util::Time now);
  void on_custody_ack(const CustodyAckFrame& ack);
  void append_deliveries(const bloom::BloomFilter& report, util::Time now,
                         std::vector<std::vector<std::uint8_t>>& out);
  void append_pickups(NodeId broker, const bloom::BloomFilter& relay_report,
                      std::vector<std::vector<std::uint8_t>>& out);

  NodeId id_;
  NodeConfig config_;
  bool broker_ = false;
  std::set<std::string> interests_;
  /// Interned hashes of interests_, in set order (rebuilt on subscribe).
  std::vector<util::HashPair> interest_hashes_;
  std::map<std::uint64_t, OwnedMessage> produced_;
  std::map<std::uint64_t, CarriedMessage> carried_;
  /// Peers that permanently refused custody of a carried id (nacked).
  std::map<std::uint64_t, std::set<NodeId>> transfer_refused_;
  std::unordered_set<std::uint64_t> carried_ever_;
  std::unordered_set<std::uint64_t> consumed_;
  /// Relay TCBF, materialized on first broker use (merge, gated delivery,
  /// relay-frame emission) — null for the vast majority of nodes, which
  /// never broker. Null is observationally an empty filter: decay no-ops
  /// on empty filters, so materializing with the clock set to "now" is
  /// state-identical to having carried an eager empty relay since t=0.
  /// `mutable` so the const introspection accessor can materialize too.
  mutable std::unique_ptr<bloom::Tcbf> relay_;
  util::Time relay_decayed_at_ = 0;
  DeliveryHandler on_delivery_;
  std::uint64_t deliveries_made_ = 0;
  std::uint64_t pickups_sent_ = 0;
  std::uint64_t custody_accepted_ = 0;
  std::uint64_t custody_refused_ = 0;

  /// Counter-less BF of interests_, rebuilt on subscribe (not per contact).
  bloom::BloomFilter interest_report_;
  /// Genuine TCBF of interests_, built on first subscribe — null for pure
  /// producers/brokers with no subscriptions (it is only ever sent by
  /// subscribers, guarded by `!interests_.empty()`).
  std::unique_ptr<bloom::Tcbf> genuine_filter_;
  /// Counter-less projection of relay_, rebuilt only when relay_'s epoch
  /// moved past relay_report_epoch_.
  bloom::BloomFilter relay_report_;
  std::uint64_t relay_report_epoch_ = 0;
  /// Epoch-keyed encoded-frame caches (one per outgoing frame stream).
  FrameCache hello_cache_;
  FrameCache genuine_cache_;
  FrameCache relay_cache_;
  /// Earliest expiry over produced_/carried_ admissions (a lower bound:
  /// early removals never raise it). purge() is O(1) before this instant.
  util::Time next_expiry_ = util::kTimeMax;
  std::uint64_t purges_skipped_ = 0;
  std::uint64_t purges_run_ = 0;
};

}  // namespace bsub::engine
