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
// transport. Returned frames are views (see Frames) of one buffer the
// calling thread reuses: DATA and custody-ack frames are encoded into it
// straight from the node's state, cached frames (hello, genuine, relay)
// are copied into it, and no frame gets an allocation of its own.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <span>
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

/// The frames one begin_contact() or handle() call emits, in send order.
/// The views point into a buffer the calling thread owns, so they stay
/// valid until the next begin_contact() or handle() call on the same
/// thread, on any node. A caller that keeps frames longer (a FIFO of frames
/// in flight) copies them.
using Frames = std::span<const std::span<const std::uint8_t>>;

class BsubNode {
 public:
  /// Called when a message is accepted by this node as a consumer, from
  /// inside handle(): it must not start another node step on its thread
  /// (the step's output buffer is in use).
  using DeliveryHandler =
      std::function<void(const ContentMessage&, util::Time)>;

  BsubNode(NodeId id, NodeConfig config = {});

  NodeId id() const { return id_; }
  bool is_broker() const { return broker_; }
  void set_broker(bool broker) { broker_ = broker; }

  /// Subscribes to a content key.
  void subscribe(std::string key);
  const std::set<std::string, std::less<>>& subscriptions() const {
    return interests_;
  }

  /// Publishes a message this node produced; it becomes eligible for direct
  /// delivery and broker pickup.
  void publish(ContentMessage message, util::Time now);

  void set_delivery_handler(DeliveryHandler handler) {
    on_delivery_ = std::move(handler);
  }

  /// Contact bootstrap: the frames this node sends when a contact opens.
  Frames begin_contact(util::Time now);

  /// Handles one incoming frame; returns the response frames (possibly
  /// none). Malformed frames are dropped (util::DecodeError swallowed — a
  /// real radio sees garbage). `frame_bytes` must not alias this thread's
  /// previous output.
  Frames handle(std::span<const std::uint8_t> frame_bytes, util::Time now);

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
  /// across the hello and relay streams (the genuine frame is encoded once
  /// per subscribe).
  std::uint64_t frame_cache_hits() const {
    return hello_cache_.hits + relay_cache_.hits;
  }
  std::uint64_t frame_cache_misses() const {
    return hello_cache_.misses + relay_cache_.misses;
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

  /// The calling thread's output frames (defined in node.cpp).
  struct Outbox;

  bloom::Tcbf& relay_now(util::Time now);
  /// A- or M-merges `filter` into the relay, noting whether it set a bit.
  void merge_into_relay(const bloom::Tcbf& filter, bool additive,
                        util::Time now);
  /// The relay's counter-less BF projection, rebuilt only when its bit set
  /// changed (see relay_report_bits_).
  const bloom::BloomFilter& relay_report_now(util::Time now);
  /// Registers an admitted message in the purge watermark.
  void note_expiry(util::Time expiry) {
    next_expiry_ = std::min(next_expiry_, expiry);
  }
  void on_hello(NodeId sender, bool is_broker,
                const bloom::BloomFilter& interest_report,
                const bloom::BloomFilter& relay_report, util::Time now,
                Outbox& out);
  void on_relay(NodeId sender, const bloom::Tcbf& filter, util::Time now,
                Outbox& out);
  void on_data(const MessageView& msg, bool custody, util::Time now,
               Outbox& out);
  void on_custody_ack(NodeId sender, std::uint64_t message_id,
                      bool accepted);
  void append_deliveries(const bloom::BloomFilter& report, util::Time now,
                         Outbox& out);
  void append_pickups(NodeId broker, const bloom::BloomFilter& relay_report,
                      Outbox& out);

  NodeId id_;
  NodeConfig config_;
  bool broker_ = false;
  std::set<std::string, std::less<>> interests_;
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
  /// The genuine-filter frame, encoded on subscribe. The genuine TCBF is a
  /// pure function of interests_, so subscribe() builds it, encodes it and
  /// drops it: a subscriber keeps a few dozen bytes instead of a 2 KiB
  /// filter. Empty for pure producers/brokers with no subscriptions (it is
  /// only ever sent by subscribers, guarded by `!interests_.empty()`).
  std::vector<std::uint8_t> genuine_frame_;
  /// Counter-less projection of relay_. Decay only clears bits and merges
  /// only set them, so while no merge has set a bit since the projection,
  /// the relay's bits are a subset of it, equal exactly when the popcounts
  /// agree. relay_report_bits_ is the projected popcount, or kStaleReport
  /// once a merge set a new bit; a decay that clears no bit keeps the
  /// projection — and the cached hello — although it moves the relay's
  /// epoch.
  bloom::BloomFilter relay_report_;
  static constexpr std::size_t kStaleReport = ~std::size_t{0};
  std::size_t relay_report_bits_ = 0;
  /// Epoch-keyed encoded-frame caches (one per outgoing frame stream).
  FrameCache hello_cache_;
  FrameCache relay_cache_;
  /// Earliest expiry over produced_/carried_ admissions (a lower bound:
  /// early removals never raise it). purge() is O(1) before this instant.
  util::Time next_expiry_ = util::kTimeMax;
  std::uint64_t purges_skipped_ = 0;
  std::uint64_t purges_run_ = 0;
};

}  // namespace bsub::engine
