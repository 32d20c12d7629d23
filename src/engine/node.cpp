#include "engine/node.h"

#include <algorithm>
#include <optional>

#include "bloom/tcbf_codec.h"
#include "core/protocol_registry.h"
#include "util/byte_io.h"
#include "util/errors.h"

namespace bsub::engine {

/// One begin_contact()/handle() call's output, in the calling thread's
/// storage: every frame is appended to `arena` (cached frames are copied,
/// a few dozen to a few hundred bytes). Views are built when the call ends,
/// because appends may move the arena.
struct BsubNode::Outbox {
  struct Slot {
    std::size_t offset;
    std::size_t size;
  };
  std::vector<std::uint8_t> arena;
  std::vector<Slot> slots;
  std::vector<std::span<const std::uint8_t>> views;

  /// The calling thread's outbox, emptied. One per thread: a node step
  /// never calls another node's step.
  static Outbox& begin() {
    thread_local Outbox outbox;
    outbox.arena.clear();
    outbox.slots.clear();
    return outbox;
  }

  /// Appends one frame with `append(arena)`.
  template <typename Append>
  void add(Append&& append) {
    const std::size_t start = arena.size();
    append(arena);
    slots.push_back({start, arena.size() - start});
  }
  void add_cached(const std::vector<std::uint8_t>& bytes) {
    add([&](std::vector<std::uint8_t>& a) {
      a.insert(a.end(), bytes.begin(), bytes.end());
    });
  }
  void add_data(NodeId sender, const ContentMessage& msg, bool custody) {
    add([&](std::vector<std::uint8_t>& a) {
      append_data(sender, msg, custody, a);
    });
  }
  void add_ack(NodeId sender, std::uint64_t message_id, bool accepted) {
    add([&](std::vector<std::uint8_t>& a) {
      append_frame(CustodyAckFrame{sender, message_id, accepted}, a);
    });
  }

  Frames finish() {
    views.clear();
    for (const Slot& s : slots) {
      views.emplace_back(arena.data() + s.offset, s.size);
    }
    return views;
  }
};

namespace {

/// A hello's two reports, decoded into storage the calling thread reuses
/// (m bits each; nothing else of a received frame outlives its call).
struct HelloReports {
  bloom::BloomFilter interest;
  bloom::BloomFilter relay;
};

HelloReports& hello_reports() {
  thread_local HelloReports reports;
  return reports;
}

}  // namespace

BsubNode::BsubNode(NodeId id, NodeConfig config)
    : id_(id), config_(config),
      interest_report_(config.filter_params),
      relay_report_(config.filter_params) {}

void BsubNode::subscribe(std::string key) {
  interests_.insert(std::move(key));
  interest_hashes_.clear();
  interest_hashes_.reserve(interests_.size());
  for (const std::string& k : interests_) {
    interest_hashes_.push_back(util::hash_pair(k));
  }
  // The interest report and genuine filter are pure functions of the
  // subscription set: rebuild them here, once per subscribe, instead of per
  // contact. The report's rebuild advances its epoch, invalidating the
  // hello cache; the genuine filter is only ever sent, so its frame is
  // encoded here and the filter dropped.
  interest_report_ = bloom::BloomFilter(config_.filter_params);
  GenuineFrame genuine{id_, bloom::Tcbf(config_.filter_params,
                                        config_.initial_counter)};
  for (const util::HashPair& hp : interest_hashes_) {
    interest_report_.insert(hp);
    genuine.filter.insert(hp);
  }
  genuine_frame_ = encode(genuine);
}

void BsubNode::publish(ContentMessage message, util::Time now) {
  message.producer = id_;
  if (message.created == 0) message.created = now;
  note_expiry(message.expiry());
  const util::HashPair hp = util::hash_pair(message.key);
  produced_.emplace(
      message.id,
      OwnedMessage{std::move(message), hp, config_.copy_limit, {}});
}

bloom::Tcbf& BsubNode::relay_now(util::Time now) {
  if (relay_ == nullptr) {
    // First broker use. Arming the decay clock at `now` instead of 0 is
    // exact: the filter was empty for the whole skipped interval, and
    // decaying an empty filter is a no-op.
    relay_ = std::make_unique<bloom::Tcbf>(config_.filter_params,
                                           config_.initial_counter);
    relay_decayed_at_ = now;
  }
  if (now > relay_decayed_at_) {
    if (config_.df_per_minute > 0.0) {
      relay_->decay(config_.df_per_minute *
                    util::to_minutes(now - relay_decayed_at_));
    }
    relay_decayed_at_ = now;
  }
  return *relay_;
}

void BsubNode::merge_into_relay(const bloom::Tcbf& filter, bool additive,
                                util::Time now) {
  bloom::Tcbf& relay = relay_now(now);
  const std::size_t before = relay.popcount();
  if (additive) {
    relay.a_merge(filter);
  } else {
    relay.m_merge(filter);
  }
  if (relay.popcount() != before) relay_report_bits_ = kStaleReport;
}

const bloom::BloomFilter& BsubNode::relay_report_now(util::Time now) {
  // An unmaterialized relay projects to the (default-constructed, empty)
  // report; returning it without materializing keeps hello emission free
  // for never-broker nodes.
  if (relay_ == nullptr) return relay_report_;
  const bloom::Tcbf& relay = relay_now(now);
  const std::size_t bits = relay.popcount();
  if (bits != relay_report_bits_) {
    relay_report_ = relay.to_bloom_filter();
    relay_report_bits_ = bits;
  }
  return relay_report_;
}

Frames BsubNode::begin_contact(util::Time now) {
  Outbox& out = Outbox::begin();
  purge(now);
  // Cached hello: reused verbatim while the interest report, the relay
  // projection, and the broker flag are all unchanged.
  out.add_cached(encode_hello_cached(id_, broker_, interest_report_,
                                     relay_report_now(now), hello_cache_));
  return out.finish();
}

Frames BsubNode::handle(std::span<const std::uint8_t> frame_bytes,
                        util::Time now) {
  Outbox& out = Outbox::begin();
  FrameView frame;
  try {
    frame = parse_frame(frame_bytes);
  } catch (const util::DecodeError&) {
    return {};  // radios see garbage; drop it
  }
  switch (frame.type) {
    case FrameType::kHello: {
      HelloReports& reports = hello_reports();
      try {
        bloom::decode_bloom_into(frame.filter, reports.interest);
        bloom::decode_bloom_into(frame.relay_report, reports.relay);
      } catch (const util::DecodeError&) {
        return {};
      }
      purge(now);
      on_hello(frame.sender, frame.flag, reports.interest, reports.relay, now,
               out);
      break;
    }
    case FrameType::kGenuineFilter:
    case FrameType::kRelayFilter: {
      // Decoded for this call only: a received TCBF never outlives it.
      std::optional<bloom::Tcbf> filter;
      try {
        filter.emplace(bloom::decode_tcbf(frame.filter));
      } catch (const util::DecodeError&) {
        return {};
      }
      // A filter on another geometry can be neither merged with nor ranked
      // against ours (a peer configured with a different m or k): drop it.
      if (filter->params() != config_.filter_params) return {};
      purge(now);
      if (frame.type == FrameType::kRelayFilter) {
        on_relay(frame.sender, *filter, now, out);
      } else if (broker_) {  // only brokers hold relay filters
        merge_into_relay(*filter, /*additive=*/true, now);
      }
      break;
    }
    case FrameType::kData:
      purge(now);
      on_data(frame.message, frame.flag, now, out);
      break;
    case FrameType::kCustodyAck:
      purge(now);
      on_custody_ack(frame.sender, frame.message_id, frame.flag);
      break;
  }
  return out.finish();
}

void BsubNode::append_deliveries(const bloom::BloomFilter& report,
                                 util::Time now, Outbox& out) {
  auto offer = [&](const ContentMessage& msg, const util::HashPair& hp) {
    if (!report.contains(hp)) return;
    out.add_data(id_, msg, /*custody=*/false);
    ++deliveries_made_;
  };
  for (const auto& [id, owned] : produced_) offer(owned.msg, owned.key_hash);
  const bloom::Tcbf* gate =
      (config_.relay_gated_delivery && broker_) ? &relay_now(now) : nullptr;
  for (const auto& [id, carried] : carried_) {
    if (gate != nullptr && !gate->contains(carried.key_hash)) continue;
    offer(carried.msg, carried.key_hash);
  }
}

void BsubNode::append_pickups(NodeId broker,
                              const bloom::BloomFilter& relay_report,
                              Outbox& out) {
  // Two-phase custody: offers are free; the copy budget is only charged
  // when the broker's ack arrives (on_custody_ack).
  for (auto& [id, owned] : produced_) {
    if (owned.copies_left == 0 || owned.placed.contains(broker) ||
        !relay_report.contains(owned.key_hash)) {
      continue;
    }
    ++pickups_sent_;
    out.add_data(id_, owned.msg, /*custody=*/true);
  }
}

void BsubNode::on_hello(NodeId sender, bool is_broker,
                        const bloom::BloomFilter& interest_report,
                        const bloom::BloomFilter& relay_report,
                        util::Time now, Outbox& out) {
  // Direct + broker-to-consumer delivery against the peer's report.
  append_deliveries(interest_report, now, out);

  if (is_broker) {
    // Interest propagation: our genuine filter, encoded on subscribe.
    if (!interests_.empty()) out.add_cached(genuine_frame_);
    // Pickup: replicate matching own messages to the broker.
    append_pickups(sender, relay_report, out);
    // Broker-broker: send our relay filter for the preferential exchange.
    if (broker_) {
      out.add_cached(encode_relay_cached(id_, relay_now(now), relay_cache_));
    }
  }
}

void BsubNode::on_relay(NodeId sender, const bloom::Tcbf& filter,
                        util::Time now, Outbox& out) {
  if (!broker_) return;
  const bloom::Tcbf& mine = relay_now(now);

  // Preferential forwarding decisions on the pre-merge filters, ranked over
  // the bit positions interned at custody admission (handle() admits only
  // filters of our own geometry).
  thread_local std::vector<std::pair<double, std::uint64_t>> ranked;
  ranked.clear();
  for (const auto& [id, carried] : carried_) {
    if (auto it = transfer_refused_.find(id);
        it != transfer_refused_.end() && it->second.contains(sender)) {
      continue;  // the peer already told us it will not take this one
    }
    const double pref =
        bloom::preference_at(filter, mine, carried.key_indices);
    if (pref > 0.0) ranked.emplace_back(pref, id);
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& x, const auto& y) {
    return std::tie(y.first, x.second) < std::tie(x.first, y.second);
  });
  for (const auto& [pref, id] : ranked) {
    // Two-phase custody: the copy leaves only when the peer acks.
    out.add_data(id_, carried_.at(id).msg, /*custody=*/true);
  }

  merge_into_relay(filter,
                   config_.broker_merge != core::BrokerMergeMode::kMMerge,
                   now);
}

void BsubNode::on_data(const MessageView& msg, bool custody, util::Time now,
                       Outbox& out) {
  if (msg.expired_at(now)) return;
  if (custody) {
    if (broker_ && !carried_ever_.contains(msg.id) && msg.producer != id_) {
      const util::HashPair hp = util::hash_pair(msg.key);
      carried_.emplace(
          msg.id,
          CarriedMessage{msg.to_message(), hp,
                         util::bloom_indices(hp, config_.filter_params.k,
                                             config_.filter_params.m)});
      carried_ever_.insert(msg.id);
      note_expiry(msg.expiry());
      ++custody_accepted_;
      out.add_ack(id_, msg.id, /*accepted=*/true);
      return;
    }
    ++custody_refused_;
    out.add_ack(id_, msg.id, /*accepted=*/false);
    return;
  }
  // Final delivery: consume only if genuinely subscribed (a Bloom false
  // positive on the sender side is discarded here). Own productions do not
  // count as deliveries.
  if (msg.producer == id_ || !interests_.contains(msg.key)) return;
  if (!consumed_.insert(msg.id).second) return;
  if (on_delivery_) on_delivery_(msg.to_message(), now);
}

void BsubNode::on_custody_ack(NodeId sender, std::uint64_t message_id,
                              bool accepted) {
  if (auto it = produced_.find(message_id); it != produced_.end()) {
    OwnedMessage& owned = it->second;
    if (!accepted) {
      // Permanent refusal: never offer this message to this peer again,
      // without charging the copy budget.
      owned.placed.insert(sender);
      return;
    }
    // Placed: charge the budget and remember the peer.
    if (owned.copies_left > 0 && !owned.placed.contains(sender)) {
      owned.placed.insert(sender);
      if (--owned.copies_left == 0) produced_.erase(it);
    }
    return;
  }
  // A carried copy moved to a better broker: single custody, drop ours.
  if (accepted) {
    carried_.erase(message_id);
    transfer_refused_.erase(message_id);
  } else if (carried_.contains(message_id)) {
    transfer_refused_[message_id].insert(sender);
  }
}

void BsubNode::purge(util::Time now) {
  // Watermark gate: nothing admitted can have expired before next_expiry_
  // (early removals only make the bound conservative), so purge is O(1)
  // until that instant.
  if (now < next_expiry_) {
    ++purges_skipped_;
    return;
  }
  ++purges_run_;
  std::erase_if(produced_, [now](const auto& kv) {
    return kv.second.msg.expired_at(now);
  });
  std::erase_if(carried_, [now](const auto& kv) {
    return kv.second.msg.expired_at(now);
  });
  std::erase_if(transfer_refused_, [this](const auto& kv) {
    return !carried_.contains(kv.first);
  });
  // Re-derive the watermark from the survivors.
  next_expiry_ = util::kTimeMax;
  for (const auto& [id, owned] : produced_) {
    next_expiry_ = std::min(next_expiry_, owned.msg.expiry());
  }
  for (const auto& [id, carried] : carried_) {
    next_expiry_ = std::min(next_expiry_, carried.msg.expiry());
  }
}

NodeConfig node_config_from(const core::BsubConfig& config) {
  NodeConfig out;
  out.filter_params = config.filter_params;
  out.initial_counter = config.initial_counter;
  out.df_per_minute = config.df_per_minute;
  out.copy_limit = config.copy_limit;
  out.relay_gated_delivery = config.relay_gated_delivery;
  out.broker_merge = config.broker_merge;
  return out;
}

LiveConfig live_config_from_spec(std::string_view protocol_spec) {
  const core::BsubConfig cfg = core::bsub_config_from_spec(protocol_spec);
  if (cfg.adaptive_df) {
    throw util::ConfigError(
        "adaptive DF is not supported by the frame-driven engine",
        "B-SUB.adaptive", "use the simulator for adaptive-DF runs");
  }
  return LiveConfig{
      node_config_from(cfg),
      {cfg.broker_lower, cfg.broker_upper, cfg.election_window}};
}

}  // namespace bsub::engine
