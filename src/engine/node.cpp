#include "engine/node.h"

#include <algorithm>

#include "core/protocol_registry.h"
#include "util/byte_io.h"
#include "util/errors.h"

namespace bsub::engine {

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
  // contact. The rebuilds advance their epochs, invalidating the hello and
  // genuine frame caches automatically.
  interest_report_ = bloom::BloomFilter(config_.filter_params);
  genuine_filter_ = std::make_unique<bloom::Tcbf>(config_.filter_params,
                                                  config_.initial_counter);
  for (const util::HashPair& hp : interest_hashes_) {
    interest_report_.insert(hp);
    genuine_filter_->insert(hp);
  }
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

const bloom::BloomFilter& BsubNode::relay_report_now(util::Time now) {
  // An unmaterialized relay projects to the (default-constructed, empty)
  // report; returning it without materializing keeps hello emission free
  // for never-broker nodes.
  if (relay_ == nullptr) return relay_report_;
  const bloom::Tcbf& relay = relay_now(now);
  if (relay_report_epoch_ != relay.epoch()) {
    relay_report_ = relay.to_bloom_filter();
    relay_report_epoch_ = relay.epoch();
  }
  return relay_report_;
}

std::vector<std::vector<std::uint8_t>> BsubNode::begin_contact(
    util::Time now) {
  purge(now);
  // Cached hello: reused verbatim while the interest report, the relay
  // projection, and the broker flag are all unchanged.
  return {encode_hello_cached(id_, broker_, interest_report_,
                              relay_report_now(now), hello_cache_)};
}

std::vector<std::vector<std::uint8_t>> BsubNode::handle(
    std::span<const std::uint8_t> frame_bytes, util::Time now) {
  Frame frame;
  try {
    frame = decode(frame_bytes);
  } catch (const util::DecodeError&) {
    return {};  // radios see garbage; drop it
  }
  // A filter on another geometry can be neither merged with nor ranked
  // against ours (a peer configured with a different m or k): drop it too.
  const bloom::Tcbf* filter = frame.genuine ? &frame.genuine->filter
                              : frame.relay ? &frame.relay->filter
                                            : nullptr;
  if (filter != nullptr && filter->params() != config_.filter_params) {
    return {};
  }
  purge(now);
  switch (frame.type) {
    case FrameType::kHello:
      return on_hello(*frame.hello, now);
    case FrameType::kGenuineFilter:
      on_genuine(*frame.genuine, now);
      return {};
    case FrameType::kRelayFilter:
      return on_relay(*frame.relay, now);
    case FrameType::kData:
      return on_data(*frame.data, now);
    case FrameType::kCustodyAck:
      on_custody_ack(*frame.custody_ack);
      return {};
  }
  return {};
}

void BsubNode::append_deliveries(
    const bloom::BloomFilter& report, util::Time now,
    std::vector<std::vector<std::uint8_t>>& out) {
  auto offer = [&](const ContentMessage& msg, const util::HashPair& hp) {
    if (!report.contains(hp)) return;
    DataFrame data;
    data.sender = id_;
    data.message = msg;
    data.custody = false;
    out.push_back(encode(data));
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
                              std::vector<std::vector<std::uint8_t>>& out) {
  // Two-phase custody: offers are free; the copy budget is only charged
  // when the broker's ack arrives (on_custody_ack).
  for (auto& [id, owned] : produced_) {
    if (owned.copies_left == 0 || owned.placed.contains(broker) ||
        !relay_report.contains(owned.key_hash)) {
      continue;
    }
    ++pickups_sent_;
    DataFrame data;
    data.sender = id_;
    data.message = owned.msg;
    data.custody = true;
    out.push_back(encode(data));
  }
}

std::vector<std::vector<std::uint8_t>> BsubNode::on_hello(
    const HelloFrame& hello, util::Time now) {
  std::vector<std::vector<std::uint8_t>> out;

  // Direct + broker-to-consumer delivery against the peer's report.
  append_deliveries(hello.interest_report, now, out);

  if (hello.is_broker) {
    // Interest propagation: our genuine filter (rebuilt on subscribe, so
    // the cached encoding is reused across contacts).
    if (!interests_.empty()) {
      out.push_back(encode_genuine_cached(id_, *genuine_filter_,
                                          genuine_cache_));
    }
    // Pickup: replicate matching own messages to the broker.
    append_pickups(hello.sender, hello.relay_report, out);
    // Broker-broker: send our relay filter for the preferential exchange.
    if (broker_) {
      out.push_back(encode_relay_cached(id_, relay_now(now), relay_cache_));
    }
  }
  return out;
}

void BsubNode::on_genuine(const GenuineFrame& frame, util::Time now) {
  if (!broker_) return;  // only brokers hold relay filters
  relay_now(now).a_merge(frame.filter);
}

std::vector<std::vector<std::uint8_t>> BsubNode::on_relay(
    const RelayFrame& frame, util::Time now) {
  std::vector<std::vector<std::uint8_t>> out;
  if (!broker_) return out;
  bloom::Tcbf& mine = relay_now(now);

  // Preferential forwarding decisions on the pre-merge filters, ranked over
  // the bit positions interned at custody admission (handle() admits only
  // filters of our own geometry).
  std::vector<std::pair<double, std::uint64_t>> ranked;
  for (const auto& [id, carried] : carried_) {
    if (auto it = transfer_refused_.find(id);
        it != transfer_refused_.end() && it->second.contains(frame.sender)) {
      continue;  // the peer already told us it will not take this one
    }
    const double pref =
        bloom::preference_at(frame.filter, mine, carried.key_indices);
    if (pref > 0.0) ranked.emplace_back(pref, id);
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& x, const auto& y) {
    return std::tie(y.first, x.second) < std::tie(x.first, y.second);
  });
  for (const auto& [pref, id] : ranked) {
    DataFrame data;
    data.sender = id_;
    data.message = carried_.at(id).msg;
    data.custody = true;
    out.push_back(encode(data));
    // Two-phase custody: the copy leaves only when the peer acks.
  }

  if (config_.broker_merge == core::BrokerMergeMode::kMMerge) {
    mine.m_merge(frame.filter);
  } else {
    mine.a_merge(frame.filter);
  }
  return out;
}

std::vector<std::vector<std::uint8_t>> BsubNode::on_data(
    const DataFrame& frame, util::Time now) {
  const ContentMessage& msg = frame.message;
  if (msg.expired_at(now)) return {};
  if (frame.custody) {
    if (broker_ && !carried_ever_.contains(msg.id) && msg.producer != id_) {
      const util::HashPair hp = util::hash_pair(msg.key);
      carried_.emplace(
          msg.id,
          CarriedMessage{msg, hp,
                         util::bloom_indices(hp, config_.filter_params.k,
                                             config_.filter_params.m)});
      carried_ever_.insert(msg.id);
      note_expiry(msg.expiry());
      ++custody_accepted_;
      CustodyAckFrame ack;
      ack.sender = id_;
      ack.message_id = msg.id;
      return {encode(ack)};
    }
    ++custody_refused_;
    CustodyAckFrame nack;
    nack.sender = id_;
    nack.message_id = msg.id;
    nack.accepted = false;
    return {encode(nack)};
  }
  // Final delivery: consume only if genuinely subscribed (a Bloom false
  // positive on the sender side is discarded here). Own productions do not
  // count as deliveries.
  if (msg.producer == id_ || !interests_.contains(msg.key)) return {};
  if (!consumed_.insert(msg.id).second) return {};
  if (on_delivery_) on_delivery_(msg, now);
  return {};
}

void BsubNode::on_custody_ack(const CustodyAckFrame& ack) {
  if (auto it = produced_.find(ack.message_id); it != produced_.end()) {
    OwnedMessage& owned = it->second;
    if (!ack.accepted) {
      // Permanent refusal: never offer this message to this peer again,
      // without charging the copy budget.
      owned.placed.insert(ack.sender);
      return;
    }
    // Placed: charge the budget and remember the peer.
    if (owned.copies_left > 0 && !owned.placed.contains(ack.sender)) {
      owned.placed.insert(ack.sender);
      if (--owned.copies_left == 0) produced_.erase(it);
    }
    return;
  }
  // A carried copy moved to a better broker: single custody, drop ours.
  if (ack.accepted) {
    carried_.erase(ack.message_id);
    transfer_refused_.erase(ack.message_id);
  } else if (carried_.contains(ack.message_id)) {
    transfer_refused_[ack.message_id].insert(ack.sender);
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
