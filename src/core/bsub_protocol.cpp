#include "core/bsub_protocol.h"

#include <algorithm>
#include <cstdio>

#include "bloom/tcbf_codec.h"
#include "core/df_tuning.h"
#include "util/binomial.h"

namespace bsub::core {

BsubProtocol::BsubProtocol(BsubConfig config) : config_(config) {}

BsubProtocol::~BsubProtocol() = default;

const std::string& BsubProtocol::key_name(workload::KeyId key) const {
  return workload_->keys().name(key);
}

const util::HashPair& BsubProtocol::key_hash(workload::KeyId key) const {
  return workload_->keys().hash(key);
}

double BsubProtocol::measured_relay_fpr() const {
  const std::uint64_t probes = fpr_probes_.load(std::memory_order_relaxed);
  const std::uint64_t hits = fpr_hits_.load(std::memory_order_relaxed);
  return probes == 0 ? 0.0
                     : static_cast<double>(hits) / static_cast<double>(probes);
}

void BsubProtocol::on_start(const sim::ScenarioInfo& scenario,
                            const workload::Workload& workload,
                            metrics::Collector& collector) {
  const std::size_t nodes = scenario.node_count;
  workload_ = &workload;
  collector_ = &collector;
  election_ = std::make_unique<BrokerElection>(
      nodes,
      BrokerElection::Config{config_.broker_lower, config_.broker_upper,
                             config_.election_window});
  interests_ = std::make_unique<InterestManager>(
      nodes, config_.filter_params, config_.initial_counter,
      config_.df_per_minute);
  produced_.clear();
  produced_.resize(nodes);
  carrier_.clear();
  carrier_.resize(nodes);
  interest_offsets_.assign(nodes + 1, 0);
  for (std::size_t n = 0; n < nodes; ++n) {
    interest_offsets_[n + 1] =
        interest_offsets_[n] +
        static_cast<std::uint32_t>(workload.interests_of(n).size());
  }
  interest_names_flat_.clear();
  interest_hashes_flat_.clear();
  interest_names_flat_.reserve(interest_offsets_[nodes]);
  interest_hashes_flat_.reserve(interest_offsets_[nodes]);
  for (std::size_t n = 0; n < nodes; ++n) {
    for (workload::KeyId k : workload.interests_of(n)) {
      interest_names_flat_.push_back(key_name(k));
      interest_hashes_flat_.push_back(key_hash(k));
    }
  }
  filter_ptr_.assign(nodes, nullptr);
  shared_filters_.clear();
  filter_index_.clear();
  key_indices_.clear();
  key_indices_.reserve(workload.keys().size());
  for (workload::KeyId k = 0; k < workload.keys().size(); ++k) {
    key_indices_.push_back(util::bloom_indices(
        workload.keys().hash(k), config_.filter_params.k,
        config_.filter_params.m));
  }
  false_injections_.store(0, std::memory_order_relaxed);
  traffic_pickups_.store(0, std::memory_order_relaxed);
  traffic_broker_transfers_.store(0, std::memory_order_relaxed);
  traffic_deliveries_.store(0, std::memory_order_relaxed);
  traffic_tie_transfers_.store(0, std::memory_order_relaxed);
  fpr_probes_.store(0, std::memory_order_relaxed);
  fpr_hits_.store(0, std::memory_order_relaxed);
}

void BsubProtocol::on_message_created(const workload::Message& msg,
                                      util::Time /*now*/) {
  // The simulator hands a reference into the workload's stable message
  // table, so the producer buffer borrows the payload instead of copying.
  produced_state(msg.producer).add(msg, config_.copy_limit);
  ++collector_->hot_path().payload_copies_avoided;
}

void BsubProtocol::purge(trace::NodeId node, util::Time now) {
  // Null producer/carrier state reads as empty buffers: nothing to purge.
  auto& hp = collector_->hot_path();
  if (sim::KeyedBuffer* p = produced_[node].get()) {
    p->purge(now, workload_->messages(), hp);
  }
  if (CarrierState* cs = carrier_[node].get()) {
    // An expired copy leaves the false-injection set with the buffer.
    cs->carried.purge(now, workload_->messages(), hp,
                      [cs](workload::MessageId id) {
                        cs->falsely_injected.erase(id);
                      });
  }
}

void BsubProtocol::build_filter_cache(NodeFilterCache& fc,
                                      trace::NodeId node) const {
  // A node's interest set is fixed for the whole run, so its interest
  // report, genuine filter, and their exact wire sizes are run constants.
  fc.report = interests_->make_report(interest_hashes(node));
  fc.report_bytes = bloom::encoded_bloom_wire_size(fc.report);
  fc.genuine = interests_->make_genuine(interest_hashes(node));
  fc.genuine_bytes = bloom::encoded_tcbf_wire_size(
      fc.genuine, bloom::CounterEncoding::kUniform);
  for (workload::KeyId k = 0; k < key_indices_.size(); ++k) {
    if (fc.report.contains_at(key_indices(k))) fc.report_keys.push_back(k);
  }
}

const BsubProtocol::NodeFilterCache& BsubProtocol::node_filters(
    trace::NodeId node) {
  auto& hp = collector_->hot_path();
  if (const NodeFilterCache* fc = filter_ptr_[node]) {
    ++hp.encode_cache_hits;
    return *fc;
  }
  // First use for this node counts as a miss, even when another node
  // already built the shared entry.
  ++hp.encode_cache_misses;
  // Canonical key: filter contents are a pure function of the interest
  // *set* — insertion order cannot change final bits/counters and repeats
  // are idempotent — so nodes sharing a subscription set share one entry.
  const std::span<const workload::KeyId> node_keys =
      workload_->interests_of(node);
  std::vector<workload::KeyId> canon(node_keys.begin(), node_keys.end());
  std::sort(canon.begin(), canon.end());
  canon.erase(std::unique(canon.begin(), canon.end()), canon.end());
  std::lock_guard<std::mutex> lock(filter_mu_);
  auto [it, inserted] = filter_index_.try_emplace(std::move(canon), nullptr);
  if (inserted) {
    shared_filters_.emplace_back();
    build_filter_cache(shared_filters_.back(), node);
    it->second = &shared_filters_.back();
  }
  filter_ptr_[node] = it->second;
  return *it->second;
}

void BsubProtocol::maybe_update_adaptive_df(trace::NodeId node,
                                            util::Time now) {
  if (!config_.adaptive_df || !election_->is_broker(node)) return;
  // The broker re-derives Eq. 5 from the distinct nodes it met in its own
  // window — the online estimation the paper sketches in section VII-B.
  const std::size_t degree = election_->degree(node, now);
  double emin;
  {
    // The cache is the only cross-node mutable map in the contact path;
    // a mutex keeps it safe under concurrent batches, and determinism is
    // unaffected because the value is a pure function of the degree (two
    // workers racing on a miss compute the identical number).
    std::lock_guard<std::mutex> lock(emin_mu_);
    auto it = emin_cache_.find(degree);
    if (it == emin_cache_.end()) {
      const double p = static_cast<double>(config_.filter_params.k) /
                       static_cast<double>(config_.filter_params.m);
      it = emin_cache_
               .emplace(degree, util::expected_min_binomial(
                                    degree, p, config_.filter_params.k))
               .first;
    }
    emin = it->second;
  }
  const double df = config_.initial_counter * (1.0 + emin) /
                        util::to_minutes(config_.df_window) +
                    0.01;
  interests_->set_node_df(node, df);
}

void BsubProtocol::on_contact(trace::NodeId a, trace::NodeId b, util::Time now,
                              util::Time /*duration*/, sim::Link& link) {
  purge(a, now);
  purge(b, now);

  // Role flips keep the relay filter: the election churns (nodes hover
  // around the thresholds), and decay already retires stale relay state —
  // clearing on every flip would destroy live routes for nothing. A
  // re-promoted broker simply resumes from its decayed filter.
  election_->on_contact(a, b, now);
  maybe_update_adaptive_df(a, now);
  maybe_update_adaptive_df(b, now);

  const bool a_broker = election_->is_broker(a);
  const bool b_broker = election_->is_broker(b);

  if (a_broker && b_broker) broker_exchange(a, b, now, link);

  direct_delivery(a, b, now, link);
  direct_delivery(b, a, now, link);

  // Pickups run against the relay state as it stood when the nodes met;
  // absorbing this contact's own interest report happens afterwards.
  // (Otherwise every pickup would see the partner's interest freshly
  // re-inserted at full strength and the decaying factor would never bite.)
  if (b_broker) broker_pickup(a, b, now, link);
  if (a_broker) broker_pickup(b, a, now, link);

  if (b_broker) propagate_interest(a, b, now, link);
  if (a_broker) propagate_interest(b, a, now, link);
}

void BsubProtocol::broker_exchange(trace::NodeId a, trace::NodeId b,
                                   util::Time now, sim::Link& link) {
  // Decay both relay filters up to the contact, then exchange them. The
  // forwarding decisions use the pre-merge filters (section V-D); they run
  // before either merge, so the live (decayed) filters *are* the pre-merge
  // snapshots — no copies needed for ranking. The exchange's byte cost
  // comes from the exact wire-size formula; the encodings themselves are
  // never materialized because the simulator only charges their sizes
  // against the link budget.
  bloom::Tcbf& relay_a = interests_->relay(a, now);
  bloom::Tcbf& relay_b = interests_->relay(b, now);
  const std::size_t bytes =
      bloom::encoded_tcbf_wire_size(relay_a, bloom::CounterEncoding::kFull) +
      bloom::encoded_tcbf_wire_size(relay_b, bloom::CounterEncoding::kFull);
  if (!link.try_send(bytes)) return;
  collector_->record_control_bytes(bytes);

  forward_between_brokers(a, b, relay_a, relay_b, link);
  forward_between_brokers(b, a, relay_b, relay_a, link);

  // The first merge mutates a, so only a's pre-merge state needs to survive
  // in scratch; b's live state feeds the first merge directly. thread_local
  // (not members) so concurrent executor threads each get their own
  // buffers while the capacity still survives across contacts on a thread.
  thread_local bloom::Tcbf scratch_relay;
  thread_local InterestManager::ShadowMap scratch_shadow;
  scratch_relay = relay_a;
  scratch_shadow = interests_->shadow_snapshot(a);
  interests_->merge_relay_from(a, relay_b, interests_->shadow_snapshot(b),
                               config_.broker_merge, now);
  interests_->merge_relay_from(b, scratch_relay, scratch_shadow,
                               config_.broker_merge, now);
}

void BsubProtocol::forward_between_brokers(trace::NodeId from,
                                           trace::NodeId to,
                                           const bloom::Tcbf& filter_from,
                                           const bloom::Tcbf& filter_to,
                                           sim::Link& link) {
  // Rank carried messages by the peer's preference over ours; only positive
  // preferences move (the peer is a strictly better custodian). The
  // preference depends on the key alone: one preferential query per
  // bucket, and only buckets the peer prefers are walked.
  struct Candidate {
    double pref;
    workload::MessageId id;
    const workload::Message* msg;
  };
  CarrierState* cs_from = carrier_[from].get();
  if (cs_from == nullptr || cs_from->carried.size == 0) return;
  thread_local std::vector<Candidate> ranked;
  ranked.clear();
  std::uint64_t visited = 0;
  for (const sim::KeyedBuffer::Bucket& bucket : cs_from->carried.buckets) {
    if (bucket.entries.empty()) continue;
    // Preferential query over the interned bit positions (no re-deriving k
    // indices per filter); bit-identical to the hash-pair overload.
    const double pref = bloom::preference_at(filter_to, filter_from,
                                             key_indices(bucket.key));
    if (pref <= 0.0) continue;
    visited += bucket.entries.size();
    for (const sim::KeyedBuffer::Entry& e : bucket.entries) {
      if (e.msg->producer == to || ever_carried(to, e.id)) continue;
      ranked.push_back({pref, e.id, e.msg});
    }
  }
  if (visited == 0) return;  // the peer is no better custodian for any key
  collector_->hot_path().buffer_entries_visited += visited;
  std::sort(ranked.begin(), ranked.end(), [](const Candidate& x,
                                             const Candidate& y) {
    return std::tie(y.pref, x.id) < std::tie(x.pref, y.id);  // pref desc
  });

  std::uint64_t moved = 0;
  std::uint64_t ties = 0;
  for (const Candidate& c : ranked) {
    if (!link.try_send(c.msg->size_bytes)) break;
    collector_->record_forwarding(*c.msg);
    ++moved;
    ties += c.pref < kRoundingTie;
    CarrierState& cs_to = carrier_state(to);
    cs_to.carried.add(*c.msg, 0);  // custody moves by sharing the payload
    cs_to.carried_ever.insert(c.id);
    if (cs_from->falsely_injected.erase(c.id)) {
      cs_to.falsely_injected.insert(c.id);
    }
    // Single custody between brokers: the sender drops its copy.
    cs_from->carried.erase(c.msg->key, c.id);
  }
  if (moved > 0) {
    traffic_broker_transfers_.fetch_add(moved, std::memory_order_relaxed);
    if (ties > 0) {
      traffic_tie_transfers_.fetch_add(ties, std::memory_order_relaxed);
    }
    collector_->hot_path().payload_copies_avoided += moved;
  }
}

void BsubProtocol::direct_delivery(trace::NodeId from, trace::NodeId to,
                                   util::Time now, sim::Link& link) {
  // The consumer side reports a counter-less BF of its interests. Interests
  // are static per run, so the cached report, its exact wire size and the
  // keys it matches are reused.
  const NodeFilterCache& fc = node_filters(to);
  if (!link.try_send(fc.report_bytes)) return;
  collector_->record_control_bytes(fc.report_bytes);

  // Returns false when the link budget is exhausted. The consumer keeps the
  // message (and acks) when its true interest matches. `falsely_fn` defers
  // the false-injection lookup to the (rare) moment a delivery actually
  // happens; probes that miss pay nothing for it.
  auto try_deliver = [&](const workload::Message& msg, auto&& falsely_fn) {
    if (msg.producer == to) return true;
    if (collector_->delivered(msg.id, to)) return true;
    if (!link.try_send(msg.size_bytes)) return false;
    collector_->record_forwarding(msg);
    traffic_deliveries_.fetch_add(1, std::memory_order_relaxed);
    collector_->record_delivery(msg, to, now,
                                workload_->is_interested(to, msg.key),
                                falsely_fn());
    return true;
  };

  // Only the buckets of keys in the report (and, if `relay` is set, still
  // routed by it) are offered; merged by id, they go out in the order an
  // id-sorted buffer filtered the same way would.
  thread_local std::vector<sim::Run> runs;
  auto select = [&](sim::KeyedBuffer& buffer, const bloom::Tcbf* relay) {
    runs.clear();
    for (workload::KeyId k : fc.report_keys) {
      sim::KeyedBuffer::Bucket* bucket = buffer.find(k);
      if (bucket == nullptr || bucket->entries.empty()) continue;
      if (relay != nullptr && !relay->contains_at(key_indices(k))) continue;
      runs.emplace_back(bucket->entries);
    }
  };
  std::uint64_t visited = 0;
  bool link_open = true;
  sim::KeyedBuffer* produced = produced_[from].get();
  if (produced != nullptr && produced->size > 0) {
    select(*produced, nullptr);
    link_open =
        sim::visit_in_id_order(runs, visited, [&](sim::KeyedBuffer::Entry& e) {
          return try_deliver(*e.msg, [] { return false; });
        });
  }
  // Carried copies stay in custody after a delivery so one replica can
  // serve several subscribers of the same key; the per-broker carried_ever
  // memory already bounds how far a copy can wander between brokers.
  // Reverse-path gating: a broker offers a key's copies only while its
  // relay filter still routes the key (section V-C's delivery tree).
  // Demoted ex-brokers have no relay authority anymore; they serve their
  // leftover copies ungated until TTL (they cannot acquire new ones).
  CarrierState* cs = carrier_[from].get();
  if (link_open && cs != nullptr && cs->carried.size > 0) {
    const bloom::Tcbf* relay = nullptr;
    if (config_.relay_gated_delivery && election_->is_broker(from)) {
      relay = &interests_->relay(from, now);
    }
    select(cs->carried, relay);
    sim::visit_in_id_order(runs, visited, [&](sim::KeyedBuffer::Entry& e) {
      return try_deliver(*e.msg, [&] {
        return cs->falsely_injected.contains(e.id);
      });
    });
  }
  // Shared counters are bumped only with something to add: most contacts
  // of a sparse city walk nothing, and concurrent workers would contend.
  if (visited > 0) collector_->hot_path().buffer_entries_visited += visited;
}

void BsubProtocol::propagate_interest(trace::NodeId consumer,
                                      trace::NodeId broker, util::Time now,
                                      sim::Link& link) {
  // The genuine filter is a pure function of the consumer's static interest
  // set — reuse the cached build and its wire size (fresh genuine filters
  // have identical counters: uniform encoding).
  const std::span<const std::string_view> keys = interest_names(consumer);
  const NodeFilterCache& fc = node_filters(consumer);
  if (!link.try_send(fc.genuine_bytes)) return;
  collector_->record_control_bytes(fc.genuine_bytes);
  interests_->absorb_genuine(broker, fc.genuine, keys, now);
}

void BsubProtocol::broker_pickup(trace::NodeId producer, trace::NodeId broker,
                                 util::Time now, sim::Link& link) {
  // The broker ships its relay filter counter-less (section VI-C: "when a
  // broker requests messages from a source, it does not need to report the
  // counters"). The TCBF answers counter-less membership directly (bit set
  // iff its effective counter is positive — exactly to_bloom_filter's bits),
  // so neither the BF nor its encoding is materialized: the exact wire size
  // is charged.
  bloom::Tcbf& relay = interests_->relay(broker, now);
  const std::size_t enc_bytes =
      bloom::encoded_bloom_wire_size(relay.popcount(), relay.params());
  if (!link.try_send(enc_bytes)) return;
  collector_->record_control_bytes(enc_bytes);

  // Instrumentation: probe the relay with keys guaranteed absent (the \x01
  // prefix is outside the workload universe) to sample the operative relay
  // FPR over time. Probe strings rotate so the estimate averages over the
  // key space instead of pinning 8 fixed bit patterns — and they are a pure
  // function of the contact (producer, broker, time, slot), never of a
  // global sequence number, so the sampled FPR is identical whatever order
  // non-conflicting contacts execute in.
  char probe[32];
  std::uint64_t mix = static_cast<std::uint64_t>(producer) << 32 |
                      static_cast<std::uint64_t>(broker);
  mix ^= static_cast<std::uint64_t>(now) * 0x9e3779b97f4a7c15ull;
  std::uint64_t local_hits = 0;
  for (int i = 0; i < 8; ++i) {
    // splitmix64 finalizer over the contact identity + slot.
    std::uint64_t z = mix + 0x9e3779b97f4a7c15ull * (std::uint64_t)(i + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    std::snprintf(probe, sizeof(probe), "\x01probe:%016llx",
                  static_cast<unsigned long long>(z));
    local_hits += relay.contains(probe);
  }
  fpr_probes_.fetch_add(8, std::memory_order_relaxed);
  fpr_hits_.fetch_add(local_hits, std::memory_order_relaxed);

  sim::KeyedBuffer* produced = produced_[producer].get();
  if (produced == nullptr || produced->size == 0) return;  // nothing to pick
  // The relay match is per key: only the buckets it passes are walked,
  // merged by id. The ground-truth lookup is per key too, made at a key's
  // first pickup (-1: not asked yet).
  thread_local std::vector<sim::Run> runs;
  thread_local std::vector<signed char> genuine;
  runs.clear();
  genuine.resize(key_indices_.size());
  for (sim::KeyedBuffer::Bucket& bucket : produced->buckets) {
    if (!bucket.entries.empty() &&
        relay.contains_at(key_indices(bucket.key))) {
      runs.emplace_back(bucket.entries);
      genuine[bucket.key] = -1;
    }
  }
  // A message whose copy budget runs out leaves the producer (V-D); erased
  // after the walk, which holds spans into the buckets.
  thread_local std::vector<const workload::Message*> exhausted;
  exhausted.clear();
  std::uint64_t visited = 0;
  std::uint64_t picked = 0;
  sim::visit_in_id_order(runs, visited, [&](sim::KeyedBuffer::Entry& e) {
    if (e.copies_left == 0 || ever_carried(broker, e.id)) return true;
    const workload::Message& msg = *e.msg;
    if (!link.try_send(msg.size_bytes)) return false;
    collector_->record_forwarding(msg);
    ++picked;
    CarrierState& cs = carrier_state(broker);
    cs.carried.add(msg, 0);  // share the producer's payload
    cs.carried_ever.insert(msg.id);
    // Ground truth: a pickup whose key the relay never genuinely absorbed is
    // a false injection (Bloom false positive of the relay filter).
    if (genuine[msg.key] < 0) {
      genuine[msg.key] =
          interests_->genuinely_contains(broker, key_name(msg.key), now);
    }
    if (genuine[msg.key] == 0) {
      cs.falsely_injected.insert(msg.id);
      false_injections_.fetch_add(1, std::memory_order_relaxed);
    }
    if (--e.copies_left == 0) exhausted.push_back(&msg);
    return true;
  });
  if (visited == 0) return;
  for (const workload::Message* msg : exhausted) {
    produced->erase(msg->key, msg->id);
  }
  auto& hp = collector_->hot_path();
  hp.buffer_entries_visited += visited;
  if (picked > 0) {
    traffic_pickups_.fetch_add(picked, std::memory_order_relaxed);
    hp.payload_copies_avoided += picked;
  }
}

}  // namespace bsub::core
