// Inputs of the end-to-end benchmark: the five workloads' contact traces
// and pub-sub workloads, and the FNV-64 digests that pin them.
//
// Each workload's scenario is fixed: the contact graph (generated with seed
// 2010, the repo's experiment seed) and who subscribes to what (the seed-
// 2010 draw for the paper traces, node n -> key n mod |keys| elsewhere).
// haggle and reality stand in for the paper's fixed CRAWDAD traces, and
// the city and fleet scenarios are held fixed the same way. `--seed` draws
// the publications: who publishes, when, on which key, how large. Drawing
// the subscriptions too (a few dozen nodes picking from a skewed key
// popularity) swings the popular keys' audiences: reality's work per
// replay differed by 20% between two seeds, haggle's delivery ratio spanned
// 0.79-0.84 over eight (0.80-0.93 with the graph drawn too), which would
// hide real changes behind the seed.
//
// The definitions mirror the scenario code of the older bench harnesses
// (experiment_common.h, scale_common.h, fleet_common.h) at seed 2010, but
// are kept here so that edits to those harnesses cannot move the benchmark.
// What can move it — a change to a generator in src/ — is caught by the
// digests.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "trace/city.h"
#include "trace/synthetic.h"
#include "trace/trace.h"
#include "util/rng.h"
#include "util/time.h"
#include "workload/workload.h"

namespace bsub::e2e {

/// Seed of every fixed scenario (contact graph and subscriptions), and the
/// `--seed` whose input digests the benchmark records.
inline constexpr std::uint64_t kScenarioSeed = 2010;

/// TTL (and Eq. 5 delay bound W) of the paper workloads, section VII-B.
inline constexpr util::Time kPaperTtl = 10 * util::kHour;
/// TTL and Eq. 5 window of the city and fleet workloads.
inline constexpr util::Time kScaleTtl = 6 * util::kHour;

/// FNV-1a, 64-bit, over little-endian integer fields.
class Fnv64 {
 public:
  Fnv64& add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFFu;
      h_ *= 0x100000001B3ULL;
    }
    return *this;
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

/// Digest of a contact graph: node count, then every contact in order.
inline std::uint64_t trace_digest(const trace::ContactTrace& trace) {
  Fnv64 f;
  f.add(trace.node_count()).add(trace.contacts().size());
  for (const trace::Contact& c : trace.contacts()) {
    f.add(c.a).add(c.b).add(static_cast<std::uint64_t>(c.start))
        .add(static_cast<std::uint64_t>(c.end));
  }
  return f.value();
}

/// Digest of a pub-sub workload: subscriptions, then every message.
inline std::uint64_t workload_digest(const workload::Workload& w) {
  Fnv64 f;
  f.add(w.node_count());
  for (trace::NodeId n = 0; n < w.node_count(); ++n) {
    for (workload::KeyId k : w.interests_of(n)) f.add(k);
  }
  f.add(w.messages().size());
  for (const workload::Message& m : w.messages()) {
    f.add(m.id).add(m.key).add(m.producer).add(m.size_bytes)
        .add(static_cast<std::uint64_t>(m.created))
        .add(static_cast<std::uint64_t>(m.ttl));
  }
  return f.value();
}

/// The paper traces (Table I presets). `scale` < 1 shortens the trace at
/// the same contact density for the smoke run.
inline trace::ContactTrace paper_trace(bool haggle, double scale) {
  trace::SyntheticTraceConfig cfg =
      haggle ? trace::haggle_infocom06_config(kScenarioSeed)
             : trace::mit_reality_config(kScenarioSeed);
  cfg.contact_count = static_cast<std::size_t>(
      static_cast<double>(cfg.contact_count) * scale);
  cfg.duration = static_cast<util::Time>(
      static_cast<double>(cfg.duration) * scale);
  return trace::generate_trace(cfg);
}

/// The paper workload (section VII-A) over a paper trace: subscriptions of
/// the seed-2010 draw, publications of the `seed` draw. At seed 2010 it is
/// exactly Scenario::make_workload of experiment_common.h.
inline workload::Workload paper_workload(const trace::ContactTrace& trace,
                                         const workload::KeySet& keys,
                                         std::uint64_t seed) {
  workload::WorkloadConfig cfg;
  cfg.ttl = kPaperTtl;
  cfg.seed = kScenarioSeed + 1;
  const workload::Workload subscriptions(trace, keys, cfg);
  std::vector<workload::KeyId> interests(trace.node_count());
  for (trace::NodeId n = 0; n < interests.size(); ++n) {
    interests[n] = subscriptions.interest_of(n);
  }
  cfg.seed = seed + 1;
  std::vector<workload::Message> messages =
      seed == kScenarioSeed ? subscriptions.messages()
                         : workload::Workload(trace, keys, cfg).messages();
  return workload::Workload(keys, trace.node_count(), std::move(interests),
                            std::move(messages));
}

/// City-dense: 2,000 nodes, 2,000,000 commuter contacts over 4 days
/// (~250 contacts per node per day, Haggle-like density; city_config's
/// default ~10/node/day delivers ~0.1%).
inline trace::CityTraceConfig city_dense_config(double scale) {
  trace::CityTraceConfig cfg = trace::city_config(
      static_cast<std::size_t>(2000 * scale),
      static_cast<std::uint64_t>(2'000'000 * scale), kScenarioSeed);
  cfg.days = 4;
  return cfg;
}

/// Fleet graph: the synthetic community trace of fleet_common.h's
/// FleetScenario{1000, 200000, ...} over 12 hours.
inline constexpr util::Time kFleetDuration = 12 * util::kHour;

inline trace::ContactTrace fleet_trace(double scale) {
  trace::SyntheticTraceConfig cfg;
  cfg.node_count = static_cast<std::size_t>(1000 * scale);
  cfg.contact_count = static_cast<std::size_t>(200000 * scale);
  cfg.duration = kFleetDuration;
  cfg.community_count = std::max<std::size_t>(1, cfg.node_count / 50);
  cfg.seed = kScenarioSeed;
  return trace::generate_trace(cfg);
}

/// Explicit workload of the city and fleet scenarios: node n subscribes to
/// key n mod |keys|; `messages` publications with random key, producer and
/// size, created evenly through the trace. `salt` keeps the two scenario
/// families' draws apart (0x5CA1E: scale_common.h, 0xF1EE7: fleet_common.h).
inline workload::Workload uniform_workload(const workload::KeySet& keys,
                                           std::size_t node_count,
                                           std::size_t message_count,
                                           util::Time duration,
                                           std::uint64_t seed,
                                           std::uint64_t salt) {
  std::vector<workload::KeyId> interests(node_count);
  for (std::size_t n = 0; n < node_count; ++n) {
    interests[n] = static_cast<workload::KeyId>(n % keys.size());
  }
  std::vector<workload::Message> messages(message_count);
  util::Rng rng(seed ^ salt);
  for (std::size_t i = 0; i < message_count; ++i) {
    workload::Message& m = messages[i];
    m.id = i;
    m.key = static_cast<workload::KeyId>(
        rng.next_below(static_cast<std::uint64_t>(keys.size())));
    m.producer = static_cast<trace::NodeId>(
        rng.next_below(static_cast<std::uint64_t>(node_count)));
    m.size_bytes = 1 + static_cast<std::uint32_t>(rng.next_below(140));
    m.created = static_cast<util::Time>(
        (static_cast<double>(i) + 0.5) / static_cast<double>(message_count) *
        static_cast<double>(duration));
    m.ttl = kScaleTtl;
  }
  return workload::Workload(keys, node_count, std::move(interests),
                            std::move(messages));
}

}  // namespace bsub::e2e
