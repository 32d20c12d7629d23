// Shared plumbing for the fleet runtime surfaces: the deterministic fleet
// scenario (synthetic community trace + explicit workload), protocol-spec
// -> FleetConfig assembly with Eq. 5 DF tuning, and the engine-harness
// differential. Used by bench_fleet (the gated harness) and the bsub_fleet
// CLI (one point, interactive).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/df_tuning.h"
#include "net/fleet/fleet_runtime.h"
#include "trace/synthetic.h"
#include "util/rng.h"
#include "workload/workload.h"

namespace bsub::bench {

/// One fleet point: `nodes` live nodes meeting over `contacts` synthetic
/// community contacts, with `messages` published through the middle of the
/// window so every message sees live traffic before and after it.
struct FleetPoint {
  std::size_t nodes = 1000;
  std::size_t contacts = 8000;
  std::size_t messages = 200;
};

inline constexpr util::Time kFleetDuration = 12 * util::kHour;
inline constexpr util::Time kFleetTtl = 6 * util::kHour;

/// Deterministic scenario for a fleet point. Construct in place and keep
/// alive for the runtime's lifetime — the workload references `keys`.
struct FleetScenario {
  trace::ContactTrace trace;
  workload::KeySet keys;
  workload::Workload workload;

  FleetScenario(const FleetPoint& point, std::uint64_t seed)
      : trace([&] {
          trace::SyntheticTraceConfig cfg;
          cfg.node_count = point.nodes;
          cfg.contact_count = point.contacts;
          cfg.duration = kFleetDuration;
          cfg.community_count = std::max<std::size_t>(1, point.nodes / 50);
          cfg.seed = seed;
          return trace::generate_trace(cfg);
        }()),
        keys(workload::twitter_trend_keys()),
        workload(keys, point.nodes, make_interests(point, keys),
                 make_messages(point, keys, seed)) {}

 private:
  static std::vector<workload::KeyId> make_interests(
      const FleetPoint& point, const workload::KeySet& keys) {
    std::vector<workload::KeyId> interests(point.nodes);
    for (std::size_t n = 0; n < point.nodes; ++n) {
      interests[n] = static_cast<workload::KeyId>(n % keys.size());
    }
    return interests;
  }

  static std::vector<workload::Message> make_messages(
      const FleetPoint& point, const workload::KeySet& keys,
      std::uint64_t seed) {
    std::vector<workload::Message> messages(point.messages);
    util::Rng rng(seed ^ 0xF1EE7ULL);
    for (std::size_t i = 0; i < point.messages; ++i) {
      workload::Message& m = messages[i];
      m.id = i;
      m.key = static_cast<workload::KeyId>(
          rng.next_below(static_cast<std::uint64_t>(keys.size())));
      m.producer = static_cast<trace::NodeId>(
          rng.next_below(static_cast<std::uint64_t>(point.nodes)));
      m.size_bytes = 1 + static_cast<std::uint32_t>(rng.next_below(140));
      m.created = static_cast<util::Time>(
          (static_cast<double>(i) + 0.5) /
          static_cast<double>(std::max<std::size_t>(point.messages, 1)) *
          static_cast<double>(kFleetDuration));
      m.ttl = kFleetTtl;
    }
    return messages;
  }
};

/// FleetConfig for a scenario: a non-empty protocol spec is applied via
/// fleet_config_from_spec (B-SUB only, adaptive rejected); an empty spec
/// keeps the default config with the DF tuned against the materialized
/// trace (Eq. 5). decay_tick is 0 throughout — the loopback engine
/// requires it, and it keeps one config valid for both engines.
inline net::FleetConfig make_fleet_config(const FleetScenario& scenario,
                                          const std::string& protocol_spec) {
  net::FleetConfig cfg;
  cfg.runtime.decay_tick = 0;
  if (!protocol_spec.empty()) {
    cfg = net::fleet_config_from_spec(protocol_spec, cfg);
  } else {
    cfg.runtime.node.df_per_minute =
        core::compute_df(scenario.trace, kFleetTtl,
                         cfg.runtime.node.filter_params,
                         cfg.runtime.node.initial_counter)
            .df_per_minute;
  }
  return cfg;
}

/// Runs engine::TraceRunner over the same scenario/config and compares the
/// protocol results bit for bit (doubles by memcmp, not ==), printing each
/// mismatching field to stderr. The loopback engine's determinism gate,
/// shared by the bsub_fleet CLI and bench_fleet.
inline bool fleet_matches_engine(const FleetScenario& scenario,
                                 const net::FleetConfig& cfg,
                                 const engine::TraceRunResults& got) {
  engine::TraceRunner runner(cfg.runtime.node, cfg.election,
                             cfg.bandwidth_bytes_per_second);
  const engine::TraceRunResults expect =
      runner.run(scenario.trace, scenario.workload);
  bool ok = true;
  auto check_u64 = [&](const char* field, std::uint64_t g, std::uint64_t e) {
    if (g == e) return;
    ok = false;
    std::fprintf(stderr, "MISMATCH %s: fleet=%llu engine=%llu\n", field,
                 static_cast<unsigned long long>(g),
                 static_cast<unsigned long long>(e));
  };
  auto check_f64 = [&](const char* field, double g, double e) {
    if (std::memcmp(&g, &e, sizeof g) == 0) return;
    ok = false;
    std::fprintf(stderr, "MISMATCH %s: fleet=%.17g engine=%.17g\n", field, g,
                 e);
  };
  check_u64("deliveries", got.deliveries, expect.deliveries);
  check_u64("expected_deliveries", got.expected_deliveries,
            expect.expected_deliveries);
  check_u64("contacts_processed", got.contacts_processed,
            expect.contacts_processed);
  check_u64("frames_delivered", got.frames_delivered, expect.frames_delivered);
  check_u64("frames_dropped", got.frames_dropped, expect.frames_dropped);
  check_u64("bytes_used", got.bytes_used, expect.bytes_used);
  check_f64("delivery_ratio", got.delivery_ratio, expect.delivery_ratio);
  check_f64("mean_delay_minutes", got.mean_delay_minutes,
            expect.mean_delay_minutes);
  return ok;
}

}  // namespace bsub::bench
