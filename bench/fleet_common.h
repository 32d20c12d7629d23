// Shared plumbing for the fleet runtime surfaces: the deterministic fleet
// scenario (synthetic community trace + explicit workload), protocol-spec
// -> FleetConfig assembly with Eq. 5 DF tuning, and the engine-harness
// differential. Used by bsub_paper's fleet experiment (the gated points)
// and the bsub_fleet CLI (one point, interactive).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>

#include "core/df_tuning.h"
#include "experiment_common.h"
#include "net/fleet/fleet_runtime.h"
#include "trace/synthetic.h"
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

/// Deterministic scenario for a fleet point: the workload is
/// make_scale_workload's over the fleet window (kFleetTtl is its 6 h TTL).
/// Construct in place and keep alive for the runtime's lifetime — the
/// workload references `keys`.
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
        workload(make_scale_workload(keys, point.nodes, point.messages,
                                     kFleetDuration, seed, kFleetSalt)) {}
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
/// shared by the bsub_fleet CLI and bsub_paper's fleet experiment.
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
