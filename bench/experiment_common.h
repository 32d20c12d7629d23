// Shared plumbing for the bench and tool binaries: scenario and workload
// construction, protocol runners and BENCH_*.json result emission.
// bsub_paper regenerates the paper's tables and figures and the harness
// experiments with it (see DESIGN.md's experiment index); the bsub_scale
// and bsub_fleet CLIs build their scenarios with it.
#pragma once

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/bsub_protocol.h"
#include "core/df_tuning.h"
#include "core/protocol_registry.h"
#include "metrics/collector.h"
#include "sim/simulator.h"
#include "trace/synthetic.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "workload/workload.h"

namespace bsub::bench {

/// Seed shared by all experiment binaries so figures are cross-consistent.
inline constexpr std::uint64_t kExperimentSeed = 2010;  // ICDCS 2010

struct Scenario {
  trace::ContactTrace trace;
  workload::KeySet keys;

  explicit Scenario(const trace::SyntheticTraceConfig& cfg)
      : trace(trace::generate_trace(cfg)),
        keys(workload::twitter_trend_keys()) {}

  workload::Workload make_workload(util::Time ttl) const {
    workload::WorkloadConfig wcfg;
    wcfg.ttl = ttl;
    wcfg.seed = kExperimentSeed + 1;
    return workload::Workload(trace, keys, wcfg);
  }
};

inline Scenario haggle_scenario() {
  return Scenario(trace::haggle_infocom06_config(kExperimentSeed));
}

inline Scenario reality_scenario() {
  return Scenario(trace::mit_reality_config(kExperimentSeed));
}

/// Salts that keep the scale and fleet scenario families' draws apart at
/// one seed (make_scale_workload).
inline constexpr std::uint64_t kScaleSalt = 0x5CA1EULL;
inline constexpr std::uint64_t kFleetSalt = 0xF1EE7ULL;

/// Deterministic workload for `node_count` nodes over `duration`, built
/// from the explicit Workload constructor, so a streamed scenario never
/// materializes a trace: node n subscribes to key n mod |keys|, and
/// `message_count` messages of 1-140 bytes with uniform keys and
/// producers are created evenly through the window (every message sees
/// live contact traffic before and after it) and live 6 h.
inline workload::Workload make_scale_workload(const workload::KeySet& keys,
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
        (static_cast<double>(i) + 0.5) /
        static_cast<double>(message_count) * static_cast<double>(duration));
    m.ttl = 6 * util::kHour;
  }
  return workload::Workload(keys, node_count, std::move(interests),
                            std::move(messages));
}

/// B-SUB with the paper's parameters and the DF derived from Eq. 5 for the
/// given delay bound (W = TTL, as section VII-B prescribes).
inline core::BsubConfig bsub_config_for(const Scenario& s, util::Time ttl) {
  core::BsubConfig cfg;
  cfg.df_per_minute =
      core::compute_df(s.trace, ttl, cfg.filter_params, cfg.initial_counter)
          .df_per_minute;
  return cfg;
}

struct ProtocolRun {
  metrics::RunResults results;
  double relay_fpr = 0.0;        // B-SUB only
  double broker_fraction = 0.0;  // B-SUB only: brokers at the end of the run
  /// B-SUB only: broker-to-broker custody moves made on a rounding tie
  /// (BsubProtocol::TrafficBreakdown::tie_transfers).
  std::uint64_t tie_transfers = 0;
};

/// The full protocol table, shared by every experiment and tool entry
/// point. Benches name protocols by spec string, never by constructor.
inline const sim::ProtocolRegistry& protocol_registry() {
  static const sim::ProtocolRegistry registry = core::make_protocol_registry();
  return registry;
}

/// Runs one protocol named by spec over a materialized scenario. B-SUB's
/// extra observability (measured relay FPR, broker share, tie transfers)
/// is filled when the spec resolves to B-SUB; baselines report zeros.
inline ProtocolRun run_spec(const Scenario& s, const workload::Workload& w,
                            const std::string& spec) {
  const std::unique_ptr<sim::Protocol> proto = protocol_registry().make(spec);
  ProtocolRun out;
  out.results = sim::Simulator().run(s.trace, w, *proto);
  if (const auto* bsub =
          dynamic_cast<const core::BsubProtocol*>(proto.get())) {
    out.relay_fpr = bsub->measured_relay_fpr();
    out.broker_fraction = bsub->election().broker_fraction();
    out.tie_transfers = bsub->traffic().tie_transfers;
  }
  return out;
}

inline ProtocolRun run_bsub(const Scenario& s, const workload::Workload& w,
                            const core::BsubConfig& cfg) {
  // Through the exact round-trip printer, so every B-SUB experiment run
  // also exercises the registry's spec grammar.
  return run_spec(s, w, core::bsub_spec(cfg));
}

inline void print_header(const std::string& title) {
  std::printf("\n%s\n", title.c_str());
  std::printf("%s\n", std::string(title.size(), '-').c_str());
}

/// Wall-clock timer for BENCH reports and timed points.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// --- BENCH_*.json rows --------------------------------------------------------

/// Minimal JSON object builder for sweep-point rows. Doubles print with
/// %.17g so serial and parallel runs serialize bit-identically.
class JsonObject {
 public:
  JsonObject& field(const char* key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return raw(key, buf);
  }
  JsonObject& field(const char* key, std::uint64_t v) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(v));
    return raw(key, buf);
  }
  JsonObject& field(const char* key, int v) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%d", v);
    return raw(key, buf);
  }
  JsonObject& field(const char* key, const std::string& v) {
    std::string quoted = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    quoted += '"';
    return raw(key, quoted);
  }

  std::string str() const { return "{" + body_ + "}"; }

 private:
  JsonObject& raw(const char* key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"";
    body_ += key;
    body_ += "\": ";
    body_ += value;
    return *this;
  }
  std::string body_;
};

/// Renders the sweep points as a JSON array — the part of a BENCH report
/// that must be identical between serial and parallel runs.
inline std::string points_json(const std::vector<std::string>& points) {
  std::string out = "[";
  for (std::size_t i = 0; i < points.size(); ++i) {
    out += i == 0 ? "\n  " : ",\n  ";
    out += points[i];
  }
  out += "\n]";
  return out;
}

}  // namespace bsub::bench
