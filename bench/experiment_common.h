// Shared plumbing for the bench binaries: scenario construction, protocol
// runners and BENCH_*.json result emission. bsub_paper regenerates the
// paper's tables and figures with it (see DESIGN.md's experiment index);
// bench_matrix, bench_fleet and bench_scale_sweep share it.
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
};

/// The full protocol table, shared by every experiment/scale/matrix entry
/// point. Benches name protocols by spec string, never by constructor.
inline const sim::ProtocolRegistry& protocol_registry() {
  static const sim::ProtocolRegistry registry = core::make_protocol_registry();
  return registry;
}

/// Runs one protocol named by spec over a materialized scenario. B-SUB's
/// extra observability (measured relay FPR, broker share) is filled when
/// the spec resolves to B-SUB; baselines report zeros.
inline ProtocolRun run_spec(const Scenario& s, const workload::Workload& w,
                            const std::string& spec) {
  const std::unique_ptr<sim::Protocol> proto = protocol_registry().make(spec);
  ProtocolRun out;
  out.results = sim::Simulator().run(s.trace, w, *proto);
  if (const auto* bsub =
          dynamic_cast<const core::BsubProtocol*>(proto.get())) {
    out.relay_fpr = bsub->measured_relay_fpr();
    out.broker_fraction = bsub->election().broker_fraction();
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

/// Wall-clock timer for per-binary BENCH reports.
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

// --- BENCH_*.json emission --------------------------------------------------

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

/// Writes BENCH_<name>.json into the working directory: per-binary wall
/// time plus the sweep-point results, for the perf trajectory.
inline void write_bench_json(const std::string& name, double wall_seconds,
                             const std::vector<std::string>& points) {
  const std::string path = "BENCH_" + name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f,
               "{\"bench\": \"%s\", \"threads\": %zu, \"wall_seconds\": "
               "%.3f, \"points\": %s}\n",
               name.c_str(), util::default_thread_count(), wall_seconds,
               points_json(points).c_str());
  std::fclose(f);
  std::printf("\n[%s] %.2fs wall on %zu thread(s) -> %s\n", name.c_str(),
              wall_seconds, util::default_thread_count(), path.c_str());
}

}  // namespace bsub::bench
