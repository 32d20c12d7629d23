// Shared plumbing for the city-scale streaming sweep: the one-point runner
// and its fork-isolated form for per-point peak RSS measurement. Used by
// bsub_paper's scale_sweep experiment (the gated sweep) and the bsub_scale
// CLI (one point, interactive).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/bsub_protocol.h"
#include "experiment_common.h"
#include "fork_util.h"
#include "resource_stats.h"
#include "sim/simulator.h"
#include "trace/city.h"
#include "workload/workload.h"

namespace bsub::bench {

/// One sweep point: a city of `nodes` replayed over ~`contacts` contact
/// events (the commuter budget; flash crowds add a few percent on top).
struct ScalePoint {
  std::size_t nodes = 0;
  std::uint64_t contacts = 0;
  /// Messages in the workload. Constant by default so the contact axis of
  /// the sweep is the only thing that grows; 0 gives a pure contact-plane
  /// run (useful to attribute RSS between the stream and protocol state).
  std::size_t messages = 200;
};

/// Plain-old-data result so a forked child can ship it through a pipe.
struct ScaleResult {
  std::uint64_t events = 0;        ///< contacts + message creations replayed
  double seconds = 0.0;
  double events_per_sec = 0.0;
  std::uint64_t peak_rss_bytes = 0;
  /// Peak RSS divided by the point's node count: the per-node memory floor
  /// this run demonstrated (includes the process baseline, so it is an
  /// upper bound on true protocol state per node — tightest at large node
  /// counts where the baseline amortizes away).
  double bytes_per_node = 0.0;
  std::uint64_t deliveries = 0;
  double delivery_ratio = 0.0;
  std::uint64_t forwardings = 0;
  std::size_t threads_used = 0;
  /// Lazy-state observability: how many nodes ever materialized relay
  /// state (≈ ever-broker count) and what the election's pooled windows
  /// reserved — the two main activity-driven memory terms.
  std::uint64_t materialized_relays = 0;
  std::uint64_t election_state_bytes = 0;
};

/// Default protocol for scale runs. Fixed DF: Eq. 5's tuning needs trace
/// centrality, which a streamed scenario deliberately never computes; the
/// sweep measures the contact plane, not DF calibration, so any sane
/// constant serves every point.
inline constexpr const char* kScaleDefaultProtocol = "B-SUB:df=0.5";

/// Runs one sweep point end to end: streamed city scenario through the
/// protocol named by `protocol_spec` on the simulator substrate. The stream
/// is the only contact source — nothing is materialized at any node/contact
/// count.
inline ScaleResult run_scale_point(
    const ScalePoint& point, std::uint64_t seed = kExperimentSeed,
    std::size_t threads = 1,
    const std::string& protocol_spec = kScaleDefaultProtocol) {
  const trace::CityTraceConfig city =
      trace::city_config(point.nodes, point.contacts, seed);
  const util::Time duration =
      static_cast<util::Time>(city.days) * util::kDay;
  auto stream = trace::make_city_stream(city);

  const workload::KeySet keys = workload::twitter_trend_keys();
  const workload::Workload w = make_scale_workload(
      keys, point.nodes, point.messages, duration, seed, kScaleSalt);

  const std::unique_ptr<sim::Protocol> proto =
      protocol_registry().make(protocol_spec);

  sim::SimulatorConfig sim_cfg;
  sim_cfg.threads = threads;
  sim::Simulator simulator(sim_cfg);

  WallTimer timer;
  const metrics::RunResults results = simulator.run(*stream, w, *proto);
  ScaleResult out;
  out.seconds = timer.seconds();
  out.events = simulator.last_run_stats().events;
  out.events_per_sec = out.seconds > 0.0
                           ? static_cast<double>(out.events) / out.seconds
                           : 0.0;
  out.peak_rss_bytes = peak_rss_bytes();
  out.bytes_per_node =
      point.nodes > 0 ? static_cast<double>(out.peak_rss_bytes) /
                            static_cast<double>(point.nodes)
                      : 0.0;
  out.deliveries = results.interested_deliveries;
  out.delivery_ratio = results.delivery_ratio;
  out.forwardings = results.forwardings;
  out.threads_used = simulator.last_run_stats().threads_used;
  // B-SUB-only observability; baselines report zero (no relay/election
  // state exists to measure).
  if (const auto* bsub = dynamic_cast<const core::BsubProtocol*>(proto.get())) {
    out.materialized_relays = bsub->interests().materialized_relays();
    out.election_state_bytes = bsub->election().state_bytes_reserved();
  }
  return out;
}

/// Runs `point` in a forked child (see fork_util.h for why) and reads the
/// result back over a pipe. Returns false if the child failed (the parent
/// sweep then fails too).
inline bool run_scale_point_isolated(
    const ScalePoint& point, std::uint64_t seed, std::size_t threads,
    ScaleResult& out, const std::string& protocol_spec = kScaleDefaultProtocol) {
  return run_isolated(
      [&] { return run_scale_point(point, seed, threads, protocol_spec); },
      out);
}

}  // namespace bsub::bench
