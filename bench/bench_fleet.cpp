// Fleet runtime benchmark: thousands of live B-SUB nodes per reactor
// thread, each point in its own process so peak RSS is per-point.
//
// The claim under test is correct scale-out: the deterministic loopback
// engine at fleet scale is bit-identical to engine::TraceRunner (the engine
// harness) — the same protocol ran, just on live sessions over real
// reactors — and the real-UDP engine completes every contact.
//
// Full points: a 10k-node loopback differential, a 10k-node real-UDP point
// over the shard sockets, and a dense 10k-node real-UDP point for
// throughput + delivery-latency percentiles.
// `--smoke` runs the CI subset: a 256-node loopback differential and a
// 64-node real-UDP run, same gates.
//
// Gates (exit 1 on violation):
//   1. every loopback point is bit-identical to the engine harness;
//   2. throughput floor: every UDP point >= 500 contacts/s (a coarse
//      pathology catch, 40x under the slowest rate BENCH_fleet.json
//      records);
//   3. every issued contact completes, with <= 1% hard timeouts.
//
// Each point also reports two per-layer counts of the live contact path:
// heap allocations per contact over the run (bench/resource_stats.h
// counting hooks, all threads) and the share of hello, genuine and relay
// frames served from the nodes' frame caches.
#define BSUB_RESOURCE_STATS_COUNT_ALLOCS
#include "resource_stats.h"

#include "fleet_common.h"

#include <cstring>
#include <string>
#include <vector>

#include "experiment_common.h"
#include "fork_util.h"

namespace {

using namespace bsub;
using namespace bsub::bench;

constexpr double kThroughputFloor = 500.0;  // contacts/s
constexpr double kTimeoutCeiling = 0.01;    // of issued contacts

struct PointSpec {
  const char* label;
  FleetPoint point;
  bool udp = false;
  std::uint16_t base_port = 0;
  bool differential = false;  ///< loopback only
};

/// Flat POD subset of FleetRunResults (whose exec stats hold a vector and
/// cannot cross the fork pipe as raw bytes) plus per-point RSS.
struct PointResult {
  engine::TraceRunResults protocol{};
  metrics::TransportStats transport{};
  std::size_t reactor_threads = 0;
  double wall_seconds = 0.0;
  double contacts_per_second = 0.0;
  double deliveries_per_second = 0.0;
  double p50_delivery_latency_ms = 0.0;
  double p99_delivery_latency_ms = 0.0;
  std::uint64_t contacts_timed_out = 0;
  std::uint64_t send_syscalls = 0;
  std::uint64_t recv_syscalls = 0;
  std::uint64_t datagrams_out = 0;
  std::uint64_t sendq_drops = 0;
  std::uint64_t unroutable_drops = 0;
  std::uint64_t peak_rss_bytes = 0;
  double allocs_per_contact = 0.0;
  double frame_cache_hit_frac = 0.0;
  bool differential_ok = true;

  void take(const net::FleetRunResults& r) {
    protocol = r.protocol;
    transport = r.transport;
    reactor_threads = r.reactor_threads;
    wall_seconds = r.wall_seconds;
    contacts_per_second = r.contacts_per_second;
    deliveries_per_second = r.deliveries_per_second;
    p50_delivery_latency_ms = r.p50_delivery_latency_ms;
    p99_delivery_latency_ms = r.p99_delivery_latency_ms;
    contacts_timed_out = r.contacts_timed_out;
    send_syscalls = r.send_syscalls;
    recv_syscalls = r.recv_syscalls;
    datagrams_out = r.datagrams_out;
    sendq_drops = r.sendq_drops;
    unroutable_drops = r.unroutable_drops;
  }
};

std::vector<PointSpec> full_points() {
  constexpr FleetPoint kSparse{10000, 8000, 100};
  constexpr FleetPoint kDense{10000, 80000, 500};
  return {
      {"loopback-10k", kDense, false, 0, /*differential=*/true},
      {"udp-10k", kSparse, true, 47600},
      {"udp-10k-dense", kDense, true, 47700},
  };
}

std::vector<PointSpec> smoke_points() {
  return {
      {"loopback-256", {256, 2048, 64}, false, 0, /*differential=*/true},
      {"udp-64", {64, 1000, 50}, true, 47800},
  };
}

PointResult run_point(const PointSpec& spec) {
  const FleetScenario scenario(spec.point, kExperimentSeed);
  net::FleetConfig cfg = make_fleet_config(scenario, "");
  if (spec.udp) {
    cfg.shards = 2;
    cfg.udp.base_port = spec.base_port;
  } else {
    cfg.threads = 2;
  }
  PointResult out;
  net::FleetRuntime fleet(cfg);
  const std::uint64_t allocs_before = allocs_now();
  out.take(spec.udp ? fleet.run_udp(scenario.trace, scenario.workload)
                    : fleet.run_loopback(scenario.trace, scenario.workload));
  out.allocs_per_contact =
      static_cast<double>(allocs_now() - allocs_before) /
      static_cast<double>(std::max<std::uint64_t>(
          1, out.protocol.contacts_processed));
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  for (std::size_t n = 0; n < spec.point.nodes; ++n) {
    hits += fleet.node(n).frame_cache_hits();
    misses += fleet.node(n).frame_cache_misses();
  }
  out.frame_cache_hit_frac =
      static_cast<double>(hits) /
      static_cast<double>(std::max<std::uint64_t>(1, hits + misses));
  if (spec.differential) {
    out.differential_ok = fleet_matches_engine(scenario, cfg, out.protocol);
  }
  out.peak_rss_bytes = peak_rss_bytes();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  print_header(smoke ? "Fleet runtime (CI smoke subset)" : "Fleet runtime");
  WallTimer wall;

  const std::vector<PointSpec> points = smoke ? smoke_points() : full_points();

  std::printf("%-22s | %7s | %8s | %8s | %12s | %9s | %8s | %8s | %8s | "
              "%9s\n",
              "point", "nodes", "contacts", "seconds", "contacts/sec",
              "delivered", "p99 ms", "RSS MiB", "allocs/c", "cache hit");

  std::vector<PointResult> results(points.size());
  std::vector<bool> ran(points.size(), false);
  std::vector<std::string> json_points;
  bool all_ok = true;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const PointSpec& spec = points[i];
    if (!run_isolated([&] { return run_point(spec); }, results[i])) {
      std::fprintf(stderr, "point %s FAILED to run\n", spec.label);
      all_ok = false;
      continue;
    }
    ran[i] = true;
    const PointResult& p = results[i];
    std::printf("%-22s | %7zu | %8zu | %8.2f | %12.0f | %9llu | %8.1f | "
                "%8.1f | %8.1f | %9.3f\n",
                spec.label, spec.point.nodes, spec.point.contacts,
                p.wall_seconds, p.contacts_per_second,
                static_cast<unsigned long long>(p.protocol.deliveries),
                p.p99_delivery_latency_ms,
                static_cast<double>(p.peak_rss_bytes) / (1 << 20),
                p.allocs_per_contact, p.frame_cache_hit_frac);
    json_points.push_back(
        JsonObject()
            .field("label", std::string(spec.label))
            .field("mode", std::string(spec.udp ? "udp" : "loopback"))
            .field("nodes", static_cast<std::uint64_t>(spec.point.nodes))
            .field("contacts", static_cast<std::uint64_t>(spec.point.contacts))
            .field("messages", static_cast<std::uint64_t>(spec.point.messages))
            .field("reactor_threads",
                   static_cast<std::uint64_t>(p.reactor_threads))
            .field("seconds", p.wall_seconds)
            .field("contacts_per_sec", p.contacts_per_second)
            .field("deliveries_per_sec", p.deliveries_per_second)
            .field("deliveries", p.protocol.deliveries)
            .field("expected_deliveries", p.protocol.expected_deliveries)
            .field("p50_delivery_latency_ms", p.p50_delivery_latency_ms)
            .field("p99_delivery_latency_ms", p.p99_delivery_latency_ms)
            .field("contacts_timed_out", p.contacts_timed_out)
            .field("send_syscalls", p.send_syscalls)
            .field("recv_syscalls", p.recv_syscalls)
            .field("datagrams_out", p.datagrams_out)
            .field("sendq_drops", p.sendq_drops)
            .field("unroutable_drops", p.unroutable_drops)
            .field("peak_rss_bytes", p.peak_rss_bytes)
            .field("allocs_per_contact", p.allocs_per_contact)
            .field("frame_cache_hit_frac", p.frame_cache_hit_frac)
            .field("differential",
                   std::string(!spec.differential     ? "n/a"
                               : p.differential_ok    ? "pass"
                                                      : "FAIL"))
            .str());
  }

  // Gate 1: every loopback point is bit-identical to the engine harness.
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!ran[i] || !points[i].differential) continue;
    std::printf("differential @ %s: %s\n", points[i].label,
                results[i].differential_ok ? "bit-identical" : "MISMATCH");
    if (!results[i].differential_ok) all_ok = false;
  }

  // Gates 2 + 3: throughput floor; every contact completes, few time out.
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!ran[i] || !points[i].udp) continue;
    const PointSpec& spec = points[i];
    const PointResult& p = results[i];
    if (p.contacts_per_second < kThroughputFloor) {
      std::fprintf(stderr,
                   "throughput floor violation @ %s: %.0f contacts/s "
                   "(floor %.0f)\n",
                   spec.label, p.contacts_per_second, kThroughputFloor);
      all_ok = false;
    }
    if (p.protocol.contacts_processed != spec.point.contacts) {
      std::fprintf(stderr, "lost contacts @ %s: %llu of %zu completed\n",
                   spec.label,
                   static_cast<unsigned long long>(
                       p.protocol.contacts_processed),
                   spec.point.contacts);
      all_ok = false;
    }
    if (static_cast<double>(p.contacts_timed_out) >
        kTimeoutCeiling * static_cast<double>(spec.point.contacts)) {
      std::fprintf(stderr, "timeout ceiling violation @ %s: %llu timed out\n",
                   spec.label,
                   static_cast<unsigned long long>(p.contacts_timed_out));
      all_ok = false;
    }
  }

  write_bench_json(smoke ? "fleet_smoke" : "fleet", wall.seconds(),
                   json_points);
  std::printf("fleet bench: %s\n", all_ok ? "all gates passed" : "FAILED");
  return all_ok ? 0 : 1;
}
