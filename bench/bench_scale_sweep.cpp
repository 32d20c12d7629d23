// City-scale streaming sweep: nodes x contacts, each point in its own
// process so its peak RSS is meaningful.
//
// The claim under test is the streaming contact plane plus the lazy/pooled
// node state: peak memory is O(idle floor + materialized participant state
// + one scheduling window). Contacts are free to *activate* state (a node
// that meets enough peers becomes a broker and materializes its ~2 KiB
// relay filter — that is protocol behavior, not overhead) but must not leak
// per-event memory. Every point streams a trace::make_city_stream scenario
// through B-SUB on the simulator substrate — no point ever materializes its
// trace, including the 10^6-node, 10^7-contact corner.
//
// Gates (exit 1 on violation):
//   1. RSS flatness, activity-adjusted: for each node count with two
//      contact volumes, the high-contact point's peak RSS must stay within
//      noise of the low-contact point's after crediting the extra
//      ever-brokers it legitimately materialized (ratio <= 1.25 + 32 MiB
//      absolute slack + kPerBrokerBytes per extra materialized relay). A
//      contact-proportional leak still trips this: the credit scales with
//      relays (capped at one per node), not with events.
//   2. Throughput floor: every setup-amortized point (events >= nodes) must
//      sustain >= 25k events/sec — a coarse pathology catch (accidental
//      O(n^2), lost batching), set 2-4x under observed single-core rates so
//      slower CI runners don't trip it on noise.
//   3. Bytes/node ceiling: every point's peak RSS per node must fit the
//      lazy-state budget kPerNodeFloor + kBaseRss/nodes +
//      relays*kPerBrokerBytes/nodes. The retired eager layout (one relay
//      filter + window maps per node, ~6.4 KB/node at 10^6 nodes) violated
//      this by 4x and more at every large point; the measured lazy layout
//      clears it with >= 10% margin (459 B/node at the 10^6 x 10^5 point).
//
// `--smoke` runs the CI subset (10^4 nodes at 10^5 and 10^6 contacts) with
// the same gates; the full sweep climbs to 10^6 nodes and 10^7 contacts.
#include "scale_common.h"

#include <algorithm>
#include <cstring>
#include <vector>

namespace {

using namespace bsub;
using namespace bsub::bench;

constexpr double kRssRatioCeiling = 1.25;
constexpr std::uint64_t kRssAbsoluteSlack = 32ull << 20;  // 32 MiB
constexpr double kThroughputFloorEps = 25000.0;           // events/sec
// Bytes/node budget terms (gate 3). kPerNodeFloor covers the always-paid
// slots/handles/indices; kBaseRss the process baseline (binary, stream
// window, workload); kPerBrokerBytes one materialized participant's state
// (2 KB relay TCBF + shadow + election ring/table + message bookkeeping).
constexpr double kPerNodeFloorBytes = 640.0;
constexpr double kBaseRssBytes = 16.0 * (1 << 20);  // 16 MiB
constexpr double kPerBrokerBytes = 5120.0;

struct NamedPoint {
  ScalePoint point;
  /// Points sharing a pair_id differ only in contact count; each pair is an
  /// RSS-flatness gate.
  int pair_id = -1;
};

std::vector<NamedPoint> smoke_points() {
  return {
      {{10000, 100000}, 0},
      {{10000, 1000000}, 0},
  };
}

std::vector<NamedPoint> full_points() {
  return {
      {{1000, 100000}, -1},
      {{10000, 100000}, 0},
      {{10000, 1000000}, 0},
      {{100000, 1000000}, 1},
      {{100000, 10000000}, 1},
      {{1000000, 100000}, 2},
      {{1000000, 10000000}, 2},
  };
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  print_header(smoke ? "City-scale streaming sweep (CI smoke subset)"
                     : "City-scale streaming sweep");
  WallTimer wall;

  const std::vector<NamedPoint> points = smoke ? smoke_points() : full_points();

  std::printf("%10s | %12s | %8s | %12s | %12s | %10s | %12s | %9s\n", "nodes",
              "contacts", "seconds", "events/sec", "peak RSS MiB",
              "bytes/node", "ever-brokers", "delivered");

  std::vector<ScaleResult> results;
  std::vector<std::string> json_points;
  bool all_ok = true;
  for (const NamedPoint& np : points) {
    ScaleResult r;
    if (!run_scale_point_isolated(np.point, kExperimentSeed, /*threads=*/1,
                                  r)) {
      std::fprintf(stderr, "point %zu nodes x %llu contacts FAILED to run\n",
                   np.point.nodes,
                   static_cast<unsigned long long>(np.point.contacts));
      all_ok = false;
      results.push_back(ScaleResult{});
      continue;
    }
    results.push_back(r);
    std::printf("%10zu | %12llu | %8.2f | %12.0f | %12.1f | %10.0f | %12llu "
                "| %9llu\n",
                np.point.nodes,
                static_cast<unsigned long long>(np.point.contacts), r.seconds,
                r.events_per_sec,
                static_cast<double>(r.peak_rss_bytes) / (1 << 20),
                r.bytes_per_node,
                static_cast<unsigned long long>(r.materialized_relays),
                static_cast<unsigned long long>(r.deliveries));
    json_points.push_back(
        JsonObject()
            .field("nodes", static_cast<std::uint64_t>(np.point.nodes))
            .field("contacts", np.point.contacts)
            .field("events", r.events)
            .field("seconds", r.seconds)
            .field("events_per_sec", r.events_per_sec)
            .field("peak_rss_bytes", r.peak_rss_bytes)
            .field("bytes_per_node", r.bytes_per_node)
            .field("materialized_relays", r.materialized_relays)
            .field("election_state_bytes", r.election_state_bytes)
            .field("deliveries", r.deliveries)
            .field("delivery_ratio", r.delivery_ratio)
            .field("forwardings", r.forwardings)
            .str());
  }

  // Gate 1: peak RSS must not grow with the contact count at a fixed node
  // count, beyond the state the extra contacts legitimately materialized
  // (more meetings -> more ever-brokers -> more relay filters; bounded by
  // one per node, so a per-event leak cannot hide in the credit).
  for (int pair = 0;; ++pair) {
    const ScaleResult* lo = nullptr;
    const ScaleResult* hi = nullptr;
    std::size_t nodes = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (points[i].pair_id != pair) continue;
      nodes = points[i].point.nodes;
      (lo == nullptr ? lo : hi) = &results[i];
    }
    if (lo == nullptr) break;
    if (hi == nullptr || lo->events == 0 || hi->events == 0) continue;
    const std::uint64_t extra_relays =
        hi->materialized_relays > lo->materialized_relays
            ? hi->materialized_relays - lo->materialized_relays
            : 0;
    const std::uint64_t ceiling =
        static_cast<std::uint64_t>(static_cast<double>(lo->peak_rss_bytes) *
                                   kRssRatioCeiling) +
        kRssAbsoluteSlack +
        static_cast<std::uint64_t>(static_cast<double>(extra_relays) *
                                   kPerBrokerBytes);
    const bool flat = hi->peak_rss_bytes <= ceiling;
    std::printf(
        "RSS flatness @ %zu nodes: %.1f MiB (%llu contacts) -> %.1f MiB "
        "(%llu contacts), +%llu relays, ceiling %.1f MiB: %s\n",
        nodes, static_cast<double>(lo->peak_rss_bytes) / (1 << 20),
        static_cast<unsigned long long>(lo->events),
        static_cast<double>(hi->peak_rss_bytes) / (1 << 20),
        static_cast<unsigned long long>(hi->events),
        static_cast<unsigned long long>(extra_relays),
        static_cast<double>(ceiling) / (1 << 20), flat ? "OK" : "VIOLATION");
    if (!flat) all_ok = false;
  }

  // Gate 2: throughput floor. Judged only where events >= nodes: wall time
  // includes protocol setup, which is O(nodes) (per-node slots/indices), so
  // a sparse point at a huge node count measures setup, not the per-event
  // contact plane. Such points exist in the sweep purely as RSS baselines.
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results[i].events == 0) continue;
    if (results[i].events < points[i].point.nodes) {
      std::printf("throughput @ %zu nodes x %llu contacts: %.0f events/sec "
                  "(setup-dominated, floor not judged)\n",
                  points[i].point.nodes,
                  static_cast<unsigned long long>(points[i].point.contacts),
                  results[i].events_per_sec);
      continue;
    }
    if (results[i].events_per_sec < kThroughputFloorEps) {
      std::fprintf(stderr,
                   "throughput floor violation: %zu nodes x %llu contacts "
                   "ran at %.0f events/sec (floor %.0f)\n",
                   points[i].point.nodes,
                   static_cast<unsigned long long>(points[i].point.contacts),
                   results[i].events_per_sec, kThroughputFloorEps);
      all_ok = false;
    }
  }

  // Gate 3: per-node memory floor. Each point's RSS per node must fit the
  // lazy-state budget: the always-paid floor, the amortized process
  // baseline, and the participant state its materialized relays justify.
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ScaleResult& r = results[i];
    if (r.events == 0) continue;
    const double nodes = static_cast<double>(points[i].point.nodes);
    const double budget =
        kPerNodeFloorBytes + kBaseRssBytes / nodes +
        static_cast<double>(r.materialized_relays) * kPerBrokerBytes / nodes;
    const bool ok = r.bytes_per_node <= budget;
    std::printf("bytes/node @ %zu nodes x %llu contacts: %.0f (budget %.0f, "
                "%llu relays): %s\n",
                points[i].point.nodes,
                static_cast<unsigned long long>(points[i].point.contacts),
                r.bytes_per_node, budget,
                static_cast<unsigned long long>(r.materialized_relays),
                ok ? "OK" : "VIOLATION");
    if (!ok) all_ok = false;
  }

  write_bench_json(smoke ? "scale_sweep_smoke" : "scale_sweep", wall.seconds(),
                   json_points);
  std::printf("scale sweep: %s\n", all_ok ? "all gates passed" : "FAILED");
  return all_ok ? 0 : 1;
}
