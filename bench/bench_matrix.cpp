// Scenario x protocol x threads matrix: every registered protocol replayed
// over every scenario class (two materialized paper traces plus a streamed
// city), serial and 4-threaded (the city also at 2 and 8 threads, the
// single-run scaling points), each point fork-isolated so its peak RSS is
// its own. This is the harness that locks in the baseline-accounting
// fixes: the gates below re-assert the cross-cutting invariants on every
// cell of the matrix, so a protocol that starts double-charging bytes (the
// old SPRAY re-spray bug), charging control bytes it never sends, or
// diverging between thread counts fails CI, not a reader of
// BENCH_matrix.json.
//
// Gates (exit 1 on violation):
//   1. Deliveries never exceed the workload's expected deliveries.
//   2. Serial == parallel: per (scenario, protocol), all semantic fields
//      identical at every thread count (the dependency-count executor
//      keeps each node's events in stream order).
//   3. Flooding dominates: PUSH's delivery ratio is an upper bound for
//      PULL and SPRAY on every scenario (they move strict subsets of the
//      bodies PUSH moves at unconstrained bandwidth).
//   4. SPRAY cost is monotone in its copy budget (haggle sub-sweep): a
//      bigger budget may never move fewer bytes — the delivered-guard fix
//      keeps re-sprays out without deflating legitimate spraying.
//   5. Control-plane class: PULL and B-SUB pay control bytes; PUSH and
//      SPRAY must report exactly zero.
//   6. Scaling (full matrix, hosts with >= 8 hardware threads only): the
//      city B-SUB replay at 8 threads is at least 3x faster than serial.
//      Smaller hosts run the points but cannot judge scaling.
//
// `--smoke` runs the CI slice: haggle x {B-SUB, PUSH, PULL,
// SPRAY:copies=3} x {1, 4} threads with gates 1, 2, 3 and 5.
#include "scale_common.h"

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "trace/city.h"

namespace {

using namespace bsub;
using namespace bsub::bench;

enum class Scene { kHaggle, kReality, kCity };

const char* scene_name(Scene s) {
  switch (s) {
    case Scene::kHaggle: return "haggle";
    case Scene::kReality: return "reality";
    case Scene::kCity: return "city-stream";
  }
  return "?";
}

/// Placeholder token expanded per scenario in the child: the materialized
/// traces tune DF from Eq. 5 (which needs trace centrality), the streamed
/// city uses the fixed scale default.
constexpr const char* kTunedBsub = "B-SUB@tuned";

constexpr util::Time kMaterializedTtl = 10 * util::kHour;
constexpr std::size_t kCityNodes = 5000;
constexpr std::uint64_t kCityContacts = 100000;
constexpr std::size_t kCityMessages = 200;

/// Plain-old-data result so the forked child can ship it through a pipe.
struct MatrixResult {
  char protocol[96] = {};  ///< the expanded spec actually run
  std::uint64_t interested_deliveries = 0;
  std::uint64_t false_deliveries = 0;
  std::uint64_t expected_deliveries = 0;
  std::uint64_t forwardings = 0;
  std::uint64_t message_bytes = 0;
  std::uint64_t control_bytes = 0;
  double delivery_ratio = 0.0;
  double mean_delay_minutes = 0.0;
  std::uint64_t events = 0;
  double seconds = 0.0;
  double events_per_sec = 0.0;
  std::uint64_t peak_rss_bytes = 0;
  std::uint64_t threads_used = 0;
  // Execution shape (sim::ParallelRunStats); 0 for serial points.
  std::uint64_t windows = 0;
  std::uint64_t batches = 0;
  std::uint64_t max_batch = 0;
};

struct MatrixPoint {
  Scene scene;
  std::string protocol;  ///< spec string or kTunedBsub
  std::size_t threads;
};

/// Everything below runs in the forked child: the scenario is rebuilt from
/// its deterministic config, so the parent stays small and every point is
/// independent.
MatrixResult run_point(const MatrixPoint& p) {
  sim::SimulatorConfig sim_cfg;
  sim_cfg.threads = p.threads;
  sim::Simulator simulator(sim_cfg);

  MatrixResult out;
  metrics::RunResults results;
  WallTimer timer;
  if (p.scene == Scene::kCity) {
    const trace::CityTraceConfig city =
        trace::city_config(kCityNodes, kCityContacts, kExperimentSeed);
    const util::Time duration =
        static_cast<util::Time>(city.days) * util::kDay;
    auto stream = trace::make_city_stream(city);
    const workload::KeySet keys = workload::twitter_trend_keys();
    const workload::Workload w = make_scale_workload(
        keys, kCityNodes, kCityMessages, duration, kExperimentSeed);
    const std::string spec =
        p.protocol == kTunedBsub ? kScaleDefaultProtocol : p.protocol;
    results = simulator.run(*stream, w, protocol_registry(), spec);
    std::snprintf(out.protocol, sizeof out.protocol, "%s", spec.c_str());
  } else {
    const Scenario s = p.scene == Scene::kHaggle ? haggle_scenario()
                                                 : reality_scenario();
    const workload::Workload w = s.make_workload(kMaterializedTtl);
    const std::string spec =
        p.protocol == kTunedBsub
            ? core::bsub_spec(bsub_config_for(s, kMaterializedTtl))
            : p.protocol;
    results = simulator.run(s.trace, w, protocol_registry(), spec);
    std::snprintf(out.protocol, sizeof out.protocol, "%s", spec.c_str());
  }
  out.seconds = timer.seconds();
  out.interested_deliveries = results.interested_deliveries;
  out.false_deliveries = results.false_deliveries;
  out.expected_deliveries = results.expected_deliveries;
  out.forwardings = results.forwardings;
  out.message_bytes = results.message_bytes;
  out.control_bytes = results.control_bytes;
  out.delivery_ratio = results.delivery_ratio;
  out.mean_delay_minutes = results.mean_delay_minutes;
  out.events = simulator.last_run_stats().events;
  out.events_per_sec =
      out.seconds > 0.0 ? static_cast<double>(out.events) / out.seconds : 0.0;
  out.peak_rss_bytes = peak_rss_bytes();
  const sim::ParallelRunStats& stats = simulator.last_run_stats();
  out.threads_used = stats.threads_used;
  out.windows = stats.windows;
  out.batches = stats.batches;
  out.max_batch = stats.max_batch;
  return out;
}

/// The fields two runs of the same (scenario, protocol) must agree on
/// regardless of thread count. Delays are computed from deterministic
/// integer timestamps, so even the doubles compare exactly.
bool semantically_identical(const MatrixResult& a, const MatrixResult& b) {
  return a.interested_deliveries == b.interested_deliveries &&
         a.false_deliveries == b.false_deliveries &&
         a.expected_deliveries == b.expected_deliveries &&
         a.forwardings == b.forwardings &&
         a.message_bytes == b.message_bytes &&
         a.control_bytes == b.control_bytes &&
         a.delivery_ratio == b.delivery_ratio &&
         a.mean_delay_minutes == b.mean_delay_minutes;
}

bool is_protocol(const MatrixResult& r, const char* prefix) {
  return std::strncmp(r.protocol, prefix, std::strlen(prefix)) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  const std::vector<Scene> scenes =
      smoke ? std::vector<Scene>{Scene::kHaggle}
            : std::vector<Scene>{Scene::kHaggle, Scene::kReality,
                                 Scene::kCity};
  const std::vector<std::string> protocols = {kTunedBsub, "PUSH", "PULL",
                                              "SPRAY:copies=3"};
  // The streamed city is the one scenario wide enough to scale, so it
  // carries the 2- and 8-thread points too.
  const auto thread_counts = [](Scene scene) {
    return scene == Scene::kCity ? std::vector<std::size_t>{1, 2, 4, 8}
                                 : std::vector<std::size_t>{1, 4};
  };

  std::vector<MatrixPoint> points;
  for (Scene scene : scenes) {
    for (const std::string& protocol : protocols) {
      for (std::size_t threads : thread_counts(scene)) {
        points.push_back({scene, protocol, threads});
      }
    }
  }
  // SPRAY budget sub-sweep for the monotone-bytes gate; copies=3 is already
  // in the main grid at (haggle, 1 thread).
  std::size_t first_extra = points.size();
  if (!smoke) {
    for (std::uint32_t copies : {1u, 8u}) {
      points.push_back(
          {Scene::kHaggle, "SPRAY:copies=" + std::to_string(copies), 1});
    }
  }

  print_header(smoke ? "Scenario x protocol matrix (CI smoke slice)"
                     : "Scenario x protocol x threads matrix");
  std::printf("%zu points: %zu scenario(s) x %zu protocol(s) x {1,4} "
              "threads%s\n\n",
              points.size(), scenes.size(), protocols.size(),
              smoke ? "" : " (city: {1,2,4,8})");
  WallTimer wall;

  std::printf("%-11s | %-26s | %2s | %8s | %9s | %11s | %11s | %8s\n",
              "scenario", "protocol", "T", "delivery", "forwards",
              "msg bytes", "ctl bytes", "RSS MiB");

  std::vector<MatrixResult> results(points.size());
  bool all_ok = true;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const MatrixPoint& p = points[i];
    if (!run_isolated([&] { return run_point(p); }, results[i])) {
      std::fprintf(stderr, "point %s x %s x %zu FAILED to run\n",
                   scene_name(p.scene), p.protocol.c_str(), p.threads);
      all_ok = false;
      continue;
    }
    const MatrixResult& r = results[i];
    std::printf(
        "%-11s | %-26s | %2llu | %8.3f | %9llu | %11llu | %11llu | %8.1f\n",
        scene_name(p.scene), r.protocol,
        static_cast<unsigned long long>(r.threads_used), r.delivery_ratio,
        static_cast<unsigned long long>(r.forwardings),
        static_cast<unsigned long long>(r.message_bytes),
        static_cast<unsigned long long>(r.control_bytes),
        static_cast<double>(r.peak_rss_bytes) / (1 << 20));
  }

  // Gate 1: deliveries bounded by the workload's expectation, every point.
  for (std::size_t i = 0; i < points.size(); ++i) {
    const MatrixResult& r = results[i];
    if (r.events == 0) continue;
    if (r.interested_deliveries > r.expected_deliveries) {
      std::fprintf(stderr,
                   "gate 1 violation: %s/%s delivered %llu > expected %llu\n",
                   scene_name(points[i].scene), r.protocol,
                   static_cast<unsigned long long>(r.interested_deliveries),
                   static_cast<unsigned long long>(r.expected_deliveries));
      all_ok = false;
    }
  }

  // Gate 2: serial == parallel per (scenario, protocol).
  for (std::size_t i = 0; i < first_extra; ++i) {
    for (std::size_t j = i + 1; j < first_extra; ++j) {
      if (points[i].scene != points[j].scene ||
          points[i].protocol != points[j].protocol ||
          points[i].threads == points[j].threads) {
        continue;
      }
      if (results[i].events == 0 || results[j].events == 0) continue;
      if (!semantically_identical(results[i], results[j])) {
        std::fprintf(stderr,
                     "gate 2 violation: %s/%s diverges between %zu-thread "
                     "and %zu-thread\n",
                     scene_name(points[i].scene), results[i].protocol,
                     points[i].threads, points[j].threads);
        all_ok = false;
      }
    }
  }
  std::printf("\ndeterminism: serial==parallel cross-checked on every "
              "cell\n");

  // Gates 3 and 5 on the serial column of each scenario.
  for (Scene scene : scenes) {
    const MatrixResult* push = nullptr;
    for (std::size_t i = 0; i < first_extra; ++i) {
      if (points[i].scene != scene || points[i].threads != 1 ||
          results[i].events == 0) {
        continue;
      }
      if (is_protocol(results[i], "PUSH")) push = &results[i];
    }
    for (std::size_t i = 0; i < first_extra; ++i) {
      if (points[i].scene != scene || points[i].threads != 1 ||
          results[i].events == 0) {
        continue;
      }
      const MatrixResult& r = results[i];
      const bool has_control_plane =
          is_protocol(r, "B-SUB") || is_protocol(r, "PULL");
      if (has_control_plane ? r.control_bytes == 0 : r.control_bytes != 0) {
        std::fprintf(stderr,
                     "gate 5 violation: %s/%s reports %llu control bytes\n",
                     scene_name(scene), r.protocol,
                     static_cast<unsigned long long>(r.control_bytes));
        all_ok = false;
      }
      const bool push_bounded =
          is_protocol(r, "PULL") || is_protocol(r, "SPRAY");
      if (push != nullptr && push_bounded &&
          r.delivery_ratio > push->delivery_ratio) {
        std::fprintf(stderr,
                     "gate 3 violation: %s/%s delivers %.4f > PUSH %.4f\n",
                     scene_name(scene), r.protocol, r.delivery_ratio,
                     push->delivery_ratio);
        all_ok = false;
      }
    }
  }

  // Gate 4: SPRAY bytes monotone in the copy budget (full matrix only).
  if (!smoke) {
    const MatrixResult* by_copies[3] = {};  // copies 1, 3, 8
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (points[i].scene != Scene::kHaggle || points[i].threads != 1 ||
          results[i].events == 0 || !is_protocol(results[i], "SPRAY")) {
        continue;
      }
      if (std::strcmp(results[i].protocol, "SPRAY:copies=1") == 0)
        by_copies[0] = &results[i];
      if (std::strcmp(results[i].protocol, "SPRAY:copies=3") == 0)
        by_copies[1] = &results[i];
      if (std::strcmp(results[i].protocol, "SPRAY:copies=8") == 0)
        by_copies[2] = &results[i];
    }
    if (by_copies[0] != nullptr && by_copies[1] != nullptr &&
        by_copies[2] != nullptr) {
      std::printf("spray budget (haggle): copies 1/3/8 move %llu/%llu/%llu "
                  "message bytes\n",
                  static_cast<unsigned long long>(by_copies[0]->message_bytes),
                  static_cast<unsigned long long>(by_copies[1]->message_bytes),
                  static_cast<unsigned long long>(by_copies[2]->message_bytes));
      if (by_copies[0]->message_bytes > by_copies[1]->message_bytes ||
          by_copies[1]->message_bytes > by_copies[2]->message_bytes) {
        std::fprintf(stderr,
                     "gate 4 violation: SPRAY bytes not monotone in copies\n");
        all_ok = false;
      }
    } else {
      std::fprintf(stderr, "gate 4 violation: spray budget points missing\n");
      all_ok = false;
    }
  }

  // Gate 6: single-run scaling of the city B-SUB replay (full matrix only).
  if (!smoke) {
    const MatrixResult* serial = nullptr;
    const MatrixResult* eight = nullptr;
    std::printf("\ncity B-SUB, one run across threads:\n%8s %10s %14s %9s "
                "%9s %9s %10s\n",
                "threads", "secs", "events/s", "speedup", "windows",
                "levels", "max_level");
    for (std::size_t i = 0; i < first_extra; ++i) {
      if (points[i].scene != Scene::kCity ||
          points[i].protocol != kTunedBsub || results[i].events == 0) {
        continue;
      }
      const MatrixResult& r = results[i];
      if (points[i].threads == 1) serial = &r;
      if (points[i].threads == 8) eight = &r;
      std::printf("%8zu %10.3f %14.0f %8.2fx %9llu %9llu %10llu\n",
                  points[i].threads, r.seconds, r.events_per_sec,
                  serial != nullptr ? serial->seconds / r.seconds : 0.0,
                  static_cast<unsigned long long>(r.windows),
                  static_cast<unsigned long long>(r.batches),
                  static_cast<unsigned long long>(r.max_batch));
    }
    const unsigned hw = std::thread::hardware_concurrency();
    if (serial == nullptr || eight == nullptr) {
      std::fprintf(stderr, "gate 6 violation: city scaling points missing\n");
      all_ok = false;
    } else if (hw >= 8) {
      const double speedup8 = serial->seconds / eight->seconds;
      std::printf("8-thread speedup %.2fx on %u hardware threads (target "
                  "3x)\n",
                  speedup8, hw);
      if (speedup8 < 3.0) {
        std::fprintf(stderr, "gate 6 violation: 8-thread speedup %.2fx < "
                             "3x\n",
                     speedup8);
        all_ok = false;
      }
    } else {
      std::printf("host has %u hardware thread(s): scaling target (>=3x at "
                  "8 threads) not judged\n",
                  hw);
    }
  }

  std::vector<std::string> json_points;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const MatrixResult& r = results[i];
    if (r.events == 0) continue;
    json_points.push_back(
        JsonObject()
            .field("scenario", std::string(scene_name(points[i].scene)))
            .field("protocol", std::string(r.protocol))
            .field("threads", r.threads_used)
            .field("delivery_ratio", r.delivery_ratio)
            .field("deliveries", r.interested_deliveries)
            .field("false_deliveries", r.false_deliveries)
            .field("expected_deliveries", r.expected_deliveries)
            .field("forwardings", r.forwardings)
            .field("message_bytes", r.message_bytes)
            .field("control_bytes", r.control_bytes)
            .field("mean_delay_minutes", r.mean_delay_minutes)
            .field("events", r.events)
            .field("seconds", r.seconds)
            .field("events_per_sec", r.events_per_sec)
            .field("peak_rss_bytes", r.peak_rss_bytes)
            .field("windows", r.windows)
            .field("batches", r.batches)
            .field("max_batch", r.max_batch)
            .str());
  }
  write_bench_json(smoke ? "matrix_smoke" : "matrix", wall.seconds(),
                   json_points);
  std::printf("matrix: %s\n", all_ok ? "all gates passed" : "FAILED");
  return all_ok ? 0 : 1;
}
