// One program for the evaluation: the paper's (section VII) Tables I-II,
// the in-text FPR, memory and allocation claims, Figs. 7-9 and the
// ablations, plus this repo's scenario x protocol matrix, live fleet and
// city-scale sweep, each an entry of one registry (DESIGN.md's experiment
// index).
//
//   bsub_paper                          runs every experiment
//   bsub_paper fig7_haggle ablation_... runs only the named ones
//   bsub_paper --smoke [experiment...]  the matrix, fleet and scale sweep
//                                       run their CI subsets
//
// An experiment declares each table's columns once: that list prints the
// fixed-width table and names the row fields in BENCH_paper.json. Each
// claim EXPERIMENTS.md makes about the rows is a named gate that states what
// it checks, the range it holds over and the value it measured, read back
// from the table. The run ends with a gate summary and exits 1 if any gate
// failed. Seeds are fixed, so every number but the timings and peak RSS is
// deterministic; sweep points run on the parallel runner (BSUB_THREADS) and
// come back in axis order.
#define BSUB_RESOURCE_STATS_COUNT_ALLOCS
#include "resource_stats.h"

#include "experiment_common.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <map>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <variant>

#include "bloom/allocation.h"
#include "bloom/bloom_filter.h"
#include "bloom/fpr.h"
#include "bloom/tcbf.h"
#include "bloom/tcbf_codec.h"
#include "core/interest_manager.h"
#include "engine/trace_runner.h"
#include "fleet_common.h"
#include "fork_util.h"
#include "scale_common.h"
#include "trace/city.h"
#include "util/rng.h"

namespace bsub::bench {
namespace {

// --- tables and gates -------------------------------------------------------

/// One table cell: a number, printed at its column's precision and stored
/// at full precision, or a label ("-" where a row has no value).
using Cell = std::variant<double, std::uint64_t, std::string>;
using Series = std::vector<double>;

struct Column {
  const char* key;     ///< field name in BENCH_paper.json
  const char* header;  ///< printed heading
  int precision = 0;   ///< digits after the point, for double cells
};

struct Table {
  std::string name;
  std::vector<Column> columns;
  std::vector<std::vector<Cell>> rows = {};

  void row(std::vector<Cell> cells) {
    if (cells.size() != columns.size()) {
      throw std::logic_error(name + ": row width differs from its columns");
    }
    rows.push_back(std::move(cells));
  }

  /// The numeric column `key`, one value per row. Gates read their values
  /// from here, so a gate checks exactly what the table prints.
  Series col(const char* key) const {
    const std::size_t c = index(key);
    Series out;
    for (const auto& r : rows) {
      const auto* u = std::get_if<std::uint64_t>(&r[c]);
      out.push_back(u ? static_cast<double>(*u) : std::get<double>(r[c]));
    }
    return out;
  }

  /// The label column `key`, one string per row.
  std::vector<std::string> labels(const char* key) const {
    const std::size_t c = index(key);
    std::vector<std::string> out;
    for (const auto& r : rows) out.push_back(std::get<std::string>(r[c]));
    return out;
  }

 private:
  std::size_t index(const char* key) const {
    std::size_t c = 0;
    while (c < columns.size() && std::strcmp(columns[c].key, key) != 0) ++c;
    if (c == columns.size()) throw std::logic_error(name + ": no " + key);
    return c;
  }
};

struct Gate {
  std::string id;     ///< experiment.name
  std::string claim;  ///< what it checks; [brackets] name the measured value
  std::string range;  ///< where it holds (traces, TTL, DF, thresholds)
  double measured;
  std::string op;  ///< ==, >=, <=, > or <
  double bound;

  bool pass() const {
    if (op == "==") return measured == bound;
    if (op == ">=") return measured >= bound;
    if (op == "<=") return measured <= bound;
    return op == ">" ? measured > bound : measured < bound;
  }
};

/// One experiment's tables (a deque keeps earlier ones in place) and gates.
struct Report {
  std::string name;
  bool smoke = false;  ///< --smoke: the harness experiments' CI subsets
  std::deque<Table> tables = {};
  std::vector<Gate> gates = {};

  Table& table(std::string title, std::vector<Column> columns) {
    return tables.emplace_back(Table{std::move(title), std::move(columns)});
  }
  void gate(const char* id, std::string claim, std::string range,
            double measured, std::string op, double bound) {
    gates.push_back({name + "." + id, std::move(claim), std::move(range),
                     measured, std::move(op), bound});
  }
};

std::string cell_text(const Cell& cell, int precision) {
  char buf[64];
  if (const auto* d = std::get_if<double>(&cell)) {
    std::snprintf(buf, sizeof buf, "%.*f", precision, *d);
  } else if (const auto* u = std::get_if<std::uint64_t>(&cell)) {
    std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(*u));
  } else {
    return std::get<std::string>(cell);
  }
  return buf;
}

/// Fixed-width print: each column as wide as its widest cell or heading,
/// label columns left-aligned, number columns right-aligned.
void print_table(const Table& t) {
  std::vector<std::vector<std::string>> text(1);
  std::vector<int> width;
  for (const Column& c : t.columns) {
    text[0].push_back(c.header);
    width.push_back(static_cast<int>(std::strlen(c.header)));
  }
  for (const auto& r : t.rows) {
    text.emplace_back();
    for (std::size_t c = 0; c < r.size(); ++c) {
      text.back().push_back(cell_text(r[c], t.columns[c].precision));
      width[c] = std::max(width[c], static_cast<int>(text.back()[c].size()));
    }
  }
  std::printf("\n%s\n", t.name.c_str());
  for (const auto& line : text) {
    for (std::size_t c = 0; c < line.size(); ++c) {
      const bool left = !t.rows.empty() &&
                        std::holds_alternative<std::string>(t.rows.back()[c]);
      std::printf("%s%*s", c == 0 ? "" : "  ", left ? -width[c] : width[c],
                  line[c].c_str());
    }
    std::printf("\n");
  }
}

void print_gate(const Gate& g) {
  std::printf("[%s] %s: %s | %s | measured %.6g %s %.6g\n",
              g.pass() ? "PASS" : "FAIL", g.id.c_str(), g.claim.c_str(),
              g.range.c_str(), g.measured, g.op.c_str(), g.bound);
}

/// BENCH_paper.json points: one per table row and one per gate.
void append_points(const Report& r, std::vector<std::string>& points) {
  for (const Table& t : r.tables) {
    for (const auto& cells : t.rows) {
      JsonObject o;
      o.field("experiment", r.name).field("table", t.name);
      for (std::size_t c = 0; c < cells.size(); ++c) {
        std::visit([&](const auto& v) { o.field(t.columns[c].key, v); },
                   cells[c]);
      }
      points.push_back(o.str());
    }
  }
  for (const Gate& g : r.gates) {
    points.push_back(JsonObject()
                         .field("gate", g.id)
                         .field("claim", g.claim)
                         .field("range", g.range)
                         .field("measured", g.measured)
                         .field("op", g.op)
                         .field("bound", g.bound)
                         .field("pass", g.pass() ? 1 : 0)
                         .str());
  }
}

/// The smallest and largest value; NaN if `v` is empty or holds a NaN, so a
/// gate whose input is missing fails.
double min_of(const Series& v) {
  double m = v.empty() ? std::nan("") : v[0];
  for (double x : v) m = std::isnan(x) || x < m ? x : m;
  return m;
}
double max_of(const Series& v) {
  double m = v.empty() ? std::nan("") : v[0];
  for (double x : v) m = std::isnan(x) || x > m ? x : m;
  return m;
}

Series minus(const Series& a, const Series& b) {
  Series out;
  for (std::size_t i = 0; i < a.size(); ++i) out.push_back(a[i] - b[i]);
  return out;
}

Series over(const Series& a, const Series& b) {
  Series out;
  for (std::size_t i = 0; i < a.size(); ++i) out.push_back(a[i] / b[i]);
  return out;
}

/// v[i+1] - v[i]: its min > 0 means strictly rising, its max < 0 falling.
Series steps(const Series& v) {
  return minus(Series(v.begin() + 1, v.end()), Series(v.begin(), v.end() - 1));
}

Series from(const Series& v, std::ptrdiff_t first) {
  return Series(v.begin() + first, v.end());
}

const util::Time kTenHours = 10 * util::kHour;

// --- the matrix, fleet and scale harnesses ------------------------------------
//
// Each point runs in its own forked child (fork_util.h), so its peak RSS is
// its own. A child's RSS starts with the pages its parent holds, so main()
// runs these experiments before any other has grown the process.

/// Runs `run(p)` for each point in a forked child and adds `cells(p, result)`
/// to `t` for each point that came back; returns how many did not.
template <class Point, class Run, class Cells>
double run_forked(Table& t, const std::vector<Point>& points, Run run,
                  Cells cells) {
  double failed = 0;
  for (const Point& p : points) {
    std::invoke_result_t<Run, const Point&> result;
    if (run_isolated([&] { return run(p); }, result)) {
      t.row(cells(p, result));
    } else {
      std::fprintf(stderr, "%s: a point failed to run\n", t.name.c_str());
      ++failed;
    }
  }
  return failed;
}

void gate_points_ran(Report& r, double failed) {
  r.gate("every_point_ran", "every point ran in its own process [failed]",
         "every point", failed, "==", 0);
}

// matrix: every registered protocol over every scenario class, serial and
// threaded. Its gates re-assert the accounting invariants on every cell, so
// a protocol that double-charges bytes (the old SPRAY re-spray bug),
// charges control bytes it never sends, or diverges between thread counts
// fails the run.

enum class Scene { kHaggle, kReality, kCity };

/// Expanded per scenario in the child: the materialized traces tune DF from
/// Eq. 5 (which needs trace centrality), the streamed city uses the fixed
/// scale default.
constexpr const char* kTunedBsub = "B-SUB@tuned";

struct MatrixPoint {
  Scene scene;
  std::string protocol;  ///< spec string or kTunedBsub
  std::size_t threads;
};

struct MatrixResult {
  char protocol[96] = {};  ///< the expanded spec actually run
  metrics::RunResults results;
  sim::ParallelRunStats exec;
  double seconds = 0.0;
  std::uint64_t peak_rss_bytes = 0;
};

const char* scene_name(Scene s) {
  return s == Scene::kHaggle ? "haggle"
         : s == Scene::kReality ? "reality"
                                : "city-stream";
}

/// Runs in the child: the scenario is rebuilt from its deterministic
/// config, so every point is independent.
MatrixResult run_matrix_point(const MatrixPoint& p) {
  sim::SimulatorConfig sim_cfg;
  sim_cfg.threads = p.threads;
  sim::Simulator simulator(sim_cfg);
  MatrixResult out;
  std::string spec = p.protocol;
  WallTimer timer;
  if (p.scene == Scene::kCity) {
    constexpr std::size_t kCityNodes = 5000;
    const trace::CityTraceConfig city =
        trace::city_config(kCityNodes, 100000, kExperimentSeed);
    auto stream = trace::make_city_stream(city);
    const workload::KeySet keys = workload::twitter_trend_keys();
    const workload::Workload w = make_scale_workload(
        keys, kCityNodes, 200, static_cast<util::Time>(city.days) * util::kDay,
        kExperimentSeed, kScaleSalt);
    if (spec == kTunedBsub) spec = kScaleDefaultProtocol;
    out.results = simulator.run(*stream, w, protocol_registry(), spec);
  } else {
    const Scenario s = p.scene == Scene::kHaggle ? haggle_scenario()
                                                 : reality_scenario();
    const workload::Workload w = s.make_workload(kTenHours);
    if (spec == kTunedBsub) {
      spec = core::bsub_spec(bsub_config_for(s, kTenHours));
    }
    out.results = simulator.run(s.trace, w, protocol_registry(), spec);
  }
  out.seconds = timer.seconds();
  std::snprintf(out.protocol, sizeof out.protocol, "%s", spec.c_str());
  out.exec = simulator.last_run_stats();
  out.peak_rss_bytes = peak_rss_bytes();
  return out;
}

const std::vector<Column> kMatrixColumns = {
    {"scenario", "scenario"}, {"protocol", "protocol"}, {"threads", "T"},
    {"delivery_ratio", "delivery", 3}, {"deliveries", "delivered"},
    {"false_deliveries", "false"}, {"expected_deliveries", "expected"},
    {"forwardings", "forwards"}, {"message_bytes", "msg bytes"},
    {"control_bytes", "ctl bytes"}, {"mean_delay_minutes", "delay(min)", 1},
    {"events", "events"}, {"seconds", "secs", 3},
    {"events_per_sec", "events/s", 0}, {"peak_rss_bytes", "peak RSS (B)"},
    {"windows", "windows"}, {"batches", "levels"}, {"max_batch", "max level"}};

std::vector<Cell> matrix_cells(const MatrixPoint& p, const MatrixResult& m) {
  const metrics::RunResults& r = m.results;
  const double eps =
      m.seconds > 0.0 ? static_cast<double>(m.exec.events) / m.seconds : 0.0;
  return {std::string(scene_name(p.scene)), std::string(m.protocol),
          std::uint64_t{m.exec.threads_used}, r.delivery_ratio,
          r.interested_deliveries, r.false_deliveries, r.expected_deliveries,
          r.forwardings, r.message_bytes, r.control_bytes,
          r.mean_delay_minutes, m.exec.events, m.seconds, eps,
          m.peak_rss_bytes, m.exec.windows, m.exec.batches,
          m.exec.max_batch};
}

void matrix(Report& r) {
  const std::vector<Scene> scenes =
      r.smoke ? std::vector<Scene>{Scene::kHaggle}
              : std::vector<Scene>{Scene::kHaggle, Scene::kReality,
                                   Scene::kCity};
  std::vector<MatrixPoint> grid;
  for (Scene scene : scenes) {
    for (const char* protocol :
         {kTunedBsub, "PUSH", "PULL", "SPRAY:copies=3"}) {
      // The streamed city is the one scenario wide enough to scale, so it
      // carries the 2- and 8-thread points too.
      for (std::size_t threads :
           scene == Scene::kCity ? std::vector<std::size_t>{1, 2, 4, 8}
                                 : std::vector<std::size_t>{1, 4}) {
        grid.push_back({scene, protocol, threads});
      }
    }
  }
  Table& t = r.table(r.smoke ? "haggle x protocol x {1, 4} threads (smoke)"
                             : "scenario x protocol x {1, 4} threads "
                               "(city-stream: 5,000 nodes, 10^5 contacts, "
                               "also 2 and 8)",
                     kMatrixColumns);
  double failed = run_forked(t, grid, run_matrix_point, matrix_cells);
  // SPRAY's copy-budget sub-sweep; copies=3 is the grid's serial haggle row.
  Table* budget = nullptr;
  if (!r.smoke) {
    budget = &r.table("SPRAY copy budget (haggle, serial)", kMatrixColumns);
    failed += run_forked(*budget,
                         std::vector<MatrixPoint>{
                             {Scene::kHaggle, "SPRAY:copies=1", 1},
                             {Scene::kHaggle, "SPRAY:copies=8", 1}},
                         run_matrix_point, matrix_cells);
  }
  gate_points_ran(r, failed);

  const std::vector<std::string> scene = t.labels("scenario");
  const std::vector<std::string> protocol = t.labels("protocol");
  const Series threads = t.col("threads"), delivery = t.col("delivery_ratio");
  const Series control = t.col("control_bytes");
  auto is = [&](std::size_t i, const char* prefix) {
    return protocol[i].rfind(prefix, 0) == 0;
  };
  Series over = minus(t.col("deliveries"), t.col("expected_deliveries"));
  if (budget != nullptr) {
    for (double d : minus(budget->col("deliveries"),
                          budget->col("expected_deliveries"))) {
      over.push_back(d);
    }
  }
  r.gate("deliveries_within_expected", "deliveries never exceed the "
         "workload's expected deliveries [max delivered - expected]",
         "every point", max_of(over), "<=", 0);

  // Gates 2-5 read the grid: one row per (scenario, protocol, threads).
  double diverging = 0;
  std::vector<Series> semantic;
  for (const char* key : {"deliveries", "false_deliveries",
                          "expected_deliveries", "forwardings",
                          "message_bytes", "control_bytes", "delivery_ratio",
                          "mean_delay_minutes"}) {
    semantic.push_back(t.col(key));
  }
  for (std::size_t i = 0; i < scene.size(); ++i) {
    for (std::size_t j = i + 1; j < scene.size(); ++j) {
      if (scene[i] != scene[j] || protocol[i] != protocol[j]) continue;
      bool same = true;
      for (const Series& f : semantic) same = same && f[i] == f[j];
      diverging += !same;
    }
  }
  const char* grid_range = r.smoke ? "haggle, 1 and 4 threads"
                                   : "3 scenarios, 1-8 threads";
  r.gate("serial_equals_parallel", "every thread count reproduces the "
         "serial semantic fields [diverging row pairs]", grid_range,
         diverging, "==", 0);

  // PULL and SPRAY move strict subsets of the bodies PUSH moves at
  // unconstrained bandwidth; only protocols with a control plane pay
  // control bytes.
  Series above_push;
  double wrong_class = 0;
  for (std::size_t i = 0; i < scene.size(); ++i) {
    if (threads[i] != 1) continue;
    wrong_class += (is(i, "B-SUB") || is(i, "PULL")) ? control[i] == 0
                                                     : control[i] != 0;
    if (!is(i, "PULL") && !is(i, "SPRAY")) continue;
    for (std::size_t j = 0; j < scene.size(); ++j) {
      if (threads[j] == 1 && scene[j] == scene[i] && is(j, "PUSH")) {
        above_push.push_back(delivery[i] - delivery[j]);
      }
    }
  }
  r.gate("push_bounds_delivery", "PUSH delivers at least as much as PULL "
         "and SPRAY [max PULL/SPRAY - PUSH]", "serial, per scenario",
         max_of(above_push), "<=", 0);
  r.gate("control_bytes_by_class", "B-SUB and PULL pay control bytes, PUSH "
         "and SPRAY none [rows in the wrong class]", "serial rows",
         wrong_class, "==", 0);
  if (r.smoke) return;

  // A bigger budget may never move fewer bytes: the delivered-guard fix
  // keeps re-sprays out without deflating legitimate spraying.
  auto spray_bytes = [](const Table& tab, const std::string& spec) {
    const std::vector<std::string> s = tab.labels("scenario");
    const std::vector<std::string> p = tab.labels("protocol");
    const Series th = tab.col("threads"), b = tab.col("message_bytes");
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (s[i] == "haggle" && p[i] == spec && th[i] == 1) return b[i];
    }
    return std::nan("");
  };
  const Series bytes = {spray_bytes(*budget, "SPRAY:copies=1"),
                        spray_bytes(t, "SPRAY:copies=3"),
                        spray_bytes(*budget, "SPRAY:copies=8")};
  r.gate("spray_bytes_monotone", "SPRAY moves no fewer bytes with a bigger "
         "budget [min step, B]", "haggle, copies 1, 3, 8",
         min_of(steps(bytes)), ">=", 0);

  // Single-run scaling of the city B-SUB replay. A host with fewer than 8
  // hardware threads runs the points but cannot judge the target.
  const unsigned hw = std::thread::hardware_concurrency();
  Table& scaling = r.table(
      "city-stream B-SUB, one run across threads (>= 3x at 8 threads, "
      "judged on >= 8 hardware threads; this host has " +
          std::to_string(hw) + ")",
      {{"threads", "threads"}, {"seconds", "secs", 3},
       {"speedup", "speedup", 2}});
  const Series secs = t.col("seconds");
  double serial = std::nan(""), speedup8 = std::nan("");
  for (std::size_t i = 0; i < scene.size(); ++i) {
    if (scene[i] != "city-stream" || !is(i, "B-SUB")) continue;
    if (threads[i] == 1) serial = secs[i];
    if (threads[i] == 8) speedup8 = serial / secs[i];
    scaling.row({threads[i], secs[i], serial / secs[i]});
  }
  if (hw >= 8) {
    r.gate("city_8_thread_speedup", "the city B-SUB replay runs >= 3x "
           "faster at 8 threads [speedup]", "5,000 nodes, 8 vs 1 threads",
           speedup8, ">=", 3);
  }
}

// fleet: thousands of live B-SUB nodes per reactor thread. The claim is
// correct scale-out: the deterministic loopback engine is bit-identical to
// engine::TraceRunner, and the real-UDP engine completes every contact.

struct FleetSpec {
  const char* label;
  FleetPoint point;
  /// First port of a real-UDP point (shard s binds it + s); 0 runs the
  /// loopback engine and checks it against the engine harness.
  std::uint16_t udp_port = 0;
};

struct FleetResult {
  net::FleetRunResults run;
  std::uint64_t peak_rss_bytes = 0;
  double allocs_per_contact = 0.0;
  double frame_cache_hit_frac = 0.0;  ///< hello, genuine and relay frames
  bool differential_ok = true;
};

FleetResult run_fleet_point(const FleetSpec& spec) {
  const FleetScenario scenario(spec.point, kExperimentSeed);
  net::FleetConfig cfg = make_fleet_config(scenario, "");
  if (spec.udp_port != 0) {
    cfg.shards = 2;
    cfg.udp.base_port = spec.udp_port;
  } else {
    cfg.threads = 2;
  }
  FleetResult out;
  net::FleetRuntime fleet(cfg);
  const std::uint64_t allocs_before = allocs_now();
  out.run = spec.udp_port != 0
                ? fleet.run_udp(scenario.trace, scenario.workload)
                : fleet.run_loopback(scenario.trace, scenario.workload);
  out.allocs_per_contact =
      static_cast<double>(allocs_now() - allocs_before) /
      static_cast<double>(std::max<std::uint64_t>(
          1, out.run.protocol.contacts_processed));
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  for (std::size_t n = 0; n < spec.point.nodes; ++n) {
    hits += fleet.node(n).frame_cache_hits();
    misses += fleet.node(n).frame_cache_misses();
  }
  out.frame_cache_hit_frac =
      static_cast<double>(hits) /
      static_cast<double>(std::max<std::uint64_t>(1, hits + misses));
  if (spec.udp_port == 0) {
    out.differential_ok = fleet_matches_engine(scenario, cfg, out.run.protocol);
  }
  out.peak_rss_bytes = peak_rss_bytes();
  return out;
}

std::vector<Cell> fleet_cells(const FleetSpec& spec, const FleetResult& f) {
  const net::FleetRunResults& r = f.run;
  const bool udp = spec.udp_port != 0;
  return {std::string(spec.label), std::string(udp ? "udp" : "loopback"),
          std::uint64_t{spec.point.nodes}, std::uint64_t{spec.point.contacts},
          std::uint64_t{spec.point.messages}, std::uint64_t{r.reactor_threads},
          r.wall_seconds, r.contacts_per_second, r.deliveries_per_second,
          r.protocol.deliveries, r.protocol.expected_deliveries,
          r.p50_delivery_latency_ms, r.p99_delivery_latency_ms,
          r.contacts_timed_out, r.send_syscalls, r.recv_syscalls,
          r.datagrams_out, r.sendq_drops, r.unroutable_drops,
          f.peak_rss_bytes, f.allocs_per_contact, f.frame_cache_hit_frac,
          std::string(udp ? "n/a" : f.differential_ok ? "pass" : "FAIL"),
          r.protocol.contacts_processed};
}

void fleet(Report& r) {
  constexpr FleetPoint kSparse{10000, 8000, 100};
  constexpr FleetPoint kDense{10000, 80000, 500};
  const std::vector<FleetSpec> points =
      r.smoke ? std::vector<FleetSpec>{{"loopback-256", {256, 2048, 64}},
                                       {"udp-64", {64, 1000, 50}, 47800}}
              : std::vector<FleetSpec>{{"loopback-10k", kDense},
                                       {"udp-10k", kSparse, 47600},
                                       {"udp-10k-dense", kDense, 47700}};
  Table& t = r.table(
      "live fleet: loopback (2 lanes) and real UDP (2 shards)",
      {{"label", "point"}, {"mode", "mode"}, {"nodes", "nodes"},
       {"contacts", "contacts"}, {"messages", "msgs"},
       {"reactor_threads", "reactors"}, {"seconds", "secs", 2},
       {"contacts_per_sec", "contacts/s", 0},
       {"deliveries_per_sec", "dlv/s", 0}, {"deliveries", "delivered"},
       {"expected_deliveries", "expected"},
       {"p50_delivery_latency_ms", "p50 ms", 1},
       {"p99_delivery_latency_ms", "p99 ms", 1},
       {"contacts_timed_out", "timed out"}, {"send_syscalls", "sends"},
       {"recv_syscalls", "recvs"}, {"datagrams_out", "datagrams"},
       {"sendq_drops", "sendq drops"}, {"unroutable_drops", "unroutable"},
       {"peak_rss_bytes", "peak RSS (B)"},
       {"allocs_per_contact", "allocs/contact", 1},
       {"frame_cache_hit_frac", "cache hits", 3},
       {"differential", "differential"},
       {"contacts_processed", "completed"}});
  gate_points_ran(r, run_forked(t, points, run_fleet_point, fleet_cells));

  const std::vector<std::string> mode = t.labels("mode");
  const std::vector<std::string> differential = t.labels("differential");
  const Series rate = t.col("contacts_per_sec"), issued = t.col("contacts");
  const Series done = t.col("contacts_processed");
  const Series timed_out = t.col("contacts_timed_out");
  double mismatches = 0;
  Series udp_rate, lost, timeout_share;
  for (std::size_t i = 0; i < mode.size(); ++i) {
    mismatches += differential[i] == "FAIL";
    if (mode[i] != "udp") continue;
    udp_rate.push_back(rate[i]);
    lost.push_back(std::abs(issued[i] - done[i]));
    timeout_share.push_back(timed_out[i] / issued[i]);
  }
  r.gate("loopback_bit_identical", "every loopback point is bit-identical "
         "to engine::TraceRunner [mismatching points]", "loopback points",
         mismatches, "==", 0);
  // Coarse pathology catches: the floor is 40x under the slowest rate the
  // full points recorded.
  r.gate("udp_throughput_floor", "every UDP point runs >= 500 contacts/s "
         "[min contacts/s]", "UDP points", min_of(udp_rate), ">=", 500);
  r.gate("udp_contacts_complete", "every issued contact completes [max "
         "|issued - completed|]", "UDP points", max_of(lost), "==", 0);
  r.gate("udp_timeouts_under_1pct", "hard timeouts stay <= 1% of contacts "
         "[max share]", "UDP points", max_of(timeout_share), "<=", 0.01);
}

// scale_sweep: the streaming contact plane plus the lazy, pooled node state.
// Every point streams a trace::make_city_stream scenario through B-SUB on
// the simulator; none materializes its trace, up to 10^6 nodes x 10^7
// contacts. Peak memory must stay O(idle floor + materialized participant
// state + one scheduling window): contacts may activate state (a node that
// meets enough peers becomes a broker and owns a ~2 KiB relay filter, which
// is protocol behavior), but must not leak per event.

// Budget terms. kPerNodeFloorBytes covers the always-paid slots, handles
// and indices; kBaseRssBytes the process baseline (binary, stream window,
// workload); kPerBrokerBytes one materialized participant's state (2 KB
// relay TCBF + shadow + election ring/table + message bookkeeping).
constexpr double kPerNodeFloorBytes = 640.0;
constexpr double kBaseRssBytes = 16.0 * (1 << 20);
constexpr double kPerBrokerBytes = 5120.0;

std::vector<Cell> scale_cells(const ScalePoint& p, const ScaleResult& r) {
  return {std::uint64_t{p.nodes}, p.contacts, r.events, r.seconds,
          r.events_per_sec, r.peak_rss_bytes, r.bytes_per_node,
          r.materialized_relays, r.election_state_bytes, r.deliveries,
          r.delivery_ratio, r.forwardings};
}

void scale_sweep(Report& r) {
  const std::vector<ScalePoint> points =
      r.smoke ? std::vector<ScalePoint>{{10000, 100000}, {10000, 1000000}}
              : std::vector<ScalePoint>{{1000, 100000},
                                        {10000, 100000},
                                        {10000, 1000000},
                                        {100000, 1000000},
                                        {100000, 10000000},
                                        {1000000, 100000},
                                        {1000000, 10000000}};
  Table& t = r.table(
      "streamed city, B-SUB:df=0.5, serial",
      {{"nodes", "nodes"}, {"contacts", "contacts"}, {"events", "events"},
       {"seconds", "secs", 2}, {"events_per_sec", "events/s", 0},
       {"peak_rss_bytes", "peak RSS (B)"}, {"bytes_per_node", "B/node", 0},
       {"materialized_relays", "ever-brokers"},
       {"election_state_bytes", "election B"}, {"deliveries", "delivered"},
       {"delivery_ratio", "delivery", 4}, {"forwardings", "forwards"}});
  gate_points_ran(
      r, run_forked(t, points,
                    [](const ScalePoint& p) { return run_scale_point(p); },
                    scale_cells));

  const Series nodes = t.col("nodes"), events = t.col("events");
  const Series rss = t.col("peak_rss_bytes"), relays = t.col("materialized_relays");
  const Series eps = t.col("events_per_sec"), per_node = t.col("bytes_per_node");
  // At a fixed node count, the point with 10x the contacts may add only
  // the state its extra ever-brokers materialized (credited per relay and
  // capped at one per node, so a per-event leak still trips): peak <=
  // 1.25 x the smaller point's + 32 MiB + 5120 B per extra relay.
  Series over_ceiling;
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    if (nodes[i] != nodes[i - 1]) continue;
    const double ceiling = std::floor(rss[i - 1] * 1.25) + (32 << 20) +
                           std::floor(std::max(0.0, relays[i] - relays[i - 1]) *
                                      kPerBrokerBytes);
    over_ceiling.push_back((rss[i] - ceiling) / (1 << 20));
  }
  r.gate("rss_flat_in_contacts", "peak RSS stays under its activity-"
         "adjusted ceiling [max MiB over]",
         "each node count with two contact volumes",
         max_of(over_ceiling), "<=", 0);
  // Wall time includes O(nodes) protocol setup, so a point with fewer
  // events than nodes measures setup; it is there as an RSS baseline.
  Series judged;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (events[i] >= nodes[i]) judged.push_back(eps[i]);
  }
  r.gate("throughput_floor", "every setup-amortized point runs >= 25k "
         "events/s [min events/s]", "points with events >= nodes",
         min_of(judged), ">=", 25000);
  Series over_budget;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    over_budget.push_back(per_node[i] -
                          (kPerNodeFloorBytes + kBaseRssBytes / nodes[i] +
                           relays[i] * kPerBrokerBytes / nodes[i]));
  }
  r.gate("bytes_per_node_budget", "peak RSS per node fits 640 B + 16 MiB / "
         "nodes + 5120 B per ever-broker / nodes [max B/node over]",
         "every point", max_of(over_budget), "<=", 0);
}


// --- Tables I-II, FPR theory, memory, allocation -----------------------------

void table1_traces(Report& r) {
  Table& t = r.table(
      "Table I: synthetic substitutes calibrated to the two traces",
      {{"trace", "data set"}, {"device", "device"}, {"link", "communication"},
       {"duration_days", "days", 1}, {"nodes", "nodes"},
       {"contacts", "contacts"}, {"mean_contact_s", "mean contact (s)", 1},
       {"contacts_per_node", "contacts/node", 1},
       {"mean_degree", "mean degree", 1}});
  for (const auto& [name, device, s] :
       {std::tuple{"Haggle(Infocom'06)", "iMote (synthetic)",
                   haggle_scenario()},
        std::tuple{"MIT Reality (3-day)", "phone (synthetic)",
                   reality_scenario()}}) {
    const trace::TraceStats st = s.trace.stats();
    t.row({std::string(name), std::string(device), std::string("Bluetooth"),
           util::to_hours(st.duration) / 24.0, st.node_count, st.contact_count,
           st.mean_contact_duration_s, st.mean_contacts_per_node,
           st.mean_degree});
  }
  const char* range = "generator presets, seed 2010";
  const double paper[2][2] = {{79, 67360}, {97, 54667}};  // nodes, contacts
  for (std::size_t i = 0; i < 2; ++i) {
    const std::string trace = i == 0 ? "haggle" : "reality";
    r.gate((trace + "_nodes").c_str(), "the paper's node count", range,
           t.col("nodes")[i], "==", paper[i][0]);
    r.gate((trace + "_contacts").c_str(), "the paper's contact count", range,
           t.col("contacts")[i], "==", paper[i][1]);
  }
  const Series per_node = t.col("contacts_per_node");
  const Series degree = t.col("mean_degree");
  r.gate("reality_fewer_contacts", "Reality has fewer contacts/node [ratio]",
         range, per_node[1] / per_node[0], "<", 1);
  r.gate("reality_lower_degree", "Reality has a lower mean degree [ratio]",
         range, degree[1] / degree[0], "<", 1);
}

void table2_keys(Report& r) {
  const workload::KeySet keys = workload::twitter_trend_keys();
  Table& top = r.table("Table II: top 4 keys (spaces removed)",
                       {{"key", "key"}, {"weight", "weight", 4}});
  const std::pair<const char*, double> paper[] = {{"NewMoon", 0.132},
                                                  {"Twitter'sNew", 0.103},
                                                  {"funnybutnotcool", 0.0887},
                                                  {"openwebawards", 0.0739}};
  double matching = 0;
  for (workload::KeyId k = 0; k < 4; ++k) {
    top.row({keys.name(k), keys.weight(k)});
    matching += keys.name(k) == paper[k].first &&
                std::abs(keys.weight(k) - paper[k].second) < 5e-5;
  }
  double tail = 0.0;
  for (workload::KeyId k = 4; k < keys.size(); ++k) tail += keys.weight(k);
  // "At most 5 bytes are used to encode a single key": k = 4 locations of
  // ceil(log2 256) = 8 bits each, plus the optional shared counter byte.
  Table& all = r.table(
      "whole distribution (Zipf-tail substitution)",
      {{"keys", "keys"}, {"tail_keys", "tail keys"},
       {"tail_weight", "tail weight", 4},
       {"mean_key_bytes", "mean key bytes", 2},
       {"encoded_key_bytes", "bytes per encoded key", 0}});
  all.row({keys.size(), keys.size() - 4, tail, keys.average_key_length(),
           bloom::model_wire_size_bytes(4, 256,
                                        bloom::CounterEncoding::kUniform)});
  r.gate("published_keys", "the top keys have the paper's names and weights",
         "Table II, weights +-5e-5", matching, "==", 4);
  r.gate("key_count", "the key universe has the paper's 38 keys", "Table II",
         all.col("keys")[0], "==", 38);
  r.gate("mean_key_bytes", "keys average 11.5 +- 1 B [|mean - 11.5|]",
         "Table II", std::abs(all.col("mean_key_bytes")[0] - 11.5), "<=", 1);
  r.gate("encoded_key_bytes", "one encoded key takes at most 5 bytes",
         "m=256, k=4", all.col("encoded_key_bytes")[0], "<=", 5);
}

void fpr_theory(Report& r) {
  const bloom::BloomParams params{256, 4};
  util::Rng rng(kExperimentSeed);
  constexpr int kFilters = 40;
  constexpr int kProbes = 5000;
  Table& t = r.table(
      "Eq. 1-3 vs 40 real filters x 5000 probes (m=256, k=4)",
      {{"keys", "keys"}, {"eq1_exact", "Eq.1 exact", 4},
       {"eq1_approx", "Eq.1 appr", 4}, {"measured", "measured FPR", 4},
       {"fill", "measured fill", 4}, {"eq3_fill", "Eq.3 fill", 4}});
  for (std::uint64_t n : {1, 5, 10, 20, 38, 60, 100}) {
    std::uint64_t fp = 0;
    double fill = 0.0;
    for (int f = 0; f < kFilters; ++f) {
      bloom::BloomFilter bf(params);
      for (std::uint64_t i = 0; i < n; ++i) {
        bf.insert("stored" + std::to_string(rng()));
      }
      fill += bf.fill_ratio();
      for (int p = 0; p < kProbes; ++p) {
        fp += bf.contains("probe" + std::to_string(rng()));
      }
    }
    t.row({n, bloom::false_positive_rate_exact(n, params),
           bloom::false_positive_rate(n, params),
           static_cast<double>(fp) / (kFilters * kProbes), fill / kFilters,
           bloom::expected_fill_ratio(n, params)});
  }
  const double eq1 = t.col("eq1_approx")[4];  // 38 keys
  r.gate("eq1_at_38", "Eq. 1 gives the paper's 0.04 [|Eq. 1 - 0.04|]",
         "38 keys, m=256, k=4", std::abs(eq1 - 0.04), "<=", 0.0005);
  // Tolerance: the measurement averages fill^k over 40 filters, which
  // exceeds (mean fill)^k (convexity), plus the sampling error of 40
  // filters; 10% of Eq. 1 covers both.
  r.gate("monte_carlo_at_38", "real filters match Eq. 1 [|measured/Eq.1 - 1|]",
         "38 keys", std::abs(t.col("measured")[4] / eq1 - 1), "<=", 0.10);
  const Series fill = over(t.col("fill"), t.col("eq3_fill"));
  r.gate("fill_matches_eq3", "fill matches Eq. 3 [max |fill/Eq.3 - 1|]",
         "1-100 keys", std::max(max_of(fill) - 1, 1 - min_of(fill)), "<=",
         0.02);
}

void memory_comparison(Report& r) {
  const workload::KeySet keys = workload::twitter_trend_keys();
  const bloom::BloomParams params{256, 4};
  // Raw strings: the key bytes plus a 1-byte length prefix per key, the
  // paper's "associated control information".
  const std::size_t raw = keys.total_key_bytes() + keys.size();
  bloom::Tcbf all(params, 50.0);
  for (const auto& k : keys) all.insert(k.name);
  Table& t = r.table("section VI-C: the full 38-key interest set on the wire",
                     {{"representation", "representation"},
                      {"set_bits", "set bits"}, {"bytes", "bytes"},
                      {"vs_raw", "vs raw", 2},
                      {"model_bytes", "model bytes (no header)", 0}});
  const std::string none = "-";
  t.row({std::string("raw strings (+1B length each)"), none, raw, 1.0, none});
  for (const auto& [label, encoding] :
       {std::pair{"TCBF, full counters (relay exchange)",
                  bloom::CounterEncoding::kFull},
        std::pair{"TCBF, uniform counter (genuine filter)",
                  bloom::CounterEncoding::kUniform},
        std::pair{"TCBF, counter-less BF (interest report)",
                  bloom::CounterEncoding::kCounterLess}}) {
    const std::size_t bytes = bloom::encode_tcbf(all, encoding).size();
    t.row({std::string(label), all.popcount(), bytes,
           static_cast<double>(bytes) / static_cast<double>(raw),
           bloom::model_wire_size_bytes(all.popcount(), params.m, encoding)});
  }
  // Heap bytes allocated constructing interest + election state for 10^5
  // nodes, then activating 10% of them (one absorbed interest + one window
  // meeting each). The allocation counter is monotone (frees are not
  // subtracted), so each delta is exactly what that region allocated; no
  // other experiment runs meanwhile.
  constexpr std::size_t kNodes = 100000;
  constexpr std::size_t kActive = kNodes / 10;
  const std::uint64_t start = allocated_bytes_now();
  core::InterestManager im(kNodes, params, 50.0, 0.5);
  core::BrokerElection el(kNodes, {3, 5, 5 * util::kHour});
  const std::uint64_t idle = allocated_bytes_now() - start;
  const bloom::Tcbf genuine = im.make_genuine("NewMoon");
  for (trace::NodeId n = 0; n < kActive; ++n) {
    im.absorb_genuine(n, genuine, "NewMoon", util::kMinute);
    el.on_contact(n, (n + 1) % kNodes, util::kMinute);
  }
  const std::uint64_t active = allocated_bytes_now() - start - idle;
  Table& heap = r.table(
      "resident interest + election state, lazy/pooled",
      {{"nodes", "nodes"}, {"active", "active"},
       {"idle_bytes", "idle heap bytes"}, {"idle_per_node", "idle bytes/node"},
       {"per_active_node", "bytes/active node"}});
  heap.row({kNodes, kActive, idle, static_cast<double>(idle) / kNodes,
            static_cast<double>(active) / kActive});
  r.gate("tcbf_half_of_raw", "every TCBF encoding <= half raw [max ratio]",
         "38 keys, m=256, k=4", max_of(from(t.col("vs_raw"), 1)), "<=", 0.5);
  r.gate("idle_below_active", "idle nodes cost less [idle / active]", "10^5",
         heap.col("idle_per_node")[0] / heap.col("per_active_node")[0], "<", 1);
}

void tcbf_allocation(Report& r) {
  const bloom::BloomParams params{256, 4};
  const double n = 114;  // e.g. three brokers' worth of 38-key sets
  Table& plans = r.table(
      "section VI-D: optimal filter count h* for 114 keys (m=256, k=4)",
      {{"bound_bytes", "bound (B)"}, {"h", "h*"}, {"feasible", "feasible"},
       {"keys_per_filter", "keys/filter", 1}, {"theta", "theta", 3},
       {"joint_fpr", "joint FPR", 6}, {"memory_bytes", "memory (B)", 1}});
  double not_largest = 0;
  for (double bound : {250.0, 400.0, 600.0, 900.0, 1400.0, 2000.0, 4000.0}) {
    const auto p = bloom::optimize_allocation(n, bound, params);
    plans.row({bound, p.filter_count, std::string(p.feasible ? "yes" : "no"),
               p.keys_per_filter, p.fill_threshold, p.joint_fpr,
               p.memory_bytes});
    // The binary search must stop at the largest h that fits: one more
    // filter either exceeds the bound or would hold under one key.
    const std::uint32_t next = p.filter_count + 1;
    not_largest += p.feasible &&
                   (p.memory_bytes >= bound ||
                    (next <= n && bloom::multi_filter_memory_bytes(
                                      n, next, params) < bound));
  }
  Table& mono = r.table("joint FPR and memory vs h (Eq. 7-8)",
                        {{"h", "h"}, {"joint_fpr", "joint FPR", 6},
                         {"memory_bytes", "memory (B)", 1}});
  for (std::uint32_t h : {1u, 2u, 4u, 8u, 16u, 32u}) {
    mono.row({h, bloom::joint_false_positive_rate_uniform(n, h, params),
              bloom::multi_filter_memory_bytes(n, h, params)});
  }
  r.gate("fpr_falls_with_h", "joint FPR falls as h grows [largest step]",
         "h = 1-32", max_of(steps(mono.col("joint_fpr"))), "<", 0);
  r.gate("memory_grows_with_h", "memory grows with h [smallest step, B]",
         "h = 1-32", min_of(steps(mono.col("memory_bytes"))), ">", 0);
  r.gate("largest_feasible_h", "h* is the largest h that fits [misses]",
         "bounds 250-4000 B", not_largest, "==", 0);
}

// --- Figs. 7-8: PUSH / B-SUB / PULL over TTL ---------------------------------

/// The paper's log TTL axis, from ~10 to ~1200 minutes.
const std::vector<double> kTtlMinutes = {10, 30, 60, 120, 300, 600, 1200};

/// Fig. 7 or 8 as a table. Each trace's sweep runs at most once per
/// process: fig8_reality's cross-trace gate reads Haggle's too.
const Table& ttl_table(bool reality) {
  static std::map<bool, Table> done;
  if (auto it = done.find(reality); it != done.end()) return it->second;
  Table t{std::string(reality ? "Fig. 8" : "Fig. 7") +
              ": PUSH vs B-SUB vs PULL over TTL (" +
              (reality ? "mit-reality-3day-like)" : "haggle-infocom06-like)"),
          {{"ttl_min", "TTL(min)", 0}, {"push_delivery", "PUSH dlv", 3},
           {"bsub_delivery", "B-SUB dlv", 3}, {"pull_delivery", "PULL dlv", 3},
           {"push_delay_min", "PUSH delay", 1},
           {"bsub_delay_min", "B-SUB delay", 1},
           {"pull_delay_min", "PULL delay", 1}, {"push_fwd", "PUSH fwd", 2},
           {"bsub_fwd", "B-SUB fwd", 2}, {"pull_fwd", "PULL fwd", 2},
           {"bsub_tie_transfers", "B-SUB ties"}}};
  const Scenario s = reality ? reality_scenario() : haggle_scenario();
  const auto rows = util::parallel_map(kTtlMinutes, [&](double ttl_min) {
    const util::Time ttl = util::from_minutes(ttl_min);
    const workload::Workload w = s.make_workload(ttl);
    return std::vector<ProtocolRun>{run_spec(s, w, "PUSH"),
                                    run_bsub(s, w, bsub_config_for(s, ttl)),
                                    run_spec(s, w, "PULL")};
  });
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::vector<Cell> row = {kTtlMinutes[i]};
    for (const auto& p : rows[i]) row.emplace_back(p.results.delivery_ratio);
    for (const auto& p : rows[i]) {
      row.emplace_back(p.results.mean_delay_minutes);
    }
    for (const auto& p : rows[i]) {
      row.emplace_back(p.results.forwardings_per_delivery);
    }
    // Ungated: B-SUB custody moved on rounding ties (EXPERIMENTS.md).
    row.emplace_back(rows[i][1].tie_transfers);
    t.row(std::move(row));
  }
  return done[reality] = std::move(t);
}

/// Figs. 7-8: the table and the shape gates both figures share.
const Table& ttl_figure(Report& r, bool reality) {
  const Table& t = r.tables.emplace_back(ttl_table(reality));
  const char* all = "TTL 10-1200 min";
  const Series push = t.col("push_delivery"), bsub = t.col("bsub_delivery");
  const Series pull = t.col("pull_delivery");
  const Series push_fwd = t.col("push_fwd"), bsub_fwd = t.col("bsub_fwd");
  const Series pull_fwd = t.col("pull_fwd");
  r.gate("delivery_push_ge_bsub", "delivery PUSH >= B-SUB [min difference]",
         all, min_of(minus(push, bsub)), ">=", 0);
  r.gate("delivery_bsub_gt_pull", "delivery B-SUB > PULL [min difference]",
         all, min_of(minus(bsub, pull)), ">", 0);
  r.gate("fwd_push_5x_bsub", "PUSH forwards >= 5x B-SUB [min ratio]", all,
         min_of(over(push_fwd, bsub_fwd)), ">=", 5);
  r.gate("fwd_bsub_gt_pull", "forwardings B-SUB > PULL [min difference]", all,
         min_of(minus(bsub_fwd, pull_fwd)), ">", 0);
  r.gate("fwd_pull_one", "PULL forwards once per delivery [max |PULL - 1|]",
         all, std::max(max_of(pull_fwd) - 1, 1 - min_of(pull_fwd)), "==", 0);
  // The mean delay averages only delivered messages, so a short TTL keeps
  // only the fast deliveries; the order holds from 300 min (row 4) on.
  const Series push_delay = from(t.col("push_delay_min"), 4);
  const Series bsub_delay = from(t.col("bsub_delay_min"), 4);
  const Series pull_delay = from(t.col("pull_delay_min"), 4);
  r.gate("delay_push_le_bsub", "delay PUSH <= B-SUB [min difference, min]",
         "TTL 300-1200 min", min_of(minus(bsub_delay, push_delay)), ">=", 0);
  r.gate("delay_bsub_le_pull", "delay B-SUB <= PULL [min difference, min]",
         "TTL 300-1200 min", min_of(minus(pull_delay, bsub_delay)), ">=", 0);
  return t;
}

void fig7_haggle(Report& r) {
  const Table& t = ttl_figure(r, false);
  // The paper's headline "B-SUB is only slightly lower than PUSH" holds on
  // this trace at the longest TTL (Reality reaches 0.71 of PUSH there).
  const double bsub = t.col("bsub_delivery").back();
  r.gate("bsub_near_push", "B-SUB delivers >= 90% of PUSH [ratio]",
         "TTL 1200 min", bsub / t.col("push_delivery").back(), ">=", 0.9);
}

void fig8_reality(Report& r) {
  const Table& t = ttl_figure(r, true);
  // Section VII-B: the Reality trace is sparser, so it delivers less.
  double gap = 1.0;
  for (const char* key : {"push_delivery", "bsub_delivery", "pull_delivery"}) {
    gap = std::min(gap, min_of(minus(ttl_table(false).col(key), t.col(key))));
  }
  r.gate("below_haggle", "Reality delivers less than Haggle [min difference]",
         "TTL 10-1200 min, each protocol", gap, ">", 0);
}

// --- Fig. 9: B-SUB over the decaying factor, and trace density ---------------

void fig9_df_sweep(Report& r) {
  const util::Time ttl = 20 * util::kHour;
  const std::vector<double> dfs = {0.0, 0.05, 0.138, 0.25, 0.5, 1.0, 1.5, 2.0};
  // EXPERIMENTS.md blames trace density for the flat (b)/(c) panels and the
  // low broker share. The density axis tests that: the haggle preset at 1/d
  // of its contacts, at five of the DF points.
  const std::vector<std::uint64_t> divisors = {1, 2, 4, 8};
  const std::vector<double> density_dfs = {0.0, 0.05, 0.25, 1.0, 2.0};
  std::vector<Scenario> scenarios = {haggle_scenario(), reality_scenario()};
  for (std::uint64_t d : divisors) {
    auto cfg = trace::haggle_infocom06_config(kExperimentSeed);
    cfg.contact_count /= d;
    scenarios.emplace_back(cfg);
  }
  std::vector<workload::Workload> workloads;
  std::vector<std::pair<std::size_t, double>> points;  // scenario, DF
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    workloads.push_back(scenarios[s].make_workload(ttl));
    for (double df : s < 2 ? dfs : density_dfs) points.emplace_back(s, df);
  }
  const std::vector<ProtocolRun> runs =
      util::parallel_map(points, [&](const auto& p) {
        core::BsubConfig cfg;
        cfg.df_per_minute = p.second;
        return run_bsub(scenarios[p.first], workloads[p.first], cfg);
      });

  std::vector<Series> delivery, fpr;  // per trace
  std::size_t i = 0;
  for (std::size_t s = 0; s < 2; ++s) {
    Table& t = r.table(
        scenarios[s].trace.name() + ", TTL 20 h",
        {{"df_per_minute", "DF(/min)", 3}, {"delivery", "delivery", 3},
         {"delay_min", "delay(min)", 1}, {"fwd_per_delivery", "fwd/deliv", 2},
         {"relay_fpr", "relay FPR", 4}, {"delivered_fpr", "deliv FPR", 4},
         {"tie_transfers", "tie moves"}});
    for (double df : dfs) {
      const ProtocolRun& run = runs[i++];
      // Ungated: custody moved on rounding ties; DF 0 has no decay base.
      t.row({df, run.results.delivery_ratio, run.results.mean_delay_minutes,
             run.results.forwardings_per_delivery, run.relay_fpr,
             run.results.false_positive_rate, run.tie_transfers});
    }
    delivery.push_back(t.col("delivery"));
    fpr.push_back(t.col("relay_fpr"));
  }
  Table& dense = r.table(
      "haggle preset at 1/d of its contacts, TTL 20 h",
      {{"density", "density"}, {"contacts", "contacts"},
       {"df_per_minute", "DF(/min)", 2}, {"delivery", "delivery", 3},
       {"fwd_per_delivery", "fwd/deliv", 2}, {"relay_fpr", "relay FPR", 4}});
  Table& effect = r.table(
      "density effect",
      {{"density", "density"}, {"brokers_pct", "brokers %", 1},
       {"relay_fpr_drop_pct", "relay FPR drop DF 0->2 %", 1}});
  for (std::size_t d = 0; d < divisors.size(); ++d) {
    const std::string label = d == 0 ? "1" : "1/" + std::to_string(divisors[d]);
    const std::size_t first = i;
    for (double df : density_dfs) {
      const ProtocolRun& run = runs[i++];
      dense.row({label, scenarios[2 + d].trace.contacts().size(), df,
                 run.results.delivery_ratio,
                 run.results.forwardings_per_delivery, run.relay_fpr});
    }
    effect.row({label, 100.0 * runs[first].broker_fraction,
                100.0 * (1 - runs[i - 1].relay_fpr / runs[first].relay_fpr)});
  }

  const char* both = "DF 0-2/min, both traces, TTL 20 h";
  r.gate("delivery_df0_highest", "DF 0 delivers most [min margin]", both,
         std::min(delivery[0][0] - max_of(from(delivery[0], 1)),
                  delivery[1][0] - max_of(from(delivery[1], 1))),
         ">", 0);
  r.gate("relay_fpr_below_eq1", "relay FPR <= Eq. 1 at 38 keys [max]", both,
         std::max(max_of(fpr[0]), max_of(fpr[1])), "<=",
         bloom::false_positive_rate(38, {256, 4}));
  r.gate("relay_fpr_never_rises", "relay FPR never rises with DF [max step]",
         both, std::max(max_of(steps(fpr[0])), max_of(steps(fpr[1]))), "<=", 0);
  r.gate("relay_fpr_falls_reality", "relay FPR falls >= 20% [DF 2 / DF 0]",
         "reality, TTL 20 h", fpr[1].back() / fpr[1].front(), "<=", 0.8);
  r.gate("relay_fpr_flat_haggle", "relay FPR is flat [1 - DF 2 / DF 0]",
         "haggle, TTL 20 h", 1 - fpr[0].back() / fpr[0].front(), "<=", 0.05);
  const Series brokers = effect.col("brokers_pct");
  r.gate("sparse_more_brokers", "sparser traces elect more brokers [gain]",
         "haggle at 1/4, 1/8 vs 1",
         std::min(brokers[2], brokers[3]) - brokers[0], ">", 0);
  r.gate("sparse_fpr_drop_grows", "relay FPR drop grows as contacts thin "
         "[min step, pts]", "haggle at 1, 1/2, 1/4, 1/8",
         min_of(steps(effect.col("relay_fpr_drop_pct"))), ">", 0);
}

// --- ablations and extensions (haggle trace, TTL 10 h, unless stated) --------

void ablation_merge(Report& r) {
  const Scenario s = haggle_scenario();
  const workload::Workload w = s.make_workload(kTenHours);
  Table& t = r.table(
      "Fig. 6: broker relay merge mode (haggle-infocom06-like, TTL 10 h)",
      {{"merge", "merge"}, {"delivery", "delivery", 3},
       {"delay_min", "delay(min)", 1}, {"fwd_per_delivery", "fwd/deliv", 2},
       {"max_counter", "max counter", 0}, {"mean_counter", "mean counter", 0}});
  for (core::BrokerMergeMode mode :
       {core::BrokerMergeMode::kMMerge, core::BrokerMergeMode::kAMerge}) {
    core::BsubConfig cfg = bsub_config_for(s, kTenHours);
    cfg.broker_merge = mode;
    core::BsubProtocol proto(cfg);
    const metrics::RunResults res = sim::Simulator().run(s.trace, w, proto);
    // Counter inflation at the end of the run: Fig. 6's pathology is
    // A-merged counters growing without bound between brokers that meet.
    double max_counter = 0.0, sum = 0.0;
    std::size_t set_bits = 0;
    for (trace::NodeId n = 0; n < s.trace.node_count(); ++n) {
      const auto& relay = proto.interests().relay_snapshot(n);
      for (std::size_t b : relay.set_bits()) {
        max_counter = std::max(max_counter, relay.counter(b));
        sum += relay.counter(b);
        ++set_bits;
      }
    }
    t.row({std::string(mode == core::BrokerMergeMode::kMMerge ? "M-merge"
                                                              : "A-merge"),
           res.delivery_ratio, res.mean_delay_minutes,
           res.forwardings_per_delivery, max_counter,
           set_bits ? sum / static_cast<double>(set_bits) : 0.0});
  }
  const Series max_counter = t.col("max_counter");
  const double ceiling = bloom::kCounterSaturation;
  r.gate("a_merge_saturates", "A-merge reaches the counter ceiling [max]",
         "end of run", max_counter[1], ">=", ceiling);
  r.gate("m_merge_bounded", "M-merge stays 6 orders below it [max]",
         "end of run", max_counter[0], "<=", 1e-6 * ceiling);
}

void ablation_brokers(Report& r) {
  const Scenario s = haggle_scenario();
  const workload::Workload w = s.make_workload(kTenHours);
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> settings = {
      {1, 2}, {2, 3}, {3, 5}, {5, 8}, {8, 12}};
  // Each setting with reverse-path gating on (the default) and off.
  std::vector<std::pair<std::size_t, bool>> jobs;
  for (std::size_t i = 0; i < settings.size(); ++i) {
    jobs.emplace_back(i, true);
    jobs.emplace_back(i, false);
  }
  const std::vector<ProtocolRun> runs =
      util::parallel_map(jobs, [&](const auto& job) {
        core::BsubConfig cfg = bsub_config_for(s, kTenHours);
        cfg.broker_lower = settings[job.first].first;
        cfg.broker_upper = settings[job.first].second;
        cfg.relay_gated_delivery = job.second;
        return run_bsub(s, w, cfg);
      });
  Table& t = r.table(
      "section V-B: election thresholds (haggle, TTL 10 h, W = 5 h)",
      {{"lower", "Bl"}, {"upper", "Bu"}, {"brokers_pct", "brokers %", 1},
       {"delivery", "delivery", 3}, {"delay_min", "delay(min)", 1},
       {"fwd_per_delivery", "fwd/deliv", 2},
       {"ungated_delivery", "ungated dlv", 3},
       {"ungated_fwd_per_delivery", "ungated fwd", 2}});
  for (std::size_t i = 0; i < settings.size(); ++i) {
    const ProtocolRun& gated = runs[2 * i];
    const metrics::RunResults& res = gated.results;
    const metrics::RunResults& ungated = runs[2 * i + 1].results;
    t.row({settings[i].first, settings[i].second,
           100.0 * gated.broker_fraction, res.delivery_ratio,
           res.mean_delay_minutes, res.forwardings_per_delivery,
           ungated.delivery_ratio, ungated.forwardings_per_delivery});
  }
  const char* range = "(Bl, Bu) from (1, 2) to (8, 12)";
  const Series brokers = t.col("brokers_pct");
  const Series gap = minus(t.col("delivery"), t.col("ungated_delivery"));
  r.gate("share_rises", "higher thresholds, more brokers [min step, pts]",
         range, min_of(steps(brokers)), ">", 0);
  r.gate("share_spans_paper", "the paper's ~30% brokers is reached [max %]",
         range, max_of(brokers), ">=", 30);
  r.gate("delivery_falls", "more brokers deliver less [max step]", range,
         max_of(steps(t.col("delivery"))), "<", 0);
  r.gate("fwd_rises", "more brokers forward more per delivery [min step]",
         range, min_of(steps(t.col("fwd_per_delivery"))), ">", 0);
  // With W = TTL a relay key outlives every copy picked up under it, so
  // gating never withholds one: it cannot be why more brokers deliver less.
  r.gate("gating_inert", "relay gating moves no delivery [max |gated - "
         "ungated|]", range, std::max(max_of(gap), -min_of(gap)), "==", 0);
}

void ablation_copies(Report& r) {
  const Scenario s = haggle_scenario();
  const workload::Workload w = s.make_workload(kTenHours);
  const std::vector<std::uint64_t> budgets = {1, 2, 3, 5, 8};
  const auto runs = util::parallel_map(budgets, [&](std::uint64_t copies) {
    core::BsubConfig cfg = bsub_config_for(s, kTenHours);
    cfg.copy_limit = static_cast<std::uint32_t>(copies);
    return std::pair{
        run_bsub(s, w, cfg).results,
        run_spec(s, w, "SPRAY:copies=" + std::to_string(copies)).results};
  });
  Table& t = r.table(
      "section V-D: copy limit C (haggle-infocom06-like, TTL 10 h)",
      {{"copies", "copies"}, {"bsub_delivery", "B-SUB dlv", 3},
       {"spray_delivery", "SPRAY dlv", 3}, {"bsub_delay_min", "B-SUB delay", 1},
       {"spray_delay_min", "SPRAY delay", 1}, {"bsub_fwd", "B-SUB fwd", 2},
       {"spray_fwd", "SPRAY fwd", 2}});
  for (std::size_t i = 0; i < budgets.size(); ++i) {
    const auto& [b, sp] = runs[i];
    t.row({budgets[i], b.delivery_ratio, sp.delivery_ratio,
           b.mean_delay_minutes, sp.mean_delay_minutes,
           b.forwardings_per_delivery, sp.forwardings_per_delivery});
  }
  const char* range = "copies 1-8, B-SUB and SPRAY";
  const Series bsub = t.col("bsub_delivery"), spray = t.col("spray_delivery");
  const Series added = steps(t.col("copies"));
  r.gate("delivery_grows", "delivery grows with the budget [min step]", range,
         std::min(min_of(steps(bsub)), min_of(steps(spray))), ">", 0);
  // How the delivery bought per added copy changes from budget to budget.
  auto gain = [&](const Series& d) { return steps(over(steps(d), added)); };
  r.gate("diminishing_returns", "each copy buys less [max step of gain/copy]",
         range, std::max(max_of(gain(bsub)), max_of(gain(spray))), "<", 0);
  // SPRAY's last hop reads the consumer's true interest for free, so this
  // compares B-SUB against an oracle-assisted baseline (ROADMAP).
  r.gate("spray_delivers_more", "SPRAY delivers more [min SPRAY - B-SUB]",
         range, min_of(minus(spray, bsub)), ">", 0);
  r.gate("spray_forwards_less", "SPRAY forwards less [min B-SUB - SPRAY]",
         range, min_of(minus(t.col("bsub_fwd"), t.col("spray_fwd"))), ">", 0);
}

void ablation_bandwidth(Report& r) {
  const Scenario s = haggle_scenario();
  const workload::Workload w = s.make_workload(kTenHours);
  const std::vector<std::string> specs = {
      "PUSH", core::bsub_spec(bsub_config_for(s, kTenHours)), "PULL"};
  const std::vector<double> budgets = {50.0, 200.0, 1000.0, 31250.0};
  const auto runs = util::parallel_map(budgets, [&](double bps) {
    sim::SimulatorConfig scfg;
    scfg.bandwidth_bytes_per_second = bps;
    std::vector<metrics::RunResults> out;
    for (const std::string& spec : specs) {
      out.push_back(
          sim::Simulator(scfg).run(s.trace, w, protocol_registry(), spec));
    }
    return out;
  });
  Table& t = r.table(
      "section VII-A: link budget (haggle, TTL 10 h; paper: 31250 B/s)",
      {{"bytes_per_second", "B/s", 0}, {"push_delivery", "PUSH dlv", 3},
       {"bsub_delivery", "B-SUB dlv", 3}, {"pull_delivery", "PULL dlv", 3},
       {"push_control_mb", "PUSH ctl MB", 2},
       {"bsub_control_mb", "B-SUB ctl MB", 2},
       {"pull_control_mb", "PULL ctl MB", 2}});
  for (std::size_t i = 0; i < budgets.size(); ++i) {
    std::vector<Cell> row = {budgets[i]};
    for (const auto& p : runs[i]) row.emplace_back(p.delivery_ratio);
    for (const auto& p : runs[i]) row.emplace_back(p.control_bytes / 1e6);
    t.row(std::move(row));
  }
  auto loss = [&](const char* key) {  // delivery at 31250 minus at 50 B/s
    return t.col(key).back() - t.col(key).front();
  };
  const Series bsub = t.col("bsub_delivery");
  const double next = std::max(loss("bsub_delivery"), loss("pull_delivery"));
  r.gate("push_loses_most", "PUSH loses the most [margin over the next]",
         "31250 -> 50 B/s", loss("push_delivery") - next, ">", 0);
  r.gate("bsub_keeps_delivering", "B-SUB keeps its delivery [50 / 31250 B/s]",
         "31250 -> 50 B/s", bsub.front() / bsub.back(), ">=", 0.95);
}

void ablation_multikey(Report& r) {
  const Scenario s = haggle_scenario();
  const std::vector<std::uint64_t> per_node = {1, 2, 4, 8};
  const auto runs = util::parallel_map(per_node, [&](std::uint64_t k) {
    workload::WorkloadConfig wcfg;
    wcfg.ttl = kTenHours;
    wcfg.seed = kExperimentSeed + 1;
    wcfg.interests_per_node = static_cast<std::uint32_t>(k);
    const workload::Workload w(s.trace, s.keys, wcfg);
    return std::pair{run_bsub(s, w, bsub_config_for(s, kTenHours)),
                     static_cast<double>(w.expected_deliveries()) /
                         static_cast<double>(w.messages().size())};
  });
  Table& t = r.table(
      "section V-A: interests per node (haggle-infocom06-like, TTL 10 h)",
      {{"interests", "interests"}, {"delivery", "delivery", 3},
       {"delay_min", "delay(min)", 1}, {"fwd_per_delivery", "fwd/deliv", 2},
       {"relay_fpr", "relay FPR", 4}, {"expected_per_msg", "expected/msg", 1}});
  for (std::size_t i = 0; i < per_node.size(); ++i) {
    const auto& [run, expected] = runs[i];
    t.row({per_node[i], run.results.delivery_ratio,
           run.results.mean_delay_minutes, run.results.forwardings_per_delivery,
           run.relay_fpr, expected});
  }
  const char* range = "1-8 interests per node";
  r.gate("subscribers_grow", "more subscribers per message [min step]", range,
         min_of(steps(t.col("expected_per_msg"))), ">", 0);
  r.gate("relay_fpr_does_not_fall", "relay FPR never falls [min step]", range,
         min_of(steps(t.col("relay_fpr"))), ">=", 0);
}

/// Forwards every call to B-SUB and records, after each contact, the DF in
/// force at each endpoint that is a broker and that broker's online N (the
/// distinct peers in its election window, which Eq. 4/5 read). The
/// simulator runs it serially: it is not parallel-safe.
class DfProbe final : public sim::Protocol {
 public:
  explicit DfProbe(core::BsubProtocol& inner) : inner_(inner) {}

  using sim::Protocol::on_start;
  void on_start(const sim::ScenarioInfo& scenario,
                const workload::Workload& workload,
                metrics::Collector& collector) override {
    inner_.on_start(scenario, workload, collector);
  }
  void on_message_created(const workload::Message& msg,
                          util::Time now) override {
    inner_.on_message_created(msg, now);
  }
  void on_contact(trace::NodeId a, trace::NodeId b, util::Time now,
                  util::Time duration, sim::Link& link) override {
    inner_.on_contact(a, b, now, duration, link);
    for (trace::NodeId n : {a, b}) {
      if (!inner_.election().is_broker(n)) continue;
      df.push_back(inner_.interests().node_df(n));
      online_n.push_back(
          static_cast<double>(inner_.election().degree(n, now)));
    }
  }
  void on_end(util::Time now) override { inner_.on_end(now); }
  const char* name() const override { return inner_.name(); }

  Series df, online_n;  ///< one entry per broker endpoint of a contact

 private:
  core::BsubProtocol& inner_;
};

double mean_of(const Series& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// Nearest-rank quantile q of `v`.
double quantile(Series v, double q) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

void ablation_adaptive_df(Report& r) {
  const std::vector<Scenario> scenarios = {haggle_scenario(),
                                           reality_scenario()};
  const std::vector<std::pair<std::size_t, bool>> jobs = {
      {0, false}, {0, true}, {1, false}, {1, true}};  // scenario, adaptive
  struct Run {
    ProtocolRun run;
    Series df = {}, online_n = {};  ///< adaptive: at each broker contact
  };
  const std::vector<Run> runs = util::parallel_map(jobs, [&](const auto& job) {
    const Scenario& s = scenarios[job.first];
    core::BsubConfig cfg = bsub_config_for(s, kTenHours);
    if (!job.second) return Run{run_bsub(s, s.make_workload(kTenHours), cfg)};
    cfg.adaptive_df = true;
    cfg.df_window = kTenHours;
    core::BsubProtocol bsub(cfg);
    DfProbe probe(bsub);
    Run out;
    out.run.results =
        sim::Simulator().run(s.trace, s.make_workload(kTenHours), probe);
    out.run.relay_fpr = bsub.measured_relay_fpr();
    out.run.broker_fraction = bsub.election().broker_fraction();
    out.df = std::move(probe.df);
    out.online_n = std::move(probe.online_n);
    return out;
  });
  Table& t = r.table(
      "section VII-B: offline Eq. 5 DF vs per-broker online DF, TTL = W = 10 h",
      {{"trace", "trace"}, {"df_mode", "DF mode"}, {"delivery", "delivery", 3},
       {"delay_min", "delay(min)", 1}, {"fwd_per_delivery", "fwd/deliv", 2},
       {"relay_fpr", "relay FPR", 4}});
  Table& in_force = r.table(
      "online DF in force at broker contacts vs Eq. 5 (N: keys per window)",
      {{"trace", "trace"}, {"broker_contacts", "broker contacts"},
       {"eq5_n", "Eq.5 N", 1}, {"online_n", "online N mean", 1},
       {"eq5_df", "Eq.5 DF", 4}, {"df_mean", "DF mean", 4},
       {"df_p90", "DF p90", 4}, {"df_max", "DF max", 4}});
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Scenario& s = scenarios[jobs[i].first];
    const metrics::RunResults& res = runs[i].run.results;
    t.row({s.trace.name(), std::string(jobs[i].second ? "adaptive" : "fixed"),
           res.delivery_ratio, res.mean_delay_minutes,
           res.forwardings_per_delivery, runs[i].run.relay_fpr});
    if (!jobs[i].second) continue;
    const core::BsubConfig cfg;
    const core::DfEstimate eq5 = core::compute_df(
        s.trace, kTenHours, cfg.filter_params, cfg.initial_counter);
    const Series& df = runs[i].df;
    in_force.row({s.trace.name(), std::uint64_t{df.size()},
                  eq5.keys_per_window, mean_of(runs[i].online_n),
                  eq5.df_per_minute, mean_of(df), quantile(df, 0.9),
                  max_of(df)});
  }
  const Series d = t.col("delivery");
  const Series fixed = {d[0], d[2]}, online = {d[1], d[3]};
  r.gate("online_below_offline", "online DF delivers less [min difference]",
         "both traces", min_of(minus(fixed, online)), ">", 0);
  r.gate("online_keeps_80pct", "online DF keeps >= 80% [min online/offline]",
         "both traces", min_of(over(online, fixed)), ">=", 0.8);
  // Brokers are the busy nodes, and they re-derive the DF at their busiest:
  // the N in force is several times Eq. 5's, which raises the DF it yields.
  r.gate("online_n_above_eq5", "brokers' online N exceeds Eq. 5's N [min "
         "ratio]", "broker contacts, both traces",
         min_of(over(in_force.col("online_n"), in_force.col("eq5_n"))), ">",
         1);
  r.gate("df_in_force_above_eq5", "the mean DF in force exceeds Eq. 5's "
         "[min ratio]", "broker contacts, both traces",
         min_of(over(in_force.col("df_mean"), in_force.col("eq5_df"))), ">",
         1);
}

void engine_overhead(Report& r) {
  // A conference-scale (but sub-Table-I) scenario keeps the run short.
  trace::SyntheticTraceConfig tcfg;
  tcfg.node_count = 40;
  tcfg.contact_count = 10000;
  tcfg.duration = util::kDay;
  tcfg.seed = kExperimentSeed;
  const Scenario s(tcfg);
  const workload::Workload w = s.make_workload(8 * util::kHour);
  const core::BsubConfig cfg = bsub_config_for(s, 8 * util::kHour);
  core::BsubProtocol proto(cfg);
  const metrics::RunResults sim_r = sim::Simulator().run(s.trace, w, proto);
  engine::NodeConfig node_cfg;
  node_cfg.df_per_minute = cfg.df_per_minute;
  const engine::TraceRunResults eng_r =
      engine::TraceRunner(node_cfg, {cfg.broker_lower, cfg.broker_upper,
                                     cfg.election_window})
          .run(s.trace, w);
  const double contacts = static_cast<double>(s.trace.contacts().size());
  const auto sim_bytes =
      static_cast<double>(sim_r.message_bytes + sim_r.control_bytes);
  const auto eng_bytes = static_cast<double>(eng_r.bytes_used);
  Table& t = r.table(
      "live engine vs simulator: " + std::to_string(s.trace.node_count()) +
          " nodes, " + std::to_string(s.trace.contacts().size()) +
          " contacts, " + std::to_string(w.messages().size()) +
          " messages, TTL 8 h",
      {{"substrate", "substrate"}, {"delivery", "delivery", 3},
       {"delay_min", "delay(min)", 1},
       {"bytes_per_contact", "bytes/contact", 1},
       {"bytes_per_delivery", "bytes/delivery", 1},
       {"frames_per_contact", "frames/contact", 1}});
  t.row({std::string("simulator"), sim_r.delivery_ratio,
         sim_r.mean_delay_minutes, sim_bytes / contacts,
         sim_bytes / static_cast<double>(sim_r.interested_deliveries),
         std::string("-")});
  t.row({std::string("live engine"), eng_r.delivery_ratio,
         eng_r.mean_delay_minutes, eng_bytes / contacts,
         eng_bytes / static_cast<double>(eng_r.deliveries),
         static_cast<double>(eng_r.frames_delivered) / contacts});
  const Series bytes = t.col("bytes_per_contact");
  const Series delivery = t.col("delivery");
  // Frame headers, checksums, custody acks and re-offers to consumers that
  // are already served (nodes keep no per-peer delivery memory).
  r.gate("bytes_single_digit_factor", "engine bytes/contact within 10x [ratio]",
         "40 nodes", bytes[1] / bytes[0], "<", 10);
  r.gate("delivery_agrees", "the substrates agree [|delivery difference|]",
         "40 nodes", std::abs(delivery[1] - delivery[0]), "<=", 0.15);
  const double budget = s.trace.stats().mean_contact_duration_s *
                        sim::kDefaultBandwidthBytesPerSecond;
  r.gate("under_contact_budget", "engine bytes/contact [share of a contact "
         "at 31250 B/s]", "40 nodes", bytes[1] / budget, "<", 0.001);
}

// --- the registry ------------------------------------------------------------

/// Runs in this order: the harness experiments first, so they fork their
/// points while the process is still small.
const std::vector<std::pair<const char*, void (*)(Report&)>> kExperiments = {
    {"matrix", matrix}, {"fleet", fleet}, {"scale_sweep", scale_sweep},
    {"table1_traces", table1_traces}, {"table2_keys", table2_keys},
    {"fpr_theory", fpr_theory}, {"memory_comparison", memory_comparison},
    {"tcbf_allocation", tcbf_allocation}, {"fig7_haggle", fig7_haggle},
    {"fig8_reality", fig8_reality}, {"fig9_df_sweep", fig9_df_sweep},
    {"ablation_merge", ablation_merge}, {"ablation_brokers", ablation_brokers},
    {"ablation_copies", ablation_copies},
    {"ablation_bandwidth", ablation_bandwidth},
    {"ablation_multikey", ablation_multikey},
    {"ablation_adaptive_df", ablation_adaptive_df},
    {"engine_overhead", engine_overhead}};

/// Writes BENCH_paper.json into the working directory: how the run was made,
/// then one point per table row and gate.
void write_bench_json(bool smoke, double wall_seconds,
                      const std::vector<std::string>& points) {
  std::FILE* f = std::fopen("BENCH_paper.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write BENCH_paper.json\n");
    return;
  }
  std::fprintf(f,
               "{\"bench\": \"paper\", \"smoke\": %s, \"threads\": %zu, "
               "\"wall_seconds\": %.3f, \"points\": %s}\n",
               smoke ? "true" : "false", util::default_thread_count(),
               wall_seconds, points_json(points).c_str());
  std::fclose(f);
  std::printf("\n[paper] %.2fs wall on %zu thread(s) -> BENCH_paper.json\n",
              wall_seconds, util::default_thread_count());
}

}  // namespace
}  // namespace bsub::bench

int main(int argc, char** argv) {
  using namespace bsub::bench;
  bool smoke = false;
  std::vector<bool> named(kExperiments.size(), false);
  bool any_named = false;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--smoke") == 0) {
      smoke = true;
      continue;
    }
    std::size_t e = 0;
    while (e < kExperiments.size() &&
           std::strcmp(argv[a], kExperiments[e].first) != 0) {
      ++e;
    }
    if (e == kExperiments.size()) {
      std::fprintf(stderr, "bsub_paper: unknown experiment '%s'; usage: "
                           "bsub_paper [--smoke] [experiment...] from:\n",
                   argv[a]);
      for (const auto& x : kExperiments) std::fprintf(stderr, " %s", x.first);
      std::fprintf(stderr, "\n");
      return 2;
    }
    named[e] = any_named = true;
  }

  WallTimer wall;
  std::vector<std::string> points;
  std::vector<Gate> failed;
  std::size_t experiments = 0;
  std::size_t gates = 0;
  for (std::size_t e = 0; e < kExperiments.size(); ++e) {
    if (any_named && !named[e]) continue;
    const auto& [name, run] = kExperiments[e];
    print_header(name);
    std::fflush(stdout);
    WallTimer timer;
    Report report{name, smoke};
    run(report);
    for (const Table& t : report.tables) print_table(t);
    std::printf("\n");
    for (const Gate& g : report.gates) {
      print_gate(g);
      if (!g.pass()) failed.push_back(g);
    }
    ++experiments;
    gates += report.gates.size();
    std::printf("[%s] %.2fs wall\n", name, timer.seconds());
    append_points(report, points);
  }
  write_bench_json(smoke, wall.seconds(), points);

  print_header("Gate summary");
  for (const Gate& g : failed) print_gate(g);
  std::printf("%zu experiment(s), %zu gate(s): %zu passed, %zu failed\n",
              experiments, gates, gates - failed.size(), failed.size());
  return failed.empty() ? 0 : 1;
}
