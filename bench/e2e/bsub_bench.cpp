// bsub_bench: one end-to-end benchmark for B-SUB (see README.md).
//
//   bsub_bench --workload NAME|all [--seed S] [--seconds T] [--traced]
//   bsub_bench --workload all --smoke
//
// Each workload sets up its inputs several times (setup_s is the median),
// replays them once untimed to warm up, then replays them for about T
// seconds (at least two timed replays; throughput is the median replay).
// It prints `workload metric value unit` lines and, last, one JSON line
// {"correct", "attempted", "failed", "metrics"} with the end-to-end
// metrics — or, with --traced, the per-layer metrics, which come from
// traced replays interleaved with the untraced ones. End-to-end numbers
// always come from the untraced replays.
//
// Correctness gates (any failure exits 1 and reports correct=false):
//   - deliveries are positive and never exceed the expected deliveries;
//   - every replay of a deterministic workload (all but fleet-udp) agrees
//     with the first in every semantic result field, traced ones included;
//   - fleet-udp completes every contact it issues;
//   - the contact graph digest matches the recorded one (every seed), and
//     graph + workload match the recorded input digest (seed 2010 only);
//   - traced only: fleet-loopback agrees bit for bit with engine::TraceRunner
//     and city-dense at 4 threads with a serial replay.
//
// `all` runs every workload in its own forked process, so each reports
// its own peak RSS. `--smoke` runs all five at 1/20 scale, traced, for one
// second each, without the digest gate (the digests are of full scale).
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "bloom/kernels.h"
#include "bloom/tcbf_codec.h"
#include "core/bsub_protocol.h"
#include "core/df_tuning.h"
#include "engine/trace_runner.h"
#include "inputs.h"
#include "net/fleet/fleet_runtime.h"
#include "sim/simulator.h"
#include "tracing.h"

namespace {

using namespace bsub;
using namespace bsub::e2e;

enum class Kind { kHaggle, kReality, kCityDense, kFleetLoopback, kFleetUdp };

struct WorkloadSpec {
  const char* name;
  Kind kind;
  /// Recorded at full scale: the contact graph's digest (the graph does not
  /// depend on --seed) and graph + workload's digest at seed 2010.
  std::uint64_t graph_digest;
  std::uint64_t input_digest;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"haggle", Kind::kHaggle, 0x1310fcb2d6c4da6cULL, 0x8686698caf30a7d2ULL},
    {"reality", Kind::kReality, 0x077cc8c7a479160cULL, 0x1be5945e841d19a8ULL},
    {"city-dense", Kind::kCityDense, 0x8df8ab6d0ccc6061ULL,
     0x4542603c4c45f0e6ULL},
    {"fleet-loopback", Kind::kFleetLoopback, 0x2a031116962da94fULL,
     0x80d2e164a364abfdULL},
    {"fleet-udp", Kind::kFleetUdp, 0x2a031116962da94fULL,
     0x80d2e164a364abfdULL},
};

constexpr double kSmokeScale = 0.05;
/// fleet-udp binds base_port and base_port + 1 on 127.0.0.1. The smoke
/// run uses its own pair so it never collides with a benchmark run; no
/// other test or tool in the repo uses either.
constexpr std::uint16_t kUdpPort = 48300;
constexpr std::uint16_t kSmokeUdpPort = 48400;

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"events_per_s", "1/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"delivery_ratio", "ratio"},
};

/// Per-layer metrics of a traced run, every one reported on every
/// workload; a layer a workload does not exercise reads 0 (see README.md).
constexpr MetricDef kPerLayer[] = {
    {"trace.generate_s", "s"},
    {"trace.next_s", "s"},
    {"trace.next_ns", "ns"},
    {"trace.contacts", "count"},
    {"workload.build_s", "s"},
    {"workload.messages", "count"},
    {"workload.expected_deliveries", "count"},
    {"core.df_tune_s", "s"},
    {"core.on_contact_s", "s"},
    {"core.on_contact_calls", "count"},
    {"core.on_contact_ns_p50", "ns"},
    {"core.on_contact_ns_p99", "ns"},
    {"core.on_message_s", "s"},
    {"core.on_message_calls", "count"},
    {"core.on_start_s", "s"},
    {"core.on_end_s", "s"},
    {"core.pickups", "count"},
    {"core.broker_transfers", "count"},
    {"core.consumer_transfers", "count"},
    {"core.purge_scans_run", "count"},
    {"core.purge_scans_skipped", "count"},
    {"core.payload_copies_made", "count"},
    {"core.encode_cache_hit_frac", "ratio"},
    {"core.message_bytes_per_contact", "B"},
    {"core.control_bytes_per_contact", "B"},
    {"core.false_injections", "count"},
    {"core.relay_fpr", "ratio"},
    {"core.materialized_relays", "count"},
    {"core.relays_recycled", "count"},
    {"core.election_state_mb", "MiB"},
    {"metrics.delay_mean_min", "min"},
    {"metrics.forwardings_per_delivery", "ratio"},
    {"metrics.false_positive_rate", "ratio"},
    {"metrics.bytes_per_delivery", "B"},
    {"sim.run_s", "s"},
    {"sim.self_s", "s"},
    {"sim.windows", "count"},
    {"sim.batches", "count"},
    {"sim.inline_batch_frac", "ratio"},
    {"sim.mean_batch", "count"},
    {"sim.max_batch", "count"},
    {"sim.worker_busy_frac", "ratio"},
    {"sim.parallel_speedup", "ratio"},
    {"bloom.relay_fill", "ratio"},
    {"bloom.a_merge_ns", "ns"},
    {"bloom.m_merge_ns", "ns"},
    {"bloom.preference_ns", "ns"},
    {"bloom.contains_ns", "ns"},
    {"bloom.encode_ns", "ns"},
    {"bloom.decode_ns", "ns"},
    {"bloom.encoded_bytes", "B"},
    {"engine.trace_runner_s", "s"},
    {"engine.frames_per_contact", "ratio"},
    {"engine.frames_dropped_frac", "ratio"},
    {"engine.bytes_per_contact", "B"},
    {"net.session_overhead_s", "s"},
    {"net.send_syscalls_per_contact", "ratio"},
    {"net.recv_syscalls_per_contact", "ratio"},
    {"net.datagrams_per_syscall", "ratio"},
    {"net.datagrams_per_contact", "ratio"},
    {"net.frames_retransmitted", "count"},
    {"net.session_timeouts", "count"},
    {"net.reassembly_failures", "count"},
    {"net.datagrams_dropped", "count"},
    {"net.sendq_drops", "count"},
    {"net.unroutable_drops", "count"},
    {"net.delivery_latency_p50_ms", "ms"},
    {"net.delivery_latency_p99_ms", "ms"},
    {"net.contact_fail_frac", "ratio"},
    {"proc.user_cpu_s", "s"},
    {"proc.sys_cpu_s", "s"},
    {"proc.cpu_per_wall", "ratio"},
    {"proc.vol_ctx_switches", "count"},
    {"proc.invol_ctx_switches", "count"},
    {"proc.minor_faults", "count"},
    {"bench.trace_overhead_frac", "ratio"},
};

using Metrics = std::map<std::string, double>;

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Options {
  std::string workload;
  std::uint64_t seed = kScenarioSeed;
  double seconds = 12.0;
  bool traced = false;
  bool smoke = false;
};

// --- inputs -----------------------------------------------------------------

struct SetupTimes {
  double total_s = 0.0;
  double generate_s = 0.0;
  double df_s = 0.0;
  double build_s = 0.0;
};

/// One workload's inputs, ready to replay. Heap-held and never moved: the
/// stream may point into `trace`, the workload into `keys`.
struct Prepared {
  std::optional<trace::ContactTrace> trace;  ///< all but city-dense
  std::unique_ptr<trace::ContactStream> stream;
  workload::KeySet keys = workload::twitter_trend_keys();
  std::unique_ptr<workload::Workload> workload;
  double df_per_minute = 0.0;
  std::uint64_t contacts = 0;  ///< per replay
  std::uint64_t graph_digest = 0;
  std::uint64_t input_digest = 0;
  SetupTimes times;

  std::uint64_t events() const {
    return contacts + workload->messages().size();
  }
};

/// What city-dense's setup child learns from the materialized graph.
struct CityGraphFacts {
  double df_per_minute = 0.0;
  std::uint64_t digest = 0;
  std::uint64_t contacts = 0;
  double generate_s = 0.0;
  double df_s = 0.0;
};

/// Runs `fn` in a forked child and reads its trivially copyable result
/// back through a pipe; false if the child failed.
template <class Result, class Fn>
bool run_in_child(Fn&& fn, Result& out) {
  static_assert(std::is_trivially_copyable_v<Result>,
                "the result crosses a pipe as raw bytes");
  int fds[2];
  if (::pipe(fds) != 0) return false;
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return false;
  }
  if (pid == 0) {
    ::close(fds[0]);
    int code = 0;
    try {
      const Result r = fn();
      const char* bytes = reinterpret_cast<const char*>(&r);
      std::size_t off = 0;
      while (off < sizeof r) {
        const ssize_t n = ::write(fds[1], bytes + off, sizeof r - off);
        if (n <= 0) break;
        off += static_cast<std::size_t>(n);
      }
      if (off != sizeof r) code = 2;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "setup child: %s\n", e.what());
      code = 3;
    }
    ::close(fds[1]);
    ::_exit(code);
  }
  ::close(fds[1]);
  Result r{};
  char* bytes = reinterpret_cast<char*>(&r);
  std::size_t off = 0;
  while (off < sizeof r) {
    const ssize_t n = ::read(fds[0], bytes + off, sizeof r - off);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (off != sizeof r || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return false;
  }
  out = r;
  return true;
}

std::unique_ptr<Prepared> setup(const WorkloadSpec& spec,
                                const Options& opt) {
  const double scale = opt.smoke ? kSmokeScale : 1.0;
  const Clock::time_point start = Clock::now();
  auto p = std::make_unique<Prepared>();
  const bloom::BloomParams params = core::BsubConfig{}.filter_params;
  const double counter = core::BsubConfig{}.initial_counter;

  switch (spec.kind) {
    case Kind::kHaggle:
    case Kind::kReality: {
      Clock::time_point t = Clock::now();
      p->trace = paper_trace(spec.kind == Kind::kHaggle, scale);
      p->times.generate_s = seconds_since(t);
      t = Clock::now();
      p->df_per_minute =
          core::compute_df(*p->trace, kPaperTtl, params, counter)
              .df_per_minute;
      p->times.df_s = seconds_since(t);
      t = Clock::now();
      p->workload = std::make_unique<workload::Workload>(
          paper_workload(*p->trace, p->keys, opt.seed));
      p->times.build_s = seconds_since(t);
      break;
    }
    case Kind::kCityDense: {
      const trace::CityTraceConfig cfg = city_dense_config(scale);
      // Eq. 5 needs the materialized graph (2M contacts); a child process
      // builds it so this process's peak RSS stays the streamed run's.
      CityGraphFacts facts;
      const bool ok = run_in_child(
          [&] {
            CityGraphFacts f;
            Clock::time_point t = Clock::now();
            const std::unique_ptr<trace::ContactStream> s =
                trace::make_city_stream(cfg);
            const trace::ContactTrace graph = trace::materialize(*s);
            f.generate_s = seconds_since(t);
            t = Clock::now();
            f.df_per_minute =
                core::compute_df(graph, kScaleTtl, params, counter)
                    .df_per_minute;
            f.df_s = seconds_since(t);
            f.digest = trace_digest(graph);
            f.contacts = graph.contacts().size();
            return f;
          },
          facts);
      if (!ok) throw std::runtime_error("city-dense setup child failed");
      p->stream = trace::make_city_stream(cfg);
      p->df_per_minute = facts.df_per_minute;
      p->graph_digest = facts.digest;
      p->contacts = facts.contacts;
      p->times.generate_s = facts.generate_s;
      p->times.df_s = facts.df_s;
      const Clock::time_point t = Clock::now();
      p->workload = std::make_unique<workload::Workload>(uniform_workload(
          p->keys, cfg.node_count, static_cast<std::size_t>(800 * scale),
          static_cast<util::Time>(cfg.days) * util::kDay, opt.seed,
          0x5CA1EULL));
      p->times.build_s = seconds_since(t);
      break;
    }
    case Kind::kFleetLoopback:
    case Kind::kFleetUdp: {
      Clock::time_point t = Clock::now();
      p->trace = fleet_trace(scale);
      p->times.generate_s = seconds_since(t);
      t = Clock::now();
      p->df_per_minute =
          core::compute_df(*p->trace, kScaleTtl, params, counter)
              .df_per_minute;
      p->times.df_s = seconds_since(t);
      t = Clock::now();
      p->workload = std::make_unique<workload::Workload>(uniform_workload(
          p->keys, p->trace->node_count(),
          static_cast<std::size_t>(1000 * scale), kFleetDuration, opt.seed,
          0xF1EE7ULL));
      p->times.build_s = seconds_since(t);
      break;
    }
  }
  if (p->trace) {
    p->stream = std::make_unique<trace::MaterializedStream>(*p->trace);
    p->graph_digest = trace_digest(*p->trace);
    p->contacts = p->trace->contacts().size();
  }
  p->input_digest = Fnv64()
                        .add(p->graph_digest)
                        .add(workload_digest(*p->workload))
                        .value();
  p->times.total_s = seconds_since(start);
  return p;
}

// --- replays ----------------------------------------------------------------

/// The semantic result of a replay: what two replays of one deterministic
/// workload must agree on exactly.
struct Outcome {
  std::uint64_t expected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t false_deliveries = 0;
  std::uint64_t forwardings = 0;
  std::uint64_t message_bytes = 0;
  std::uint64_t control_bytes = 0;
  std::uint64_t contacts_processed = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t frames_dropped = 0;
  std::uint64_t bytes_used = 0;
  double delivery_ratio = 0.0;
  double delay_mean_min = 0.0;
  double delay_median_min = 0.0;
  double delay_max_min = 0.0;
  double forwardings_per_delivery = 0.0;
  double false_positive_rate = 0.0;
};

Outcome outcome_of(const metrics::RunResults& r) {
  Outcome o;
  o.expected = r.expected_deliveries;
  o.delivered = r.interested_deliveries;
  o.false_deliveries = r.false_deliveries;
  o.forwardings = r.forwardings;
  o.message_bytes = r.message_bytes;
  o.control_bytes = r.control_bytes;
  o.delivery_ratio = r.delivery_ratio;
  o.delay_mean_min = r.mean_delay_minutes;
  o.delay_median_min = r.median_delay_minutes;
  o.delay_max_min = r.max_delay_minutes;
  o.forwardings_per_delivery = r.forwardings_per_delivery;
  o.false_positive_rate = r.false_positive_rate;
  return o;
}

Outcome outcome_of(const engine::TraceRunResults& r) {
  Outcome o;
  o.expected = r.expected_deliveries;
  o.delivered = r.deliveries;
  o.contacts_processed = r.contacts_processed;
  o.frames_delivered = r.frames_delivered;
  o.frames_dropped = r.frames_dropped;
  o.bytes_used = r.bytes_used;
  o.delivery_ratio = r.delivery_ratio;
  o.delay_mean_min = r.mean_delay_minutes;
  return o;
}

/// Field-by-field, doubles bitwise; names the first differing field.
const char* outcome_mismatch(const Outcome& a, const Outcome& b) {
  const auto same = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof x) == 0;
  };
  if (a.expected != b.expected) return "expected_deliveries";
  if (a.delivered != b.delivered) return "deliveries";
  if (a.false_deliveries != b.false_deliveries) return "false_deliveries";
  if (a.forwardings != b.forwardings) return "forwardings";
  if (a.message_bytes != b.message_bytes) return "message_bytes";
  if (a.control_bytes != b.control_bytes) return "control_bytes";
  if (a.contacts_processed != b.contacts_processed) return "contacts";
  if (a.frames_delivered != b.frames_delivered) return "frames_delivered";
  if (a.frames_dropped != b.frames_dropped) return "frames_dropped";
  if (a.bytes_used != b.bytes_used) return "bytes_used";
  if (!same(a.delivery_ratio, b.delivery_ratio)) return "delivery_ratio";
  if (!same(a.delay_mean_min, b.delay_mean_min)) return "mean_delay";
  if (!same(a.delay_median_min, b.delay_median_min)) return "median_delay";
  if (!same(a.delay_max_min, b.delay_max_min)) return "max_delay";
  if (!same(a.forwardings_per_delivery, b.forwardings_per_delivery)) {
    return "forwardings_per_delivery";
  }
  if (!same(a.false_positive_rate, b.false_positive_rate)) {
    return "false_positive_rate";
  }
  return nullptr;
}

/// Timings of the public TCBF and codec calls on the relay filters a run
/// left behind: the paper's m=256 operating point at its real fill.
struct BloomProbe {
  double relay_fill = 0.0;
  double a_merge_ns = 0.0;
  double m_merge_ns = 0.0;
  double preference_ns = 0.0;
  double contains_ns = 0.0;
  double encode_ns = 0.0;
  double decode_ns = 0.0;
  double encoded_bytes = 0.0;
};

volatile double g_sink = 0.0;  // keeps probed results observable

BloomProbe probe_filters(const std::vector<const bloom::Tcbf*>& relays,
                         const workload::KeySet& keys) {
  BloomProbe out;
  if (relays.empty()) return out;
  constexpr std::size_t kOps = 2048;
  const std::size_t n = relays.size();
  const auto src = [&](std::size_t i) -> const bloom::Tcbf& {
    return *relays[i % n];
  };
  const auto other = [&](std::size_t i) -> const bloom::Tcbf& {
    return *relays[(i * 7 + 1) % n];
  };
  const auto key = [&](std::size_t i) -> const util::HashPair& {
    return keys.hash(static_cast<workload::KeyId>(i % keys.size()));
  };
  double sink = 0.0;

  for (const bloom::Tcbf* f : relays) out.relay_fill += f->fill_ratio();
  out.relay_fill /= static_cast<double>(n);

  const auto time_merges = [&](bool additive) {
    std::vector<bloom::Tcbf> dst;
    dst.reserve(kOps);
    for (std::size_t i = 0; i < kOps; ++i) dst.push_back(src(i));
    const Clock::time_point t = Clock::now();
    for (std::size_t i = 0; i < kOps; ++i) {
      if (additive) {
        dst[i].a_merge(other(i));
      } else {
        dst[i].m_merge(other(i));
      }
    }
    const double ns = static_cast<double>(ns_since(t)) / kOps;
    for (const bloom::Tcbf& f : dst) sink += static_cast<double>(f.epoch());
    return ns;
  };
  out.a_merge_ns = time_merges(true);
  out.m_merge_ns = time_merges(false);

  Clock::time_point t = Clock::now();
  for (std::size_t i = 0; i < kOps; ++i) {
    sink += bloom::preference(src(i), other(i), key(i));
  }
  out.preference_ns = static_cast<double>(ns_since(t)) / kOps;

  t = Clock::now();
  for (std::size_t i = 0; i < kOps; ++i) sink += src(i).contains(key(i));
  out.contains_ns = static_cast<double>(ns_since(t)) / kOps;

  std::vector<std::vector<std::uint8_t>> encoded(kOps);
  t = Clock::now();
  for (std::size_t i = 0; i < kOps; ++i) {
    encoded[i] = bloom::encode_tcbf(src(i), bloom::CounterEncoding::kFull);
  }
  out.encode_ns = static_cast<double>(ns_since(t)) / kOps;
  for (std::size_t i = 0; i < n; ++i) {
    out.encoded_bytes += static_cast<double>(encoded[i % kOps].size());
  }
  out.encoded_bytes /= static_cast<double>(n);

  t = Clock::now();
  for (std::size_t i = 0; i < kOps; ++i) {
    sink += bloom::decode_tcbf(encoded[i]).fill_ratio();
  }
  out.decode_ns = static_cast<double>(ns_since(t)) / kOps;
  g_sink = sink;
  return out;
}

/// Everything one replay tells us. Spans and the bloom probe are filled by
/// traced replays only.
struct Replay {
  bool traced = false;
  double seconds = 0.0;  ///< wall time of the run call
  std::uint64_t events = 0;
  std::uint64_t failed = 0;  ///< contacts timed out or never completed
  Outcome outcome;
  std::optional<metrics::RunResults> run;
  std::optional<net::FleetRunResults> fleet;
  sim::ParallelRunStats exec;
  // B-SUB protocol-core counters (simulator workloads).
  core::BsubProtocol::TrafficBreakdown traffic;
  std::uint64_t false_injections = 0;
  double relay_fpr = 0.0;
  std::uint64_t materialized_relays = 0;
  std::uint64_t relays_recycled = 0;
  std::uint64_t election_state_bytes = 0;
  // Spans.
  double trace_s = 0.0;
  std::uint64_t trace_contacts = 0;
  TimedProtocol::Totals core;
  double on_start_s = 0.0;
  double on_end_s = 0.0;
  BloomProbe bloom;
};

Replay replay_sim(Prepared& p, std::size_t threads, bool traced) {
  core::BsubConfig cfg;
  cfg.df_per_minute = p.df_per_minute;
  core::BsubProtocol bsub(cfg);
  sim::SimulatorConfig sim_cfg;
  sim_cfg.threads = threads;
  sim::Simulator simulator(sim_cfg);
  p.stream->reset();

  Replay r;
  r.traced = traced;
  TimedStream timed_stream(*p.stream);
  TimedProtocol timed_bsub(bsub, threads > 1);
  const Clock::time_point t = Clock::now();
  if (traced) {
    r.run = simulator.run(timed_stream, *p.workload, timed_bsub);
  } else {
    r.run = simulator.run(*p.stream, *p.workload, bsub);
  }
  r.seconds = seconds_since(t);
  r.exec = simulator.last_run_stats();
  r.events = r.exec.events;
  r.outcome = outcome_of(*r.run);
  r.traffic = bsub.traffic();
  r.false_injections = bsub.false_injections();
  r.relay_fpr = bsub.measured_relay_fpr();
  r.materialized_relays = bsub.interests().materialized_relays();
  r.relays_recycled = bsub.interests().relays_recycled();
  r.election_state_bytes = bsub.election().state_bytes_reserved();
  if (traced) {
    r.trace_s = timed_stream.seconds();
    r.trace_contacts = timed_stream.contacts();
    r.core = timed_bsub.totals();
    r.on_start_s = timed_bsub.start_seconds();
    r.on_end_s = timed_bsub.end_seconds();
    std::vector<const bloom::Tcbf*> relays;
    for (trace::NodeId n = 0; n < p.workload->node_count(); ++n) {
      if (!bsub.interests().relay_materialized(n)) continue;
      const bloom::Tcbf& f = bsub.interests().relay_snapshot(n);
      if (!f.empty()) relays.push_back(&f);
    }
    r.bloom = probe_filters(relays, p.keys);
  }
  return r;
}

net::FleetConfig fleet_config(const Prepared& p, bool udp,
                              std::uint16_t port) {
  net::FleetConfig cfg;
  cfg.runtime.decay_tick = 0;  // the loopback engine requires it
  cfg.runtime.node.df_per_minute = p.df_per_minute;
  if (udp) {
    cfg.shards = 2;
    cfg.udp.base_port = port;
  } else {
    cfg.threads = 2;
  }
  return cfg;
}

Replay replay_fleet(Prepared& p, bool udp, bool traced, std::uint16_t port) {
  net::FleetRuntime fleet(fleet_config(p, udp, port));
  p.stream->reset();

  Replay r;
  r.traced = traced;
  TimedStream timed_stream(*p.stream);
  trace::ContactStream& contacts =
      traced ? static_cast<trace::ContactStream&>(timed_stream) : *p.stream;
  const Clock::time_point t = Clock::now();
  r.fleet = udp ? fleet.run_udp(contacts, *p.workload)
                : fleet.run_loopback(contacts, *p.workload);
  r.seconds = seconds_since(t);
  r.exec = r.fleet->exec;
  r.events = p.events();
  r.outcome = outcome_of(r.fleet->protocol);
  if (udp) {
    r.failed = r.fleet->contacts_timed_out +
               (p.contacts - std::min(p.contacts,
                                      r.fleet->protocol.contacts_processed));
  }
  if (traced) {
    r.trace_s = timed_stream.seconds();
    r.trace_contacts = timed_stream.contacts();
    std::vector<const bloom::Tcbf*> relays;
    for (trace::NodeId n = 0; n < p.workload->node_count(); ++n) {
      const bloom::Tcbf& f = fleet.node(n).relay_filter();
      if (!f.empty()) relays.push_back(&f);
    }
    r.bloom = probe_filters(relays, p.keys);
  }
  return r;
}

Replay replay(const WorkloadSpec& spec, Prepared& p, bool traced,
              const Options& opt) {
  switch (spec.kind) {
    case Kind::kHaggle:
    case Kind::kReality:
      return replay_sim(p, 1, traced);
    case Kind::kCityDense:
      return replay_sim(p, 4, traced);
    case Kind::kFleetLoopback:
      return replay_fleet(p, false, traced, 0);
    case Kind::kFleetUdp:
      return replay_fleet(p, true, traced,
                          opt.smoke ? kSmokeUdpPort : kUdpPort);
  }
  return {};
}

// --- per-layer metrics ------------------------------------------------------

/// Layer metrics one traced replay yields.
Metrics replay_layers(const Prepared& p, const Replay& r) {
  Metrics m;
  const double contacts = static_cast<double>(p.contacts);
  m["trace.next_s"] = r.trace_s;
  m["trace.next_ns"] =
      ratio(r.trace_s * 1e9, static_cast<double>(r.trace_contacts));
  m["trace.contacts"] = static_cast<double>(r.trace_contacts);
  m["sim.run_s"] = r.seconds;
  m["sim.windows"] = static_cast<double>(r.exec.windows);
  m["sim.batches"] = static_cast<double>(r.exec.batches);
  m["sim.inline_batch_frac"] =
      ratio(static_cast<double>(r.exec.inline_batches),
            static_cast<double>(r.exec.batches));
  m["sim.mean_batch"] = ratio(static_cast<double>(r.exec.events),
                              static_cast<double>(r.exec.batches));
  m["sim.max_batch"] = static_cast<double>(r.exec.max_batch);
  m["bloom.relay_fill"] = r.bloom.relay_fill;
  m["bloom.a_merge_ns"] = r.bloom.a_merge_ns;
  m["bloom.m_merge_ns"] = r.bloom.m_merge_ns;
  m["bloom.preference_ns"] = r.bloom.preference_ns;
  m["bloom.contains_ns"] = r.bloom.contains_ns;
  m["bloom.encode_ns"] = r.bloom.encode_ns;
  m["bloom.decode_ns"] = r.bloom.decode_ns;
  m["bloom.encoded_bytes"] = r.bloom.encoded_bytes;
  m["metrics.delay_mean_min"] = r.outcome.delay_mean_min;

  if (r.run) {
    const metrics::RunResults& res = *r.run;
    const double threads =
        static_cast<double>(std::max<std::size_t>(1, r.exec.threads_used));
    const double contact_s = r.core.contact_seconds();
    const double message_s = r.core.message_seconds();
    m["core.on_contact_s"] = contact_s;
    m["core.on_contact_calls"] = static_cast<double>(r.core.contacts);
    m["core.on_contact_ns_p50"] = r.core.contact_hist.quantile(0.50);
    m["core.on_contact_ns_p99"] = r.core.contact_hist.quantile(0.99);
    m["core.on_message_s"] = message_s;
    m["core.on_message_calls"] = static_cast<double>(r.core.messages);
    m["core.on_start_s"] = r.on_start_s;
    m["core.on_end_s"] = r.on_end_s;
    m["core.pickups"] = static_cast<double>(r.traffic.pickups);
    m["core.broker_transfers"] =
        static_cast<double>(r.traffic.broker_transfers);
    m["core.consumer_transfers"] = static_cast<double>(r.traffic.deliveries);
    m["core.purge_scans_run"] =
        static_cast<double>(res.hot_path.purge_scans_run);
    m["core.purge_scans_skipped"] =
        static_cast<double>(res.hot_path.purge_scans_skipped);
    m["core.payload_copies_made"] =
        static_cast<double>(res.hot_path.payload_copies_made);
    m["core.encode_cache_hit_frac"] =
        ratio(static_cast<double>(res.hot_path.encode_cache_hits),
              static_cast<double>(res.hot_path.encode_cache_hits +
                                  res.hot_path.encode_cache_misses));
    m["core.message_bytes_per_contact"] =
        ratio(static_cast<double>(res.message_bytes), contacts);
    m["core.control_bytes_per_contact"] =
        ratio(static_cast<double>(res.control_bytes), contacts);
    m["core.false_injections"] = static_cast<double>(r.false_injections);
    m["core.relay_fpr"] = r.relay_fpr;
    m["core.materialized_relays"] = static_cast<double>(r.materialized_relays);
    m["core.relays_recycled"] = static_cast<double>(r.relays_recycled);
    m["core.election_state_mb"] =
        static_cast<double>(r.election_state_bytes) / (1 << 20);
    m["metrics.forwardings_per_delivery"] = res.forwardings_per_delivery;
    m["metrics.false_positive_rate"] = res.false_positive_rate;
    m["metrics.bytes_per_delivery"] =
        ratio(static_cast<double>(res.message_bytes + res.control_bytes),
              static_cast<double>(res.interested_deliveries +
                                  res.false_deliveries));
    // The protocol's calls run on `threads` workers at once; on_start and
    // on_end on the calling thread alone.
    m["sim.self_s"] = r.seconds - r.trace_s - r.on_start_s - r.on_end_s -
                      (contact_s + message_s) / threads;
    m["sim.worker_busy_frac"] =
        ratio(contact_s + message_s, threads * r.seconds);
  }

  if (r.fleet) {
    const net::FleetRunResults& f = *r.fleet;
    const double done = static_cast<double>(f.protocol.contacts_processed);
    m["engine.frames_per_contact"] =
        ratio(static_cast<double>(f.protocol.frames_delivered), done);
    m["engine.frames_dropped_frac"] =
        ratio(static_cast<double>(f.protocol.frames_dropped),
              static_cast<double>(f.protocol.frames_delivered +
                                  f.protocol.frames_dropped));
    m["engine.bytes_per_contact"] =
        ratio(static_cast<double>(f.protocol.bytes_used), done);
    m["metrics.bytes_per_delivery"] =
        ratio(static_cast<double>(f.protocol.bytes_used),
              static_cast<double>(f.protocol.deliveries));
    m["net.send_syscalls_per_contact"] =
        ratio(static_cast<double>(f.send_syscalls), done);
    m["net.recv_syscalls_per_contact"] =
        ratio(static_cast<double>(f.recv_syscalls), done);
    m["net.datagrams_per_syscall"] =
        ratio(static_cast<double>(f.datagrams_out + f.datagrams_in),
              static_cast<double>(f.send_syscalls + f.recv_syscalls));
    m["net.datagrams_per_contact"] =
        ratio(static_cast<double>(f.datagrams_out), done);
    m["net.frames_retransmitted"] =
        static_cast<double>(f.transport.frames_retransmitted);
    m["net.session_timeouts"] =
        static_cast<double>(f.transport.session_timeouts);
    m["net.reassembly_failures"] =
        static_cast<double>(f.transport.reassembly_failures);
    m["net.datagrams_dropped"] =
        static_cast<double>(f.transport.datagrams_dropped);
    m["net.sendq_drops"] = static_cast<double>(f.sendq_drops);
    m["net.unroutable_drops"] = static_cast<double>(f.unroutable_drops);
    m["net.delivery_latency_p50_ms"] = f.p50_delivery_latency_ms;
    m["net.delivery_latency_p99_ms"] = f.p99_delivery_latency_ms;
    m["net.contact_fail_frac"] = ratio(static_cast<double>(r.failed), contacts);
  }
  return m;
}

// --- one workload -----------------------------------------------------------

struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  double vol_ctx = 0.0;
  double invol_ctx = 0.0;
  double minor_faults = 0.0;
};

Usage usage_now() {
  struct rusage u{};
  ::getrusage(RUSAGE_SELF, &u);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return {secs(u.ru_utime), secs(u.ru_stime),
          static_cast<double>(u.ru_nvcsw), static_cast<double>(u.ru_nivcsw),
          static_cast<double>(u.ru_minflt)};
}

double peak_rss_mb() {
  struct rusage u{};
  ::getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // Linux: KiB
}

void print_metric(const WorkloadSpec& spec, const char* name, double value,
                  const char* unit) {
  std::printf("%-15s %-34s %-14.6g %s\n", spec.name, name, value, unit);
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const Metrics& values, const MetricDef* defs,
                std::size_t count) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < count; ++i) {
    const auto it = values.find(defs[i].name);
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", defs[i].name,
                it == values.end() ? 0.0 : it->second, defs[i].unit);
  }
  std::printf("}}\n");
}

/// Runs one workload end to end; returns true when every gate passed.
bool run_workload(const WorkloadSpec& spec, const Options& opt) {
  std::vector<std::string> failures;
  const auto fail = [&](std::string what) {
    std::fprintf(stderr, "%s: GATE FAILED: %s\n", spec.name, what.c_str());
    failures.push_back(std::move(what));
  };

  // Set up at least three times, up to nine while it stays cheap, and
  // report the median.
  std::unique_ptr<Prepared> p;
  std::vector<SetupTimes> setups;
  double setup_sum = 0.0;
  while (setups.size() < 3 || (setups.size() < 9 && setup_sum < 1.5)) {
    p.reset();
    p = setup(spec, opt);
    setups.push_back(p->times);
    setup_sum += p->times.total_s;
  }
  const auto setup_median = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& s : setups) v.push_back(s.*field);
    return median(v);
  };

  // Digest gate (full scale only).
  const char* digest_state = "skipped (smoke scale)";
  if (!opt.smoke) {
    if (p->graph_digest != spec.graph_digest) {
      char buf[96];
      std::snprintf(buf, sizeof buf, "graph digest %016llx != recorded",
                    static_cast<unsigned long long>(p->graph_digest));
      fail(buf);
      digest_state = "MISMATCH";
    } else if (opt.seed != kScenarioSeed) {
      digest_state = "graph ok; input skipped (seed != 2010)";
    } else if (p->input_digest != spec.input_digest) {
      char buf[96];
      std::snprintf(buf, sizeof buf, "input digest %016llx != recorded",
                    static_cast<unsigned long long>(p->input_digest));
      fail(buf);
      digest_state = "MISMATCH";
    } else {
      digest_state = "ok";
    }
  }

  // Replays: one untimed warm-up (first-touch page faults and allocator
  // growth would otherwise land on the first timed replay), then untraced
  // replays until the budget is spent; in traced mode each untraced replay
  // is followed by a traced one.
  const Clock::time_point budget_start = Clock::now();
  const Replay warmup = replay(spec, *p, false, opt);
  std::vector<Replay> plain;
  std::vector<Replay> traced;
  Usage usage;
  for (;;) {
    const Usage before = usage_now();
    plain.push_back(replay(spec, *p, false, opt));
    const Usage after = usage_now();
    usage.user_s += after.user_s - before.user_s;
    usage.sys_s += after.sys_s - before.sys_s;
    usage.vol_ctx += after.vol_ctx - before.vol_ctx;
    usage.invol_ctx += after.invol_ctx - before.invol_ctx;
    usage.minor_faults += after.minor_faults - before.minor_faults;
    double step = plain.back().seconds;
    if (opt.traced) {
      traced.push_back(replay(spec, *p, true, opt));
      step += traced.back().seconds;
    }
    // At least two timed replays; traced runs take three pairs, so the
    // overhead is a median of three same-moment comparisons.
    const std::size_t done = plain.size() + traced.size();
    if (done >= (opt.traced ? 6 : 2) &&
        seconds_since(budget_start) + step > opt.seconds) {
      break;
    }
  }
  const double rss_mb = peak_rss_mb();

  // Gates over every replay.
  const bool deterministic = spec.kind != Kind::kFleetUdp;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<const Replay*> all = {&warmup};
  for (const Replay& r : plain) all.push_back(&r);
  for (const Replay& r : traced) all.push_back(&r);
  for (const Replay* r : all) {
    attempted += r->events;
    failed += r->failed;
    if (r->outcome.delivered == 0) fail("a replay delivered nothing");
    if (r->outcome.delivered > r->outcome.expected) {
      fail("deliveries exceed expected deliveries");
    }
    if (deterministic) {
      if (const char* field = outcome_mismatch(all[0]->outcome, r->outcome)) {
        fail(std::string(r->traced ? "traced" : "untraced") +
             " replay differs from the first in " + field);
      }
    } else if (r->outcome.contacts_processed != p->contacts) {
      fail("issued contacts did not all complete");
    }
  }

  std::vector<double> eps;
  std::vector<double> run_s;
  std::vector<double> ratios;
  for (const Replay& r : plain) {
    eps.push_back(static_cast<double>(r.events) / r.seconds);
    run_s.push_back(r.seconds);
    ratios.push_back(r.outcome.delivery_ratio);
  }
  Metrics e2e;
  e2e["events_per_s"] = median(eps);
  e2e["setup_s"] = setup_median(&SetupTimes::total_s);
  e2e["peak_rss_mb"] = rss_mb;
  e2e["delivery_ratio"] = median(ratios);

  std::printf("%-15s kernel %s, %zu setups, %zu untraced + %zu traced "
              "replays, graph %016llx input %016llx: digest %s\n",
              spec.name,
              std::string(bloom::kernels::kind_name(
                              bloom::kernels::active_kind()))
                  .c_str(),
              setups.size(), plain.size(), traced.size(),
              static_cast<unsigned long long>(p->graph_digest),
              static_cast<unsigned long long>(p->input_digest), digest_state);
  std::printf("%-15s untraced replay seconds:", spec.name);
  for (double sec : run_s) std::printf(" %.3f", sec);
  std::printf("\n");
  for (const MetricDef& d : kEndToEnd) {
    print_metric(spec, d.name, e2e[d.name], d.unit);
  }

  if (!opt.traced) {
    const bool ok = failures.empty();
    print_json(ok, attempted, failed, e2e, kEndToEnd, std::size(kEndToEnd));
    return ok;
  }

  // Traced: per-layer metrics are means over the traced replays, plus the
  // setup split, the process counters of the untraced replays and the
  // workload-specific comparison runs.
  Metrics layers;
  for (const Replay& r : traced) {
    for (const auto& [name, value] : replay_layers(*p, r)) {
      layers[name] += value / static_cast<double>(traced.size());
    }
  }
  const double replays = static_cast<double>(plain.size());
  layers["trace.generate_s"] = setup_median(&SetupTimes::generate_s);
  layers["core.df_tune_s"] = setup_median(&SetupTimes::df_s);
  layers["workload.build_s"] = setup_median(&SetupTimes::build_s);
  layers["workload.messages"] =
      static_cast<double>(p->workload->messages().size());
  layers["workload.expected_deliveries"] =
      static_cast<double>(p->workload->expected_deliveries());
  layers["proc.user_cpu_s"] = usage.user_s / replays;
  layers["proc.sys_cpu_s"] = usage.sys_s / replays;
  layers["proc.cpu_per_wall"] =
      ratio(usage.user_s + usage.sys_s,
            std::accumulate(run_s.begin(), run_s.end(), 0.0));
  layers["proc.vol_ctx_switches"] = usage.vol_ctx / replays;
  layers["proc.invol_ctx_switches"] = usage.invol_ctx / replays;
  layers["proc.minor_faults"] = usage.minor_faults / replays;
  // Throughput lost to tracing. Each traced replay ran right after an
  // untraced one; comparing within pairs keeps the host's slow drift out.
  std::vector<double> overheads;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    overheads.push_back(1.0 - plain[i].seconds / traced[i].seconds);
  }
  layers["bench.trace_overhead_frac"] = median(overheads);

  if (spec.kind == Kind::kCityDense) {
    // Serial comparison replay: the parallel executor's speedup, and its
    // determinism (4 threads must equal serial bit for bit).
    const Replay serial = replay_sim(*p, 1, false);
    layers["sim.parallel_speedup"] = ratio(serial.seconds, median(run_s));
    if (const char* field =
            outcome_mismatch(serial.outcome, plain.front().outcome)) {
      fail(std::string("4-thread replay differs from serial in ") + field);
    }
    attempted += serial.events;
  }
  if (spec.kind == Kind::kFleetLoopback) {
    // The same protocol on engine::TraceRunner (no sessions, no reactor):
    // its time splits the fleet's into engine and session layers, and it
    // must agree with the fleet bit for bit.
    const net::FleetConfig cfg = fleet_config(*p, false, 0);
    engine::TraceRunnerOptions run_opts;
    run_opts.threads = cfg.threads;
    engine::TraceRunner runner(cfg.runtime.node, cfg.election,
                               cfg.bandwidth_bytes_per_second, run_opts);
    p->stream->reset();
    const Clock::time_point t = Clock::now();
    const engine::TraceRunResults expect = runner.run(*p->stream, *p->workload);
    const double runner_s = seconds_since(t);
    layers["engine.trace_runner_s"] = runner_s;
    layers["net.session_overhead_s"] = median(run_s) - runner_s;
    if (const char* field =
            outcome_mismatch(outcome_of(expect), plain.front().outcome)) {
      fail(std::string("fleet loopback differs from TraceRunner in ") +
           field);
    }
    attempted += p->events();
  }

  for (const auto& [name, value] : layers) {
    const bool known = std::any_of(
        std::begin(kPerLayer), std::end(kPerLayer),
        [&](const MetricDef& d) { return name == d.name; });
    if (!known) fail("internal: unlisted per-layer metric " + name);
  }
  for (const MetricDef& d : kPerLayer) {
    print_metric(spec, d.name, layers[d.name], d.unit);
  }
  const bool ok = failures.empty();
  print_json(ok, attempted, failed, layers, kPerLayer, std::size(kPerLayer));
  return ok;
}

/// Runs the workload, turning an exception into a failed gate.
bool run_workload_guarded(const WorkloadSpec& spec, const Options& opt) {
  try {
    return run_workload(spec, opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: FAILED: %s\n", spec.name, e.what());
    return false;
  }
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME|all [--seed S] [--seconds T] "
               "[--traced] [--smoke]\n  workloads:",
               argv0);
  for (const WorkloadSpec& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse_number(const char* s, double& out) {
  char* end = nullptr;
  out = std::strtod(s, &end);
  return end != s && *end == '\0';
}

bool parse_u64(const char* s, std::uint64_t& out) {
  if (*s < '0' || *s > '9') return false;
  char* end = nullptr;
  errno = 0;
  out = std::strtoull(s, &end, 10);
  return errno == 0 && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    double number = 0.0;
    if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value &&
               parse_u64(argv[i + 1], opt.seed)) {
      ++i;
    } else if (arg == "--seconds" && has_value &&
               parse_number(argv[i + 1], number) && number > 0) {
      opt.seconds = number;
      ++i;
    } else if (arg == "--traced") {
      opt.traced = true;
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (opt.smoke) {
    opt.traced = true;
    opt.seconds = 1.0;
  }

  if (opt.workload != "all") {
    for (const WorkloadSpec& spec : kWorkloads) {
      if (opt.workload == spec.name) {
        return run_workload_guarded(spec, opt) ? 0 : 1;
      }
    }
    return usage(argv[0]);
  }

  // Each workload in its own process: its own peak RSS, no shared state.
  bool all_ok = true;
  for (const WorkloadSpec& spec : kWorkloads) {
    std::fflush(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::perror("fork");
      return 1;
    }
    if (pid == 0) {
      const bool ok = run_workload_guarded(spec, opt);
      std::fflush(nullptr);
      ::_exit(ok ? 0 : 1);
    }
    int status = 0;
    ::waitpid(pid, &status, 0);
    const bool ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (!ok) std::fprintf(stderr, "%s: FAILED\n", spec.name);
    all_ok = all_ok && ok;
  }
  std::printf("bsub_bench: %s\n", all_ok ? "all gates passed" : "FAILED");
  return all_ok ? 0 : 1;
}
