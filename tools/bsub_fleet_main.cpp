// bsub_fleet: thousands of live B-SUB nodes from one command line.
//
// Runs one fleet point (synthetic community trace + workload) through the
// fleet runtime on either engine:
//
//   # deterministic loopback replay, checked bit-for-bit against the
//   # engine harness
//   bsub_fleet --nodes 1000 --contacts 8000 --threads 2 --differential
//
//   # real time over one UDP socket per shard
//   bsub_fleet --mode udp --nodes 256 --contacts 2000 --shards 2
#include <cstdio>
#include <cstring>
#include <string>

#include "fleet_common.h"
#include "net/fleet/fleet_runtime.h"
#include "resource_stats.h"
#include "tool_cli.h"
#include "util/errors.h"

namespace {

using namespace bsub;
using namespace bsub::bench;

constexpr std::uint64_t kDefaultSeed = 2010;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --nodes N              fleet size (default 1000)\n"
      "  --contacts C           contact events (default 8000)\n"
      "  --messages M           workload messages (default 200)\n"
      "  --seed S               scenario seed (default %llu)\n"
      "  --mode loopback|udp    engine (default loopback)\n"
      "  --threads T            loopback reactor threads (0 = auto)\n"
      "  --shards K             udp reactor threads / shard sockets "
      "(default 2)\n"
      "  --base-port P          first UDP port; shard s binds P + s\n"
      "                         (default 47000)\n"
      "  --protocol SPEC        B-SUB spec, e.g. bsub:df=0.5,copies=5\n"
      "                         (default: DF tuned from the trace)\n"
      "  --differential         loopback only: also run the engine harness\n"
      "                         and require bit-identical, non-empty\n"
      "                         results (a point that delivers nothing\n"
      "                         compares nothing and fails)\n"
      "  --list-protocols       print the protocol registry and exit\n",
      argv0, static_cast<unsigned long long>(kDefaultSeed));
  return 2;
}

struct Options {
  FleetPoint point;
  std::uint64_t seed = kDefaultSeed;
  bool udp = false;
  std::uint64_t threads = 0;
  std::uint64_t shards = 2;
  std::uint64_t base_port = 47000;
  std::string protocol;
  bool differential = false;
};

bool parse_options(int argc, char** argv, Options& opts) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    auto next_u64 = [&](std::uint64_t& out) {
      const char* v = next();
      return v != nullptr && bsub::tools::parse_u64(v, out);
    };
    std::uint64_t v = 0;
    if (std::strcmp(arg, "--nodes") == 0) {
      if (!next_u64(v)) return false;
      opts.point.nodes = static_cast<std::size_t>(v);
    } else if (std::strcmp(arg, "--contacts") == 0) {
      if (!next_u64(v)) return false;
      opts.point.contacts = static_cast<std::size_t>(v);
    } else if (std::strcmp(arg, "--messages") == 0) {
      if (!next_u64(v)) return false;
      opts.point.messages = static_cast<std::size_t>(v);
    } else if (std::strcmp(arg, "--seed") == 0) {
      if (!next_u64(opts.seed)) return false;
    } else if (std::strcmp(arg, "--mode") == 0) {
      const char* m = next();
      if (!m) return false;
      if (std::strcmp(m, "loopback") == 0) {
        opts.udp = false;
      } else if (std::strcmp(m, "udp") == 0) {
        opts.udp = true;
      } else {
        return false;
      }
    } else if (std::strcmp(arg, "--threads") == 0) {
      if (!next_u64(opts.threads)) return false;
    } else if (std::strcmp(arg, "--shards") == 0) {
      if (!next_u64(opts.shards) || opts.shards == 0) return false;
    } else if (std::strcmp(arg, "--base-port") == 0) {
      if (!next_u64(opts.base_port) || opts.base_port == 0 ||
          opts.base_port > 65535) {
        return false;
      }
    } else if (std::strcmp(arg, "--protocol") == 0) {
      const char* p = next();
      if (!p) return false;
      opts.protocol = p;
    } else if (std::strcmp(arg, "--differential") == 0) {
      opts.differential = true;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--list-protocols") == 0) {
      return bsub::tools::list_protocols();
    }
  }

  using namespace bsub;
  using namespace bsub::bench;

  Options opts;
  if (!parse_options(argc, argv, opts)) return usage(argv[0]);
  if (opts.differential && opts.udp) {
    std::fprintf(stderr,
                 "bsub_fleet: --differential requires --mode loopback "
                 "(real-time runs are not bit-comparable)\n");
    return 2;
  }

  try {
    std::printf("fleet scenario: %zu nodes, %zu contacts, %zu messages, "
                "seed %llu\n",
                opts.point.nodes, opts.point.contacts, opts.point.messages,
                static_cast<unsigned long long>(opts.seed));
    const FleetScenario scenario(opts.point, opts.seed);
    net::FleetConfig cfg = make_fleet_config(scenario, opts.protocol);
    std::printf("protocol:       %s (df=%.4g/min)\n",
                opts.protocol.empty() ? "B-SUB (trace-tuned)"
                                      : opts.protocol.c_str(),
                cfg.runtime.node.df_per_minute);

    net::FleetRunResults r;
    if (opts.udp) {
      cfg.shards = static_cast<std::size_t>(opts.shards);
      cfg.udp.base_port = static_cast<std::uint16_t>(opts.base_port);
      std::printf("engine:         udp real-time, %zu shard(s)\n",
                  cfg.shards);
      net::FleetRuntime fleet(cfg);
      r = fleet.run_udp(scenario.trace, scenario.workload);
    } else {
      cfg.threads = static_cast<std::size_t>(opts.threads);
      std::printf("engine:         loopback virtual time, %s threads\n",
                  opts.threads == 0
                      ? "auto"
                      : std::to_string(opts.threads).c_str());
      net::FleetRuntime fleet(cfg);
      r = fleet.run_loopback(scenario.trace, scenario.workload);
      if (opts.differential) {
        if (!fleet_matches_engine(scenario, cfg, r.protocol)) {
          std::printf("DIFFERENTIAL FAIL\n");
          return 1;
        }
        // Matching results are equal, so zero fleet deliveries means the
        // engine harness delivered nothing either: two empty delivery logs
        // agree trivially and prove nothing.
        if (r.protocol.deliveries == 0) {
          std::printf("DIFFERENTIAL FAIL (the engine harness delivered "
                      "nothing, so there is nothing to compare)\n");
          return 1;
        }
        std::printf("DIFFERENTIAL PASS\n");
      }
    }

    std::printf("reactor threads: %zu\n", r.reactor_threads);
    std::printf("contacts:       %llu processed, %llu timed out\n",
                static_cast<unsigned long long>(r.protocol.contacts_processed),
                static_cast<unsigned long long>(r.contacts_timed_out));
    std::printf("wall seconds:   %.3f\n", r.wall_seconds);
    std::printf("contacts/sec:   %.0f\n", r.contacts_per_second);
    std::printf("deliveries:     %llu / %llu expected (ratio %.3f)\n",
                static_cast<unsigned long long>(r.protocol.deliveries),
                static_cast<unsigned long long>(
                    r.protocol.expected_deliveries),
                r.protocol.delivery_ratio);
    std::printf("frames:         %llu received, %llu retransmitted\n",
                static_cast<unsigned long long>(r.transport.frames_received),
                static_cast<unsigned long long>(
                    r.transport.frames_retransmitted));
    if (opts.udp) {
      std::printf("datagrams:      %llu out / %llu in | syscalls %llu send / "
                  "%llu recv\n",
                  static_cast<unsigned long long>(r.datagrams_out),
                  static_cast<unsigned long long>(r.datagrams_in),
                  static_cast<unsigned long long>(r.send_syscalls),
                  static_cast<unsigned long long>(r.recv_syscalls));
      std::printf("drops:          %llu sendq, %llu unroutable\n",
                  static_cast<unsigned long long>(r.sendq_drops),
                  static_cast<unsigned long long>(r.unroutable_drops));
      std::printf("latency ms:     p50 %.2f, p99 %.2f\n",
                  r.p50_delivery_latency_ms, r.p99_delivery_latency_ms);
    }
    std::printf("peak RSS:       %.1f MiB\n",
                static_cast<double>(peak_rss_bytes()) / (1 << 20));
  } catch (const bsub::util::ConfigError& e) {
    std::fprintf(stderr, "bsub_fleet: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bsub_fleet: %s\n", e.what());
    return 1;
  }
  return 0;
}
