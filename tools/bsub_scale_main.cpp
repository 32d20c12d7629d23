// bsub_scale: run one city-scale streaming point from the command line.
//
//   bsub_scale --nodes 100000 --contacts 1000000 [--seed 42] [--threads 1]
//              [--isolate]
//
// Streams a trace::make_city_stream scenario through B-SUB on the simulator
// substrate and reports wall time, event throughput, and peak RSS. With
// --isolate the point runs in a forked child so peak RSS excludes the
// parent's footprint (what bench_scale_sweep does for every point).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "scale_common.h"
#include "tool_cli.h"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--nodes N] [--contacts C] [--messages M] "
               "[--seed S] [--threads T] [--isolate] [--protocol SPEC]\n"
               "          [--list-protocols]\n"
               "  SPEC selects the routing protocol, e.g. PUSH, PULL,\n"
               "  spray:copies=8, bsub:df=0.25 (default %s)\n",
               argv0, bsub::bench::kScaleDefaultProtocol);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bsub;
  using namespace bsub::bench;

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--list-protocols") == 0) {
      return bsub::tools::list_protocols();
    }
  }

  ScalePoint point{100000, 1000000};
  std::uint64_t seed = kExperimentSeed;
  std::uint64_t threads = 1;
  bool isolate = false;
  std::string protocol = kScaleDefaultProtocol;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto next_u64 = [&](std::uint64_t& out) {
      if (i + 1 >= argc || !bsub::tools::parse_u64(argv[++i], out)) {
        usage(argv[0]);
        std::exit(2);
      }
    };
    if (std::strcmp(arg, "--nodes") == 0) {
      std::uint64_t v = 0;
      next_u64(v);
      point.nodes = static_cast<std::size_t>(v);
    } else if (std::strcmp(arg, "--contacts") == 0) {
      next_u64(point.contacts);
    } else if (std::strcmp(arg, "--messages") == 0) {
      std::uint64_t v = 0;
      next_u64(v);
      point.messages = static_cast<std::size_t>(v);
    } else if (std::strcmp(arg, "--seed") == 0) {
      next_u64(seed);
    } else if (std::strcmp(arg, "--threads") == 0) {
      next_u64(threads);
    } else if (std::strcmp(arg, "--isolate") == 0) {
      isolate = true;
    } else if (std::strcmp(arg, "--protocol") == 0) {
      if (i + 1 >= argc) {
        usage(argv[0]);
        return 2;
      }
      protocol = argv[++i];
    } else {
      usage(argv[0]);
      return 2;
    }
  }

  // Validate the spec before committing to a long run (or a fork).
  try {
    protocol_registry().make(protocol);
  } catch (const util::ConfigError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  std::printf("city scenario: %zu nodes, %llu contacts (streamed), seed %llu, "
              "%llu thread(s), protocol %s\n",
              point.nodes, static_cast<unsigned long long>(point.contacts),
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(threads), protocol.c_str());

  ScaleResult r;
  if (isolate) {
    if (!run_scale_point_isolated(point, seed,
                                  static_cast<std::size_t>(threads), r,
                                  protocol)) {
      std::fprintf(stderr, "error: isolated run failed\n");
      return 1;
    }
  } else {
    r = run_scale_point(point, seed, static_cast<std::size_t>(threads),
                        protocol);
  }

  std::printf("events:         %llu\n",
              static_cast<unsigned long long>(r.events));
  std::printf("wall seconds:   %.2f\n", r.seconds);
  std::printf("events/sec:     %.0f\n", r.events_per_sec);
  std::printf("peak RSS:       %.1f MiB\n",
              static_cast<double>(r.peak_rss_bytes) / (1 << 20));
  std::printf("bytes/node:     %.0f\n", r.bytes_per_node);
  std::printf("ever-brokers:   %llu (materialized relays)\n",
              static_cast<unsigned long long>(r.materialized_relays));
  std::printf("election state: %.1f MiB\n",
              static_cast<double>(r.election_state_bytes) / (1 << 20));
  std::printf("deliveries:     %llu (ratio %.3f)\n",
              static_cast<unsigned long long>(r.deliveries),
              r.delivery_ratio);
  std::printf("forwardings:    %llu\n",
              static_cast<unsigned long long>(r.forwardings));
  return 0;
}
