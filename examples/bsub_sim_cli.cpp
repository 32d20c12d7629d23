// bsub_sim: a command-line experiment runner over the full library.
//
// Compose any scenario from the shell:
//
//   bsub_sim [--trace haggle|reality|FILE] [--protocol bsub|push|pull|spray]
//            [--ttl-min N] [--df X | --df auto | --df adaptive]
//            [--copies N] [--interests N] [--seed N] [--bandwidth BPS]
//            [--merge m|a] [--no-relay-gating]
//
// Prints a machine-greppable "key value" report. Examples:
//
//   bsub_sim --trace haggle --protocol bsub --ttl-min 600 --df auto
//   bsub_sim --trace reality --protocol push --ttl-min 120
//   bsub_sim --trace mytrace.txt --protocol spray --copies 5
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>

#include "core/bsub_protocol.h"
#include "core/df_tuning.h"
#include "routing/pull.h"
#include "routing/push.h"
#include "routing/spray.h"
#include "sim/simulator.h"
#include "trace/synthetic.h"
#include "trace/trace_io.h"
#include "workload/workload.h"

#include "tool_cli.h"

namespace {

using namespace bsub;

struct Options {
  std::string trace = "haggle";
  std::string protocol = "bsub";
  double ttl_min = 600;
  std::string df = "auto";  // number | "auto" | "adaptive"
  double df_per_minute = 0.0;  // the number, when df is one
  std::uint32_t copies = 3;
  std::uint32_t interests = 1;
  std::uint64_t seed = 2010;
  double bandwidth = sim::kDefaultBandwidthBytesPerSecond;
  core::BrokerMergeMode merge = core::BrokerMergeMode::kMMerge;
  bool relay_gating = true;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--trace haggle|reality|FILE] [--protocol "
      "bsub|push|pull|spray]\n"
      "          [--ttl-min N] [--df X|auto|adaptive] [--copies N]\n"
      "          [--interests N] [--seed N] [--bandwidth BPS] [--merge m|a]\n"
      "          [--no-relay-gating]\n",
      argv0);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        usage(argv[0]);
      }
      return argv[++i];
    };
    // Strict numbers: a malformed value prints the usage and exits 2
    // instead of running with a prefix ("10s" as 10), a wrapped sign ("-1"
    // as 2^32 - 1) or garbage read as 0.
    auto integer = [&](const char* flag, std::uint64_t max) {
      std::uint64_t v = 0;
      if (!tools::parse_u64(need(flag), v) || v > max) {
        std::fprintf(stderr, "bad value for %s\n", flag);
        usage(argv[0]);
      }
      return v;
    };
    constexpr std::uint64_t kU32Max = std::numeric_limits<std::uint32_t>::max();
    auto positive = [&](const char* flag) {
      double v = 0.0;
      if (!tools::parse_double(need(flag), v) || v <= 0) {
        std::fprintf(stderr, "%s must be a number > 0\n", flag);
        usage(argv[0]);
      }
      return v;
    };
    if (!std::strcmp(argv[i], "--trace")) {
      opt.trace = need("--trace");
    } else if (!std::strcmp(argv[i], "--protocol")) {
      opt.protocol = need("--protocol");
    } else if (!std::strcmp(argv[i], "--ttl-min")) {
      opt.ttl_min = positive("--ttl-min");
    } else if (!std::strcmp(argv[i], "--df")) {
      opt.df = need("--df");
      if (opt.df != "auto" && opt.df != "adaptive" &&
          !(tools::parse_double(opt.df, opt.df_per_minute) &&
            opt.df_per_minute >= 0)) {
        std::fprintf(stderr, "--df must be a number >= 0, auto or adaptive\n");
        usage(argv[0]);
      }
    } else if (!std::strcmp(argv[i], "--copies")) {
      opt.copies = static_cast<std::uint32_t>(integer("--copies", kU32Max));
    } else if (!std::strcmp(argv[i], "--interests")) {
      opt.interests =
          static_cast<std::uint32_t>(integer("--interests", kU32Max));
    } else if (!std::strcmp(argv[i], "--seed")) {
      opt.seed = integer("--seed", std::numeric_limits<std::uint64_t>::max());
    } else if (!std::strcmp(argv[i], "--bandwidth")) {
      opt.bandwidth = positive("--bandwidth");
    } else if (!std::strcmp(argv[i], "--merge")) {
      const std::string m = need("--merge");
      if (m != "m" && m != "a") {
        std::fprintf(stderr, "--merge must be m or a\n");
        usage(argv[0]);
      }
      opt.merge = m == "a" ? core::BrokerMergeMode::kAMerge
                           : core::BrokerMergeMode::kMMerge;
    } else if (!std::strcmp(argv[i], "--no-relay-gating")) {
      opt.relay_gating = false;
    } else if (!std::strcmp(argv[i], "--help")) {
      usage(argv[0]);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      usage(argv[0]);
    }
  }
  if (opt.copies == 0 || opt.interests == 0) {
    std::fprintf(stderr, "copies and interests must be positive\n");
    usage(argv[0]);
  }
  return opt;
}

trace::ContactTrace load(const Options& opt) {
  if (opt.trace == "haggle") {
    return trace::generate_trace(trace::haggle_infocom06_config(opt.seed));
  }
  if (opt.trace == "reality") {
    return trace::generate_trace(trace::mit_reality_config(opt.seed));
  }
  return trace::load_trace(opt.trace);
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);

  trace::ContactTrace t;
  try {
    t = load(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error loading trace: %s\n", e.what());
    return 1;
  }

  const workload::KeySet keys = workload::twitter_trend_keys();
  workload::WorkloadConfig wcfg;
  wcfg.ttl = util::from_minutes(opt.ttl_min);
  wcfg.interests_per_node = opt.interests;
  wcfg.seed = opt.seed + 1;
  const workload::Workload w(t, keys, wcfg);

  sim::SimulatorConfig scfg;
  scfg.bandwidth_bytes_per_second = opt.bandwidth;
  sim::Simulator sim(scfg);

  std::unique_ptr<sim::Protocol> protocol;
  core::BsubProtocol* bsub = nullptr;
  double df_used = 0.0;
  if (opt.protocol == "push") {
    protocol = std::make_unique<routing::PushProtocol>();
  } else if (opt.protocol == "pull") {
    protocol = std::make_unique<routing::PullProtocol>();
  } else if (opt.protocol == "spray") {
    protocol = std::make_unique<routing::SprayProtocol>(opt.copies);
  } else if (opt.protocol == "bsub") {
    core::BsubConfig cfg;
    cfg.copy_limit = opt.copies;
    cfg.broker_merge = opt.merge;
    cfg.relay_gated_delivery = opt.relay_gating;
    if (opt.df == "auto") {
      cfg.df_per_minute = core::compute_df(t, wcfg.ttl, cfg.filter_params,
                                           cfg.initial_counter)
                              .df_per_minute;
    } else if (opt.df == "adaptive") {
      cfg.adaptive_df = true;
      cfg.df_window = wcfg.ttl;
    } else {
      cfg.df_per_minute = opt.df_per_minute;
    }
    df_used = cfg.df_per_minute;
    auto owned = std::make_unique<core::BsubProtocol>(cfg);
    bsub = owned.get();
    protocol = std::move(owned);
  } else {
    std::fprintf(stderr, "unknown protocol: %s\n", opt.protocol.c_str());
    return 2;
  }

  const metrics::RunResults r = sim.run(t, w, *protocol);

  std::printf("trace                 %s\n", t.name().c_str());
  std::printf("protocol              %s\n", protocol->name());
  std::printf("nodes                 %zu\n", t.node_count());
  std::printf("contacts              %zu\n", t.contacts().size());
  std::printf("messages              %llu\n",
              static_cast<unsigned long long>(r.messages_created));
  std::printf("ttl_minutes           %.0f\n", opt.ttl_min);
  if (bsub != nullptr) {
    std::printf("df_per_minute         %s\n",
                opt.df == "adaptive" ? "adaptive"
                                     : std::to_string(df_used).c_str());
  }
  std::printf("delivery_ratio        %.4f\n", r.delivery_ratio);
  std::printf("mean_delay_minutes    %.1f\n", r.mean_delay_minutes);
  std::printf("median_delay_minutes  %.1f\n", r.median_delay_minutes);
  std::printf("forwardings           %llu\n",
              static_cast<unsigned long long>(r.forwardings));
  std::printf("forwardings_per_deliv %.2f\n", r.forwardings_per_delivery);
  std::printf("false_positive_rate   %.4f\n", r.false_positive_rate);
  std::printf("message_bytes         %llu\n",
              static_cast<unsigned long long>(r.message_bytes));
  std::printf("control_bytes         %llu\n",
              static_cast<unsigned long long>(r.control_bytes));
  if (bsub != nullptr) {
    std::printf("brokers               %zu\n",
                bsub->election().broker_count());
    std::printf("relay_fpr             %.4f\n", bsub->measured_relay_fpr());
    std::printf("false_injections      %llu\n",
                static_cast<unsigned long long>(bsub->false_injections()));
  }
  return 0;
}
