#include "core/protocol_registry.h"

#include <cctype>
#include <cstdio>
#include <memory>

#include "core/bsub_protocol.h"
#include "routing/registry.h"

namespace bsub::core {

namespace {

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

BsubConfig config_from_params(sim::ProtocolParams& params) {
  BsubConfig cfg;
  cfg.filter_params.m = params.get_u32("m", static_cast<std::uint32_t>(
                                               cfg.filter_params.m),
                                       8);
  cfg.filter_params.k = params.get_u32("k", cfg.filter_params.k, 1);
  cfg.initial_counter = params.get_double("counter", cfg.initial_counter, 0.0);
  if (cfg.initial_counter <= 0.0) {
    params.reject("counter", "initial counter must be > 0");
  }
  cfg.df_per_minute = params.get_double("df", cfg.df_per_minute, 0.0);
  cfg.copy_limit = params.get_u32("copies", cfg.copy_limit, 1);
  cfg.broker_lower = params.get_u32("bl", cfg.broker_lower, 0);
  cfg.broker_upper = params.get_u32("bu", cfg.broker_upper, 0);
  if (cfg.broker_upper < cfg.broker_lower) {
    params.reject("bu", "broker upper threshold must be >= bl");
  }
  cfg.election_window = static_cast<util::Time>(params.get_u64(
      "window_ms", static_cast<std::uint64_t>(cfg.election_window), 1));
  const std::string merge = params.get_string(
      "merge", cfg.broker_merge == BrokerMergeMode::kMMerge ? "m" : "a");
  if (iequals(merge, "m")) {
    cfg.broker_merge = BrokerMergeMode::kMMerge;
  } else if (iequals(merge, "a")) {
    cfg.broker_merge = BrokerMergeMode::kAMerge;
  } else {
    params.reject("merge", "merge must be 'm' (M-merge) or 'a' (A-merge)");
  }
  cfg.relay_gated_delivery =
      params.get_bool("gated", cfg.relay_gated_delivery);
  cfg.adaptive_df = params.get_bool("adaptive", cfg.adaptive_df);
  cfg.df_window = static_cast<util::Time>(params.get_u64(
      "df_window_ms", static_cast<std::uint64_t>(cfg.df_window), 1));
  return cfg;
}

/// %.17g: shortest form is not needed, exactness is — 17 significant digits
/// guarantee strtod reads back the identical double.
std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void register_bsub_protocol(sim::ProtocolRegistry& registry) {
  registry.add({
      "B-SUB",
      {"bsub"},
      "the paper's TCBF-guided pub-sub protocol (brokers, relay filters, "
      "decaying interests)",
      [](sim::ProtocolParams& params) -> std::unique_ptr<sim::Protocol> {
        return std::make_unique<BsubProtocol>(config_from_params(params));
      },
  });
}

sim::ProtocolRegistry make_protocol_registry() {
  sim::ProtocolRegistry registry;
  register_bsub_protocol(registry);
  routing::register_baseline_protocols(registry);
  return registry;
}

BsubConfig bsub_config_from_spec(const sim::ProtocolSpec& spec) {
  if (!iequals(spec.name, "B-SUB") && !iequals(spec.name, "bsub")) {
    throw util::ConfigError(
        "protocol '" + spec.name + "' cannot be mapped to a B-SUB config",
        "protocol", "this surface runs only B-SUB (spec name bsub/B-SUB)");
  }
  sim::ProtocolParams params(spec);
  BsubConfig cfg = config_from_params(params);
  params.finish();
  return cfg;
}

BsubConfig bsub_config_from_spec(std::string_view spec) {
  return bsub_config_from_spec(sim::ProtocolSpec::parse(spec));
}

std::string bsub_spec(const BsubConfig& config) {
  const BsubConfig defaults;
  sim::ProtocolSpec spec;
  spec.name = "B-SUB";
  auto add = [&spec](const char* key, std::string value) {
    spec.params.emplace_back(key, std::move(value));
  };
  if (config.filter_params.m != defaults.filter_params.m) {
    add("m", std::to_string(config.filter_params.m));
  }
  if (config.filter_params.k != defaults.filter_params.k) {
    add("k", std::to_string(config.filter_params.k));
  }
  if (config.initial_counter != defaults.initial_counter) {
    add("counter", fmt_double(config.initial_counter));
  }
  if (config.df_per_minute != defaults.df_per_minute) {
    add("df", fmt_double(config.df_per_minute));
  }
  if (config.copy_limit != defaults.copy_limit) {
    add("copies", std::to_string(config.copy_limit));
  }
  if (config.broker_lower != defaults.broker_lower) {
    add("bl", std::to_string(config.broker_lower));
  }
  if (config.broker_upper != defaults.broker_upper) {
    add("bu", std::to_string(config.broker_upper));
  }
  if (config.election_window != defaults.election_window) {
    add("window_ms", std::to_string(config.election_window));
  }
  if (config.broker_merge != defaults.broker_merge) {
    add("merge", config.broker_merge == BrokerMergeMode::kMMerge ? "m" : "a");
  }
  if (config.relay_gated_delivery != defaults.relay_gated_delivery) {
    add("gated", config.relay_gated_delivery ? "1" : "0");
  }
  if (config.adaptive_df != defaults.adaptive_df) {
    add("adaptive", config.adaptive_df ? "1" : "0");
  }
  if (config.df_window != defaults.df_window) {
    add("df_window_ms", std::to_string(config.df_window));
  }
  return spec.str();
}

}  // namespace bsub::core
