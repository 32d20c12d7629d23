// B-SUB's entry in the protocol registry, plus the aggregate table every
// runtime surface (Simulator runs, TraceRunner, bsub_node, bsub_scale,
// bench_matrix) resolves protocol specs against.
//
// The spec <-> BsubConfig mapping is exact in both directions:
// `make(bsub_spec(cfg))` reconstructs `cfg` bit-for-bit (doubles are
// emitted with %.17g, so strtod round-trips them), which is what lets
// benches that compute a DF analytically hand the resulting config through
// the registry without perturbing results.
#pragma once

#include <string>

#include "core/config.h"
#include "sim/protocol_registry.h"

namespace bsub::core {

/// Adds B-SUB (alias "bsub") to `registry`.
///
/// Accepted parameters (all optional, defaults = BsubConfig{}):
///   m=<u32 >= 8>           filter bits            k=<u32 >= 1>   hashes
///   counter=<double > 0>   initial counter C      df=<double >= 0>
///   copies=<u32 >= 1>      broker copy limit      bl=<u32>  bu=<u32 >= bl>
///   window_ms=<u64 >= 1>   election window        merge=<m|a>
///   gated=<bool>           relay-gated delivery   adaptive=<bool>
///   df_window_ms=<u64 >= 1>
void register_bsub_protocol(sim::ProtocolRegistry& registry);

/// The full table: B-SUB + the routing baselines (PUSH, PULL, SPRAY).
sim::ProtocolRegistry make_protocol_registry();

/// Parses a B-SUB spec (`bsub` / `B-SUB` with the parameters above) into a
/// BsubConfig. Throws util::ConfigError if the spec names any other
/// protocol — callers that can only run B-SUB (the frame-driven engine and
/// the live node runtime) use this to fail loudly on e.g. `--protocol push`.
BsubConfig bsub_config_from_spec(const sim::ProtocolSpec& spec);
BsubConfig bsub_config_from_spec(std::string_view spec);

/// Canonical spec string reproducing `config` exactly through
/// bsub_config_from_spec / the registry factory. Defaulted fields are
/// omitted, so BsubConfig{} renders as just "B-SUB".
std::string bsub_spec(const BsubConfig& config);

}  // namespace bsub::core
