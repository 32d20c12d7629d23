// Registration of the baseline routing protocols (PUSH, PULL, SPRAY)
// into a sim::ProtocolRegistry. The registry mechanism lives in sim/; this
// unit owns the baseline entries so their parameter surfaces stay next to
// the implementations they configure. B-SUB registers from core
// (core::register_bsub_protocol); core::make_protocol_registry() aggregates
// both into the full table.
#pragma once

#include "sim/protocol_registry.h"

namespace bsub::routing {

/// Adds PUSH, PULL, and SPRAY to `registry`.
///
/// Accepted parameters (all optional):
///   PUSH:  none
///   PULL:  none
///   SPRAY: copies=<u32 >= 1>          spray budget L (default 3)
void register_baseline_protocols(sim::ProtocolRegistry& registry);

}  // namespace bsub::routing
