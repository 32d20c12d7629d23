// Shared --list-protocols / --list-kernels implementations for the CLI
// tools (bsub_node, bsub_scale, bsub_fleet). One entry per stdout line so
// scripts can `tool --list-protocols | grep`; both return the process exit
// code (always 0 — an empty table would be a build error, not a runtime
// condition).
#pragma once

#include <cstdio>
#include <string>

#include "bloom/kernels.h"
#include "core/protocol_registry.h"

namespace bsub::tools {

/// Prints every registered protocol: canonical name, aliases, summary.
inline int list_protocols() {
  const sim::ProtocolRegistry registry = core::make_protocol_registry();
  for (const sim::ProtocolRegistry::Entry& e : registry.entries()) {
    std::string name = e.name;
    for (const std::string& alias : e.aliases) {
      name += " | " + alias;
    }
    std::printf("%-16s %s\n", name.c_str(), e.summary.c_str());
  }
  return 0;
}

/// Prints every TCBF kernel backend with its availability on this
/// build/CPU, marking the one dispatch resolved to.
inline int list_kernels() {
  namespace kernels = bloom::kernels;
  const kernels::Kind active = kernels::active_kind();
  for (kernels::Kind kind :
       {kernels::Kind::kScalar, kernels::Kind::kAvx2, kernels::Kind::kNeon}) {
    std::printf("%-8s %s%s\n",
                std::string(kernels::kind_name(kind)).c_str(),
                kernels::available(kind) ? "available" : "unavailable",
                kind == active ? " (active)" : "");
  }
  return 0;
}

}  // namespace bsub::tools
