// Shared command-line helpers for the CLI tools (bsub_node, bsub_scale,
// bsub_fleet, and the bsub_sim_cli example): the --list-protocols listing
// and strict number parsing.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

#include "core/protocol_registry.h"

namespace bsub::tools {

/// Prints every registered protocol, one per stdout line so scripts can
/// `tool --list-protocols | grep`: canonical name, aliases, summary.
/// Returns the process exit code (always 0 — an empty table would be a
/// build error, not a runtime condition).
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

/// Parses a whole string as a decimal unsigned 64-bit number. Rejects
/// empty input, signs, whitespace, trailing characters ("10s") and values
/// past 2^64 - 1, where strtoull would wrap "-1" or stop at the first
/// non-digit.
inline bool parse_u64(std::string_view s, std::uint64_t& out) {
  std::uint64_t v = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || end != s.data() + s.size()) return false;
  out = v;
  return true;
}

/// Parses a whole string as a finite decimal double. Rejects empty input,
/// whitespace, trailing characters ("10s"), "nan", "inf" and values past
/// the double range, where atof would read a prefix, or garbage as 0.
inline bool parse_double(std::string_view s, double& out) {
  double v = 0.0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || end != s.data() + s.size() || !std::isfinite(v)) {
    return false;
  }
  out = v;
  return true;
}

}  // namespace bsub::tools
