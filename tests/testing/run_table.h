// Recorded-run oracles: a protocol run's semantic results as one table row,
// compared bit for bit against rows recorded when the naive reference paths
// still lived beside the fast ones (and were proven equal to them on exactly
// these inputs). A row holds every semantic RunResults field, with doubles
// stored as their IEEE-754 bit patterns, plus B-SUB's traffic breakdown,
// false-injection count and measured relay FPR (zero for the baselines).
// Execution-shape counters (hot_path, transport) are not part of a row.
//
// On a mismatch the failure message names the differing fields and prints
// the actual row as a brace initializer. Re-recording a table is therefore
// a deliberate edit: replace the failing rows with the printed ones, and
// say in the change why the protocol's observable behavior moved.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "core/bsub_protocol.h"
#include "metrics/collector.h"

namespace bsub::testing {

struct RunRow {
  std::uint64_t seed = 0;
  std::uint64_t messages_created = 0;
  std::uint64_t expected_deliveries = 0;
  std::uint64_t interested_deliveries = 0;
  std::uint64_t false_deliveries = 0;
  std::uint64_t forwardings = 0;
  std::uint64_t message_bytes = 0;
  std::uint64_t control_bytes = 0;
  // Doubles, as bit patterns.
  std::uint64_t delivery_ratio = 0;
  std::uint64_t mean_delay_minutes = 0;
  std::uint64_t median_delay_minutes = 0;
  std::uint64_t max_delay_minutes = 0;
  std::uint64_t forwardings_per_delivery = 0;
  std::uint64_t false_positive_rate = 0;
  // B-SUB only (zero for the baselines).
  std::uint64_t pickups = 0;
  std::uint64_t broker_transfers = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t false_injections = 0;
  std::uint64_t measured_relay_fpr = 0;  ///< bit pattern
};

inline std::uint64_t bits_of(double v) {
  return std::bit_cast<std::uint64_t>(v);
}

inline RunRow row_of(std::uint64_t seed, const metrics::RunResults& r) {
  RunRow row;
  row.seed = seed;
  row.messages_created = r.messages_created;
  row.expected_deliveries = r.expected_deliveries;
  row.interested_deliveries = r.interested_deliveries;
  row.false_deliveries = r.false_deliveries;
  row.forwardings = r.forwardings;
  row.message_bytes = r.message_bytes;
  row.control_bytes = r.control_bytes;
  row.delivery_ratio = bits_of(r.delivery_ratio);
  row.mean_delay_minutes = bits_of(r.mean_delay_minutes);
  row.median_delay_minutes = bits_of(r.median_delay_minutes);
  row.max_delay_minutes = bits_of(r.max_delay_minutes);
  row.forwardings_per_delivery = bits_of(r.forwardings_per_delivery);
  row.false_positive_rate = bits_of(r.false_positive_rate);
  return row;
}

inline RunRow row_of(std::uint64_t seed, const metrics::RunResults& r,
                     const core::BsubProtocol& bsub) {
  RunRow row = row_of(seed, r);
  const core::BsubProtocol::TrafficBreakdown traffic = bsub.traffic();
  row.pickups = traffic.pickups;
  row.broker_transfers = traffic.broker_transfers;
  row.deliveries = traffic.deliveries;
  row.false_injections = bsub.false_injections();
  row.measured_relay_fpr = bits_of(bsub.measured_relay_fpr());
  return row;
}

/// (name, value) for every field, in declaration order.
inline std::array<std::pair<const char*, std::uint64_t>, 19> fields_of(
    const RunRow& r) {
  return {{{"seed", r.seed},
           {"messages_created", r.messages_created},
           {"expected_deliveries", r.expected_deliveries},
           {"interested_deliveries", r.interested_deliveries},
           {"false_deliveries", r.false_deliveries},
           {"forwardings", r.forwardings},
           {"message_bytes", r.message_bytes},
           {"control_bytes", r.control_bytes},
           {"delivery_ratio", r.delivery_ratio},
           {"mean_delay_minutes", r.mean_delay_minutes},
           {"median_delay_minutes", r.median_delay_minutes},
           {"max_delay_minutes", r.max_delay_minutes},
           {"forwardings_per_delivery", r.forwardings_per_delivery},
           {"false_positive_rate", r.false_positive_rate},
           {"pickups", r.pickups},
           {"broker_transfers", r.broker_transfers},
           {"deliveries", r.deliveries},
           {"false_injections", r.false_injections},
           {"measured_relay_fpr", r.measured_relay_fpr}}};
}

/// The row as a brace initializer, ready to paste into a table: counts in
/// decimal, bit patterns in hex.
inline std::string format_row(const RunRow& r) {
  const auto fields = fields_of(r);
  std::string out = "{";
  for (std::size_t i = 0; i < fields.size(); ++i) {
    char buf[32];
    const bool is_bits = (i >= 8 && i <= 13) || i == 18;
    std::snprintf(buf, sizeof(buf), is_bits ? "0x%016llx" : "%llu",
                  static_cast<unsigned long long>(fields[i].second));
    out += buf;
    if (i + 1 < fields.size()) {
      out += (i == 7 || i == 10 || i == 13) ? ",\n " : ", ";
    }
  }
  return out + "},";
}

/// Success iff `got` equals the recorded `want` in every field.
inline ::testing::AssertionResult matches_recorded(const RunRow& want,
                                                   const RunRow& got) {
  const auto w = fields_of(want);
  const auto g = fields_of(got);
  std::string diff;
  for (std::size_t i = 0; i < w.size(); ++i) {
    if (w[i].second != g[i].second) {
      diff += std::string(diff.empty() ? "" : ", ") + w[i].first;
    }
  }
  if (diff.empty()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "seed " << want.seed << " differs from the recorded row in: "
         << diff << "\nrecorded:\n" << format_row(want) << "\nactual:\n"
         << format_row(got);
}

}  // namespace bsub::testing
