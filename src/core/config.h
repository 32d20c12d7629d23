// Tunable parameters of B-SUB (paper sections V-VII).
#pragma once

#include <cstdint>

#include "bloom/bloom_params.h"
#include "bloom/tcbf.h"
#include "util/time.h"

namespace bsub::core {

/// How brokers combine each other's relay filters.
enum class BrokerMergeMode {
  kMMerge,  ///< paper's choice: max-merge, avoids bogus counters (Fig. 6)
  kAMerge,  ///< ablation: additive merge, exhibits the Fig. 6 feedback loop
};

struct BsubConfig {
  /// Filter geometry; paper uses 256 bits x 4 hashes.
  bloom::BloomParams filter_params{256, 4};

  /// Initial counter value C; paper uses 50.
  double initial_counter = 50.0;

  /// Decaying factor, counter units per minute. 0 disables decay (interests
  /// never leave relay filters). Typically computed from Eq. 5 via
  /// `compute_df`.
  double df_per_minute = 0.1;

  /// Maximum broker copies per message, the paper's C-limit of 3. Direct
  /// producer-to-consumer deliveries are not counted.
  std::uint32_t copy_limit = 3;

  /// Broker-election thresholds B_l / B_u (paper uses 3 and 5) and window.
  std::uint32_t broker_lower = 3;
  std::uint32_t broker_upper = 5;
  util::Time election_window = 5 * util::kHour;

  /// Relay-filter combination between brokers (M-merge per the paper; the
  /// A-merge setting exists for the bogus-counter ablation).
  BrokerMergeMode broker_merge = BrokerMergeMode::kMMerge;

  /// Reverse-path gating (paper section V-C): a broker offers a carried
  /// message to a consumer only while its own relay filter still contains
  /// the message's key — the "delivery tree" is found "with the guidance of
  /// the stored bloom filters in the brokers". Once the interest decays out
  /// of the relay, the route is gone and the copy goes stale. This is what
  /// couples the decaying factor to delivery ratio, delay, and forwardings
  /// (Fig. 9); disable to let brokers offer every buffered message.
  bool relay_gated_delivery = true;

  /// When true, each broker re-derives its own DF online from the number of
  /// distinct nodes it meets in the election window (the online estimation
  /// the paper sketches in section VII-B), instead of the global
  /// df_per_minute. The interest-removal horizon used is `df_window`.
  bool adaptive_df = false;
  util::Time df_window = 10 * util::kHour;
};

}  // namespace bsub::core
