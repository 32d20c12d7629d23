// Decay-factor derivation (paper section VI-A, Eq. 4-5).
//
// The DF is chosen so that an interest inserted once drains out of a relay
// filter after the delay bound W, accounting for accidental counter
// refreshes by other keys: with N keys collected in a window and k hashes
// over m bits, each bit of a key is accidentally hit Binomial(N, k/m) times,
// and the key's lifetime follows the *minimum* across its k bits (Eq. 4).
// The expected total counter mass is C * (1 + E[min]), so (Eq. 5):
//
//     DF = C * (1 + E[min]) / W  + delta
//
// with a small safety constant delta for the cases the analysis omits
// (M-merge refreshes between brokers).
#pragma once

#include "bloom/bloom_params.h"
#include "trace/trace.h"
#include "util/time.h"

namespace bsub::core {

struct DfEstimate {
  double keys_per_window = 0.0;        ///< N: distinct nodes met in W (mean)
  double expected_min_increment = 0.0; ///< E[min] of Eq. 4
  double df_per_minute = 0.0;          ///< Eq. 5
};

/// Estimates N by averaging each node's distinct-peer count over
/// consecutive windows of length `window` across the trace (the paper
/// obtains it "by analyzing the traces").
double estimate_keys_per_window(const trace::ContactTrace& trace,
                                util::Time window);

/// Eq. 5 for a given N.
DfEstimate compute_df_from_keys(double keys_per_window, util::Time window,
                                bloom::BloomParams params,
                                double initial_counter,
                                double delta_per_minute = 0.01);

/// Eq. 5 end-to-end: estimate N from the trace, then apply Eq. 4/5.
DfEstimate compute_df(const trace::ContactTrace& trace, util::Time window,
                      bloom::BloomParams params, double initial_counter,
                      double delta_per_minute = 0.01);

}  // namespace bsub::core
