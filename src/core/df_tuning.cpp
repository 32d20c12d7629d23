#include "core/df_tuning.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/binomial.h"

namespace bsub::core {

double estimate_keys_per_window(const trace::ContactTrace& trace,
                                util::Time window) {
  assert(window > 0);
  if (trace.empty() || trace.node_count() == 0) return 0.0;
  const util::Time start = trace.start_time();
  // end > start: the trace keeps only contacts that end after they start.
  const util::Time end = trace.end_time();
  const std::size_t nodes = trace.node_count();
  // Tumbling windows [start + i*window, start + (i+1)*window) up to `end`;
  // a contact belongs to the window its start falls in, so the
  // start-sorted contacts are one pass, window by window. A window's
  // distinct pairs come from sort + unique, and a node's degree is the
  // number of those pairs it is in.
  const auto windows = static_cast<std::size_t>((end - start - 1) / window) + 1;
  std::vector<std::uint64_t> pairs;
  std::vector<std::uint32_t> degree(nodes, 0);
  double total = 0.0;
  auto close_window = [&] {
    std::sort(pairs.begin(), pairs.end());
    pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
    for (const std::uint64_t p : pairs) {
      ++degree[p >> 32];
      ++degree[p & 0xFFFFFFFFu];
    }
    // Summed window by window in node order, the order of one
    // degrees_in_window call per window, so the DF is bit-identical to
    // that definition. A window no contact starts in adds only zeros and
    // is skipped.
    for (std::uint32_t& d : degree) {
      total += static_cast<double>(d);
      d = 0;
    }
    pairs.clear();
  };
  std::size_t current = 0;
  for (const trace::Contact& c : trace.contacts()) {
    const auto w = static_cast<std::size_t>((c.start - start) / window);
    if (w != current) {
      close_window();
      current = w;
    }
    pairs.push_back(std::uint64_t{c.a} << 32 | c.b);
  }
  close_window();
  return total / static_cast<double>(windows * nodes);
}

DfEstimate compute_df_from_keys(double keys_per_window, util::Time window,
                                bloom::BloomParams params,
                                double initial_counter,
                                double delta_per_minute) {
  assert(window > 0 && initial_counter > 0.0);
  DfEstimate est;
  est.keys_per_window = keys_per_window;
  const double p =
      static_cast<double>(params.k) / static_cast<double>(params.m);
  est.expected_min_increment = util::expected_min_binomial(
      static_cast<std::uint64_t>(std::llround(std::max(0.0, keys_per_window))),
      p, params.k);
  const double window_minutes = util::to_minutes(window);
  est.df_per_minute =
      initial_counter * (1.0 + est.expected_min_increment) / window_minutes +
      delta_per_minute;
  return est;
}

DfEstimate compute_df(const trace::ContactTrace& trace, util::Time window,
                      bloom::BloomParams params, double initial_counter,
                      double delta_per_minute) {
  return compute_df_from_keys(estimate_keys_per_window(trace, window), window,
                              params, initial_counter, delta_per_minute);
}

double OnlineDfController::observe(double measured_fpr) {
  // A higher DF removes interests sooner, lowering the filter load and the
  // FPR; so raise DF when the FPR is high, lower it when there is headroom.
  if (measured_fpr > target_fpr_) {
    df_ *= factor_;
  } else if (measured_fpr < target_fpr_ * 0.5) {
    df_ /= factor_;
  }
  return df_;
}

}  // namespace bsub::core
