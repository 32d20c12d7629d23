// Dense eager TCBF: the oracle for bloom::Tcbf and its kernels.
//
// A verbatim port of the pre-optimization Tcbf: one dense counter array,
// and every operation sweeps it eagerly — decay subtracts step by step,
// merges visit all m slots, queries hash the key string. bloom::Tcbf (lazy
// decay base, occupancy bitmap, sparse-walk / dense-sweep merges) must
// observe exactly the same state.
//
// Exactness condition: the lazy representation folds a *sum* of decay
// amounts into one subtraction, while this oracle subtracts step by step.
// Comparisons are bit-exact when every decay amount is dyadic (a multiple
// of 0.25) and counters stay dyadic rationals of modest magnitude, so every
// intermediate value is exactly representable and (a - x) - y == a - (x + y)
// holds bit for bit.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "bloom/bloom_params.h"
#include "bloom/tcbf.h"
#include "util/hash.h"

namespace bsub::testing {

class DenseRefTcbf {
 public:
  DenseRefTcbf(bloom::BloomParams params, double initial_counter)
      : params_(params),
        initial_counter_(initial_counter),
        counters_(params.m, 0.0) {}

  void insert(std::string_view key) {
    const util::HashPair hp = util::hash_pair(key);
    for (std::uint32_t i = 0; i < params_.k; ++i) {
      double& c = counters_[util::km_index(hp, i, params_.m)];
      if (c == 0.0) c = initial_counter_;
    }
  }

  void a_merge(const DenseRefTcbf& other) {
    for (std::size_t i = 0; i < counters_.size(); ++i) {
      counters_[i] = std::min(counters_[i] + other.counters_[i],
                              bloom::kCounterSaturation);
    }
  }

  void m_merge(const DenseRefTcbf& other) {
    for (std::size_t i = 0; i < counters_.size(); ++i) {
      counters_[i] = std::max(counters_[i], other.counters_[i]);
    }
  }

  void decay(double amount) {
    if (amount == 0.0) return;
    for (double& c : counters_) {
      if (c > 0.0) c = std::max(0.0, c - amount);
    }
  }

  bool contains(std::string_view key) const {
    const util::HashPair hp = util::hash_pair(key);
    for (std::uint32_t i = 0; i < params_.k; ++i) {
      if (counters_[util::km_index(hp, i, params_.m)] <= 0.0) return false;
    }
    return true;
  }

  std::optional<double> min_counter(std::string_view key) const {
    const util::HashPair hp = util::hash_pair(key);
    double min_c = 0.0;
    bool first = true;
    for (std::uint32_t i = 0; i < params_.k; ++i) {
      const double c = counters_[util::km_index(hp, i, params_.m)];
      if (c <= 0.0) return std::nullopt;
      min_c = first ? c : std::min(min_c, c);
      first = false;
    }
    return min_c;
  }

  std::size_t popcount() const {
    std::size_t n = 0;
    for (double c : counters_) n += (c > 0.0);
    return n;
  }

  std::vector<std::size_t> set_bits() const {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < counters_.size(); ++i) {
      if (counters_[i] > 0.0) out.push_back(i);
    }
    return out;
  }

  const std::vector<double>& counters() const { return counters_; }

 private:
  bloom::BloomParams params_;
  double initial_counter_;
  std::vector<double> counters_;
};

/// The preferential query (paper section IV-A) on the oracle: c_b - c_f
/// when the key exists in f, else c_b (an absent minimum counts as 0).
inline double preference(const DenseRefTcbf& b, const DenseRefTcbf& f,
                         std::string_view key) {
  const double cb = b.min_counter(key).value_or(0.0);
  const std::optional<double> cf = f.min_counter(key);
  return cf.has_value() ? cb - *cf : cb;
}

}  // namespace bsub::testing
