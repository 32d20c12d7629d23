#include "bloom/tcbf.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace bsub::bloom {

namespace {

/// Decay accumulates into a single double; fold it back into the array long
/// before the base could cost precision against counters <= saturation.
constexpr double kDecayBaseLimit = 1e9;

}  // namespace

Tcbf::Tcbf(BloomParams params, double initial_counter)
    : params_(params), initial_counter_(initial_counter),
      // Counters are padded to a whole number of occupancy words (64 slots =
      // 8 cache lines per word) so dense sweeps always stream full aligned
      // blocks; the padding slots stay 0.0 and never gain occupancy bits.
      raw_(((params.m + 63) / 64) * 64, 0.0),
      occupied_((params.m + 63) / 64, 0) {
  assert(params.m > 0 && params.k > 0);
  assert(initial_counter > 0.0);
}

void Tcbf::normalize() {
  if (decay_base_ == 0.0) return;  // occ bit <=> raw > 0 already holds
  kernels::normalize(mut_view(), decay_base_);
  decay_base_ = 0.0;
}

void Tcbf::insert(std::string_view key) { insert(util::hash_pair(key)); }

void Tcbf::insert(const util::HashPair& hp) {
  if (merged_) {
    throw std::logic_error(
        "Tcbf::insert: cannot insert into a merged filter; insert into a "
        "fresh TCBF and merge it in");
  }
  const double value = std::min(initial_counter_, kCounterSaturation);
  for (std::uint32_t i = 0; i < params_.k; ++i) {
    const std::size_t idx = util::km_index(hp, i, params_.m);
    if (effective(idx) <= 0.0) {
      raw_[idx] = value + decay_base_;
      mark_occupied(idx);
    }
  }
  touch();
}

void Tcbf::a_merge(const Tcbf& other) {
  if (params_ != other.params_) {
    throw std::invalid_argument("Tcbf::a_merge: parameter mismatch");
  }
  normalize();
  // Self-merge is safe: every merge reads a slot before writing it.
  kernels::a_merge(mut_view(), other.const_view(), kCounterSaturation);
  merged_ = true;
  touch();
}

void Tcbf::m_merge(const Tcbf& other) {
  if (params_ != other.params_) {
    throw std::invalid_argument("Tcbf::m_merge: parameter mismatch");
  }
  normalize();
  kernels::m_merge(mut_view(), other.const_view(), kCounterSaturation);
  merged_ = true;
  touch();
}

void Tcbf::decay(double amount) {
  assert(amount >= 0.0);
  if (amount == 0.0) return;
  if (occupied_bits_ == 0) return;  // nothing to drain; keep the base at 0
  decay_base_ += amount;
  if (decay_base_ > kDecayBaseLimit) normalize();
  touch();
}

bool Tcbf::contains(std::string_view key) const {
  return contains(util::hash_pair(key));
}

bool Tcbf::contains(const util::HashPair& hp) const {
  std::array<std::size_t, util::kMaxHashes> idx;
  for (std::uint32_t i = 0; i < params_.k; ++i) {
    idx[i] = util::km_index(hp, i, params_.m);
  }
  return kernels::contains(const_view(), idx.data(), params_.k);
}

std::optional<double> Tcbf::min_counter(std::string_view key) const {
  return min_counter(util::hash_pair(key));
}

std::optional<double> Tcbf::min_counter(const util::HashPair& hp) const {
  std::array<std::size_t, util::kMaxHashes> idx;
  for (std::uint32_t i = 0; i < params_.k; ++i) {
    idx[i] = util::km_index(hp, i, params_.m);
  }
  double out = 0.0;
  if (!kernels::min_counter(const_view(), idx.data(), params_.k, &out)) {
    return std::nullopt;
  }
  return out;
}

double Tcbf::counter(std::size_t i) const {
  assert(i < params_.m);
  return effective(i);
}

std::size_t Tcbf::popcount() const {
  return kernels::popcount(const_view());
}

double Tcbf::fill_ratio() const {
  return static_cast<double>(popcount()) / static_cast<double>(params_.m);
}

bool Tcbf::empty() const {
  return occupied_bits_ == 0 || popcount() == 0;
}

std::vector<std::size_t> Tcbf::set_bits() const {
  std::vector<std::size_t> out;
  set_bits_into(out);
  return out;
}

void Tcbf::set_bits_into(std::vector<std::size_t>& out) const {
  kernels::set_bits_into(const_view(), out);
}

BloomFilter Tcbf::to_bloom_filter() const {
  BloomFilter bf(params_);
  std::vector<std::size_t> bits;
  set_bits_into(bits);
  bf.set_bits_at(bits);
  return bf;
}

void Tcbf::clear() {
  std::fill(raw_.begin(), raw_.end(), 0.0);
  std::fill(occupied_.begin(), occupied_.end(), 0);
  occupied_bits_ = 0;
  decay_base_ = 0.0;
  merged_ = false;
  touch();
}

std::vector<double> Tcbf::counters() const {
  std::vector<double> out(params_.m, 0.0);
  std::vector<std::size_t> bits;
  set_bits_into(bits);
  for (const std::size_t i : bits) out[i] = effective(i);
  return out;
}

Tcbf Tcbf::from_counters(BloomParams params, double initial_counter,
                         std::vector<double> counters) {
  if (counters.size() != params.m) {
    throw std::invalid_argument("Tcbf::from_counters: size mismatch");
  }
  if (!std::isfinite(initial_counter) || initial_counter <= 0.0) {
    throw std::invalid_argument(
        "Tcbf::from_counters: initial counter must be finite and positive");
  }
  Tcbf t(params, initial_counter);
  // Copy into the padded aligned array (the incoming vector has the wrong
  // allocator and length to be adopted wholesale).
  for (std::size_t i = 0; i < counters.size(); ++i) {
    // Decoded state is untrusted: NaN would poison every later comparison,
    // and values past the ceiling would defeat the saturation invariant on
    // the next merge.
    if (std::isnan(counters[i])) {
      throw std::invalid_argument("Tcbf::from_counters: NaN counter");
    }
    const double v = std::clamp(counters[i], 0.0, kCounterSaturation);
    if (v > 0.0) {
      t.raw_[i] = v;
      t.mark_occupied(i);
    }
  }
  t.merged_ = true;
  t.touch();
  return t;
}

double preference(const Tcbf& b, const Tcbf& f, std::string_view key) {
  return preference(b, f, util::hash_pair(key));
}

double preference(const Tcbf& b, const Tcbf& f, const util::HashPair& hp) {
  double cb = b.min_counter(hp).value_or(0.0);
  std::optional<double> cf = f.min_counter(hp);
  if (!cf.has_value()) return cb;  // key absent from f: preference is c_b
  return cb - *cf;
}

double preference_at(const Tcbf& b, const Tcbf& f,
                     const util::IndexArray& indices) {
  assert(b.params() == f.params());
  double cb = b.min_counter_at(indices).value_or(0.0);
  std::optional<double> cf = f.min_counter_at(indices);
  if (!cf.has_value()) return cb;  // key absent from f: preference is c_b
  return cb - *cf;
}

}  // namespace bsub::bloom
