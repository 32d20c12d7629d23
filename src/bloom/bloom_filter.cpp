#include "bloom/bloom_filter.h"

#include <bit>
#include <cassert>
#include <stdexcept>

#include "util/hash.h"

namespace bsub::bloom {

BloomFilter::BloomFilter(BloomParams params)
    : params_(params), words_((params.m + 63) / 64, 0) {
  assert(params.m > 0 && params.k > 0);
}

void BloomFilter::insert(std::string_view key) {
  insert(util::hash_pair(key));
}

void BloomFilter::insert(const util::HashPair& hp) {
  for (std::size_t i : util::bloom_indices(hp, params_.k, params_.m)) {
    set_bit(i);
  }
}

bool BloomFilter::contains(std::string_view key) const {
  return contains(util::hash_pair(key));
}

bool BloomFilter::contains(const util::HashPair& hp) const {
  for (std::size_t i : util::bloom_indices(hp, params_.k, params_.m)) {
    if (!test_bit(i)) return false;
  }
  return true;
}

void BloomFilter::merge(const BloomFilter& other) {
  if (params_ != other.params_) {
    throw std::invalid_argument("BloomFilter::merge: parameter mismatch");
  }
  for (std::size_t w = 0; w < words_.size(); ++w) words_[w] |= other.words_[w];
  touch();
}

bool BloomFilter::test_bit(std::size_t i) const {
  assert(i < params_.m);
  return (words_[i / 64] >> (i % 64)) & 1ULL;
}

void BloomFilter::set_bit(std::size_t i) {
  assert(i < params_.m);
  words_[i / 64] |= 1ULL << (i % 64);
  touch();
}

void BloomFilter::set_bits_at(std::span<const std::size_t> positions) {
  for (const std::size_t i : positions) {
    assert(i < params_.m);
    words_[i / 64] |= 1ULL << (i % 64);
  }
  touch();
}

std::size_t BloomFilter::popcount() const {
  std::size_t n = 0;
  for (std::uint64_t w : words_) n += static_cast<std::size_t>(std::popcount(w));
  return n;
}

double BloomFilter::fill_ratio() const {
  return static_cast<double>(popcount()) / static_cast<double>(params_.m);
}

std::vector<std::size_t> BloomFilter::set_bits() const {
  std::vector<std::size_t> out;
  set_bits_into(out);
  return out;
}

void BloomFilter::set_bits_into(std::vector<std::size_t>& out) const {
  out.clear();
  out.reserve(popcount());
  for (std::size_t w = 0; w < words_.size(); ++w) {
    std::uint64_t bits = words_[w];
    while (bits != 0) {
      int b = std::countr_zero(bits);
      out.push_back(w * 64 + static_cast<std::size_t>(b));
      bits &= bits - 1;
    }
  }
}

void BloomFilter::clear() {
  for (auto& w : words_) w = 0;
  touch();
}

}  // namespace bsub::bloom
