// TCBF primitives against a dense reference: the paper's efficiency
// argument rests on these being trivial (hashing + table lookups).
//
// Compares bloom::Tcbf against `DenseTcbf` — a seed-faithful reference with
// eager O(m) decay, dense O(m) merges, and per-query string hashing — at m
// in {256, 1024, 8192, 65536}, and records ns-per-op for decay/merge/query
// to BENCH_tcbf_ops.json. Each m runs in its own forked child, so no pass
// times the heap another pass left behind. It exits non-zero if a pinned
// performance floor regresses (see check_regressions below). The same ops
// at the relays' real fill are timed end to end by `bsub_bench --traced`.
#include <chrono>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bloom/tcbf.h"
#include "fork_util.h"
#include "util/hash.h"

namespace {

using namespace bsub;

std::vector<std::string> make_keys(std::size_t n) {
  std::vector<std::string> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) keys.push_back("key" + std::to_string(i));
  return keys;
}

/// Compiler barrier: the timed work on `value` must run, once per call.
template <class T>
void keep(T& value) {
  asm volatile("" : "+m"(value) : : "memory");
}

/// Seed-faithful reference TCBF: the representation this repo shipped with —
/// one dense counter array, eager O(m) decay and merge sweeps, and string
/// hashing on every operation. Semantically identical to bloom::Tcbf (the
/// randomized differential test in tests/bloom/ proves it); only the cost
/// model differs.
class DenseTcbf {
 public:
  DenseTcbf(bloom::BloomParams params, double initial_counter)
      : params_(params),
        initial_counter_(initial_counter),
        counters_(params.m, 0.0) {}

  void insert(std::string_view key) {
    for (std::size_t idx : util::bloom_indices(key, params_.k, params_.m)) {
      if (counters_[idx] <= 0.0) counters_[idx] = initial_counter_;
    }
  }

  void decay(double amount) {
    for (double& c : counters_) c = c > amount ? c - amount : 0.0;
  }

  void a_merge(const DenseTcbf& other) {
    for (std::size_t i = 0; i < counters_.size(); ++i) {
      const double sum = counters_[i] + other.counters_[i];
      counters_[i] = sum < bloom::kCounterSaturation
                         ? sum
                         : bloom::kCounterSaturation;
    }
  }

  void m_merge(const DenseTcbf& other) {
    for (std::size_t i = 0; i < counters_.size(); ++i) {
      if (other.counters_[i] > counters_[i]) counters_[i] = other.counters_[i];
    }
  }

  std::optional<double> min_counter(std::string_view key) const {
    double mn = std::numeric_limits<double>::infinity();
    for (std::size_t idx : util::bloom_indices(key, params_.k, params_.m)) {
      if (counters_[idx] <= 0.0) return std::nullopt;
      if (counters_[idx] < mn) mn = counters_[idx];
    }
    return mn;
  }

 private:
  bloom::BloomParams params_;
  double initial_counter_;
  std::vector<double> counters_;
};

/// Measures fn's cost by growing the iteration count until the timed batch
/// is long enough to trust the clock, then keeps the fastest of three such
/// batches (min is the robust estimator under scheduler noise).
template <class Fn>
double ns_per_op(Fn&& fn) {
  using clock = std::chrono::steady_clock;
  fn();  // warm-up
  auto one_batch = [&] {
    for (std::size_t iters = 8;; iters *= 4) {
      const auto t0 = clock::now();
      for (std::size_t i = 0; i < iters; ++i) fn();
      const double elapsed =
          std::chrono::duration<double>(clock::now() - t0).count();
      if (elapsed >= 0.02 || iters >= (std::size_t{1} << 28)) {
        return elapsed * 1e9 / static_cast<double>(iters);
      }
    }
  };
  double best = one_batch();
  for (int r = 1; r < 3; ++r) {
    const double ns = one_batch();
    if (ns < best) best = ns;
  }
  return best;
}

struct OpTiming {
  const char* op;
  std::uint32_t m;
  double dense_ns;
  double kernel_ns;

  double speedup() const {
    return kernel_ns > 0.0 ? dense_ns / kernel_ns : 0.0;
  }
};

/// The four timings of one filter width; crosses the fork pipe as bytes
/// (`op` names string literals, which sit at the same address in the
/// forked child).
struct PassTimings {
  OpTiming ops[4];
};

/// One comparison pass against the dense reference at filter width m.
/// Covers the sparse contact regime (the paper's 38 keys) and, for merges,
/// a dense regime (~8% occupancy) past the lazy-vs-dense crossover, where
/// merges take their full-sweep path.
PassTimings run_comparison_at(std::uint32_t m) {
  constexpr std::uint32_t kHashes = 4;
  constexpr std::size_t kKeys = 38;  // the paper's key-set size
  const auto keys = make_keys(kKeys);
  std::vector<util::HashPair> hps;
  for (const auto& k : keys) hps.push_back(util::hash_pair(k));
  PassTimings out{};

  const bloom::BloomParams params{m, kHashes};
  // Huge initial counter so sustained decay never drains the filters.
  DenseTcbf dense(params, 1e12);
  bloom::Tcbf lazy(params, 1e12);
  for (std::size_t i = 0; i < kKeys; ++i) {
    dense.insert(keys[i]);
    lazy.insert(hps[i]);
  }

  const double dense_decay = ns_per_op([&] {
    dense.decay(0.138);
    keep(dense);
  });
  const double lazy_decay = ns_per_op([&] {
    lazy.decay(0.138);
    keep(lazy);
  });
  out.ops[0] = {"decay", m, dense_decay, lazy_decay};

  DenseTcbf dense_src(params, 50.0);
  bloom::Tcbf lazy_src(params, 50.0);
  for (std::size_t i = 0; i < kKeys; ++i) {
    dense_src.insert(keys[i]);
    lazy_src.insert(hps[i]);
  }
  DenseTcbf dense_dst(params, 50.0);
  bloom::Tcbf lazy_dst(params, 50.0);
  const double dense_merge = ns_per_op([&] {
    dense_dst.a_merge(dense_src);
    keep(dense_dst);
  });
  const double lazy_merge = ns_per_op([&] {
    lazy_dst.a_merge(lazy_src);
    keep(lazy_dst);
  });
  out.ops[1] = {"a_merge", m, dense_merge, lazy_merge};

  // Dense regime: m/48 keys * k=4 hashes fill ~8% of the table — past the
  // lazy-vs-dense crossover (1/16 of slots occupied), so this times the
  // dense sweeps. Much beyond this fill the paper's FPR budget is blown
  // anyway, so higher densities are not the regime that matters.
  {
    const std::size_t n = m / 48;
    const auto fill_keys = make_keys(n);
    DenseTcbf dense_fsrc(params, 50.0);
    bloom::Tcbf lazy_fsrc(params, 50.0);
    for (const auto& k : fill_keys) {
      dense_fsrc.insert(k);
      lazy_fsrc.insert(util::hash_pair(k));
    }
    DenseTcbf dense_fdst(params, 50.0);
    bloom::Tcbf lazy_fdst(params, 50.0);
    const double dense_fmerge = ns_per_op([&] {
      dense_fdst.a_merge(dense_fsrc);
      keep(dense_fdst);
    });
    const double lazy_fmerge = ns_per_op([&] {
      lazy_fdst.a_merge(lazy_fsrc);
      keep(lazy_fdst);
    });
    out.ops[2] = {"a_merge_dense", m, dense_fmerge, lazy_fmerge};
  }

  std::size_t qi = 0;
  const double dense_query = ns_per_op([&] {
    auto c = dense.min_counter(keys[qi++ % kKeys]);
    keep(c);
  });
  qi = 0;
  const double lazy_query = ns_per_op([&] {
    auto c = lazy.min_counter(hps[qi++ % kKeys]);
    keep(c);
  });
  out.ops[3] = {"min_counter", m, dense_query, lazy_query};
  return out;
}

/// Runs every width's pass in a fresh child; false if a child failed.
bool run_comparison(std::vector<OpTiming>& out) {
  for (std::uint32_t m : {256u, 1024u, 8192u, 65536u}) {
    PassTimings pass;
    if (!bench::run_isolated([m] { return run_comparison_at(m); }, pass)) {
      std::fprintf(stderr, "bench_tcbf_ops: the m=%u pass failed\n", m);
      return false;
    }
    out.insert(out.end(), std::begin(pass.ops), std::end(pass.ops));
  }
  return true;
}

void report_comparison(const std::vector<OpTiming>& timings,
                       double wall_seconds) {
  std::printf("TCBF dense-reference vs bloom::Tcbf (ns/op)\n");
  std::printf("%14s | %6s | %12s | %12s | %8s\n", "op", "m", "dense(ns)",
              "kernel(ns)", "speedup");
  for (const OpTiming& t : timings) {
    std::printf("%14s | %6u | %12.1f | %12.1f | %7.1fx\n", t.op, t.m,
                t.dense_ns, t.kernel_ns, t.speedup());
  }

  std::FILE* f = std::fopen("BENCH_tcbf_ops.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write BENCH_tcbf_ops.json\n");
    return;
  }
  std::fprintf(f,
               "{\"bench\": \"tcbf_ops\", \"wall_seconds\": %.3f, "
               "\"points\": [",
               wall_seconds);
  for (std::size_t i = 0; i < timings.size(); ++i) {
    const OpTiming& t = timings[i];
    std::fprintf(f,
                 "%s\n  {\"op\": \"%s\", \"m\": %u, \"dense_ns\": %.2f, "
                 "\"kernel_ns\": %.2f, \"speedup\": %.2f}",
                 i == 0 ? "" : ",", t.op, t.m, t.dense_ns, t.kernel_ns,
                 t.speedup());
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
  std::printf("-> BENCH_tcbf_ops.json (%.2fs wall)\n\n", wall_seconds);
}

/// Pinned performance floor. Returns the number of violations: the merge
/// at m=1024 must at least break even against the dense reference. The
/// paper's 38 keys fill ~14% of the table there, past the 1/16 crossover,
/// so this is the dense-sweep path — the historical regression this layer
/// closes (the sparse per-bit walk used to lose to a plain sweep there).
int check_regressions(const std::vector<OpTiming>& timings) {
  int violations = 0;
  for (const OpTiming& t : timings) {
    if (std::string_view(t.op) == "a_merge" && t.m == 1024 &&
        t.speedup() < 1.0) {
      std::fprintf(stderr,
                   "REGRESSION: %s @ m=%u: %.2fx < required 1.0x\n", t.op,
                   t.m, t.speedup());
      ++violations;
    }
  }
  return violations;
}

}  // namespace

int main() {
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<OpTiming> timings;
  if (!run_comparison(timings)) return 1;
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  report_comparison(timings, wall);
  const int violations = check_regressions(timings);
  if (violations > 0) {
    std::fprintf(stderr, "bench_tcbf_ops: %d performance floor(s) violated\n",
                 violations);
    return 1;
  }
  return 0;
}
