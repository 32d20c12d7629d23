// Fuzz target for the TCBF data plane (bloom/kernels.h, through
// bloom::Tcbf): differential execution of Tcbf against the dense eager
// oracle (tests/testing/dense_tcbf.h) on the same fuzzer-chosen op
// schedule.
//
// The input is a little op program over two filters, b (merge destination)
// and f (peer filter):
//
//   byte 0      geometry: bits 0-1 pick m from {64, 256, 1024, 4096},
//               bits 2-3 pick k from 2..5
//   op & 0x07 == 0   A-merge a fresh filter of 1..4 keys into b
//            == 1   M-merge a fresh filter of 1..4 keys into f
//            == 2   decay b (and f when op bit 3 is set) by L * 0.25
//            == 3   insert a key into f (while f is still never-merged)
//            == 4   b.m_merge(f)
//            == 5   point queries: contains / min_counter / preference
//            == 6   derived views: popcount / set-bit extraction
//            == 7   encode b to wire bytes (kFull)
//
// Every query answer and derived view must match the oracle bit for bit
// when it is taken, and the final counters of both filters must match by
// bit pattern; any divergence aborts. Decay amounts are multiples of 0.25,
// the oracle's exactness condition. The wire quantizes counters to one
// byte, so the encode op checks instead that the encoded set bits are the
// oracle's live slots and that encode -> decode -> encode is byte-identical.
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bloom/bloom_params.h"
#include "bloom/tcbf.h"
#include "bloom/tcbf_codec.h"
#include "testing/dense_tcbf.h"
#include "util/hash.h"

namespace {

using bsub::bloom::Tcbf;
using bsub::testing::DenseRefTcbf;

[[noreturn]] void fail(const char* invariant) {
  std::fprintf(stderr, "fuzz invariant violated: %s\n", invariant);
  std::abort();
}

void check(bool ok, const char* invariant) {
  if (!ok) fail(invariant);
}

std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }

const std::string& pool_key(std::uint8_t id) {
  static const std::vector<std::string>* keys = [] {
    auto* k = new std::vector<std::string>;
    for (int i = 0; i < 64; ++i) k->push_back("fk" + std::to_string(i));
    return k;
  }();
  return (*keys)[id % 64];
}

void check_counters(const Tcbf& lazy, const DenseRefTcbf& dense) {
  const std::vector<double> lc = lazy.counters();
  const std::vector<double>& dc = dense.counters();
  check(lc.size() == dc.size(), "counter array size");
  for (std::size_t i = 0; i < lc.size(); ++i) {
    check(bits_of(lc[i]) == bits_of(dc[i]), "counter bit pattern");
  }
  check(lazy.popcount() == dense.popcount(), "final popcount");
  check(lazy.set_bits() == dense.set_bits(), "final set bits");
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size < 2) return 0;

  static constexpr std::size_t kMs[4] = {64, 256, 1024, 4096};
  const bsub::bloom::BloomParams params{
      kMs[data[0] & 0x03],
      static_cast<std::uint32_t>(2 + ((data[0] >> 2) & 0x03))};

  Tcbf b(params, 50.0);
  Tcbf f(params, 50.0);
  DenseRefTcbf db(params, 50.0);
  DenseRefTcbf df(params, 50.0);
  bool f_insertable = true;

  std::size_t pos = 1;
  auto next = [&]() -> std::uint8_t {
    return pos < size ? data[pos++] : 0;
  };

  while (pos < size) {
    const std::uint8_t op = next();
    switch (op & 0x07) {
      case 0:
      case 1: {
        Tcbf fresh(params, 50.0);
        DenseRefTcbf dfresh(params, 50.0);
        const int nk = 1 + ((op >> 3) & 0x03);
        for (int j = 0; j < nk; ++j) {
          const std::string& k = pool_key(next());
          fresh.insert(k);
          dfresh.insert(k);
        }
        if ((op & 0x07) == 0) {
          b.a_merge(fresh);
          db.a_merge(dfresh);
        } else {
          f.m_merge(fresh);
          df.m_merge(dfresh);
          f_insertable = false;
        }
        break;
      }
      case 2: {
        const double amount = 0.25 * static_cast<double>(next());
        b.decay(amount);
        db.decay(amount);
        if ((op & 0x08) != 0) {
          f.decay(amount);
          df.decay(amount);
        }
        break;
      }
      case 3:
        if (f_insertable) {
          const std::string& k = pool_key(next());
          f.insert(k);
          df.insert(k);
        }
        break;
      case 4:
        b.m_merge(f);
        db.m_merge(df);
        break;
      case 5: {
        const std::string& k = pool_key(next());
        check(b.contains(k) == db.contains(k), "contains");
        check(bits_of(b.min_counter(k).value_or(-1.0)) ==
                  bits_of(db.min_counter(k).value_or(-1.0)),
              "min_counter");
        const std::uint64_t want =
            bits_of(bsub::testing::preference(db, df, k));
        check(bits_of(bsub::bloom::preference(b, f, k)) == want,
              "preference");
        const bsub::util::IndexArray idx =
            bsub::util::bloom_indices(k, params.k, params.m);
        check(bits_of(bsub::bloom::preference_at(b, f, idx)) == want,
              "preference_at");
        break;
      }
      case 6:
        check(b.popcount() == db.popcount(), "popcount of b");
        check(f.popcount() == df.popcount(), "popcount of f");
        check(b.set_bits() == db.set_bits(), "set bits of b");
        break;
      case 7: {
        const std::vector<std::uint8_t> wire =
            encode_tcbf(b, bsub::bloom::CounterEncoding::kFull);
        const Tcbf decoded = bsub::bloom::decode_tcbf(wire);
        check(decoded.set_bits() == db.set_bits(),
              "encoded set bits are the oracle's live slots");
        check(encode_tcbf(decoded, bsub::bloom::CounterEncoding::kFull) ==
                  wire,
              "encode -> decode -> encode byte identity");
        break;
      }
    }
  }

  check_counters(b, db);
  check_counters(f, df);
  return 0;
}
