// Writes the seed corpus for the fuzz targets: well-formed traces, TCBF/BF
// encodings, and engine frames (plus a few near-miss mutants, which sit on
// the interesting side of the validators). Outputs are checked in under
// tests/fuzz/corpus/; rerun after a wire-format change:
//
//   ./gen_fuzz_corpus <repo>/tests/fuzz/corpus
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bloom/tcbf_codec.h"
#include "engine/wire.h"
#include "net/fragment.h"
#include "trace/trace_io.h"
#include "util/rng.h"

namespace {

namespace fs = std::filesystem;

void write_file(const fs::path& dir, const std::string& name,
                const std::vector<std::uint8_t>& bytes) {
  fs::create_directories(dir);
  std::ofstream out(dir / name, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

void write_file(const fs::path& dir, const std::string& name,
                const std::string& text) {
  write_file(dir, name,
             std::vector<std::uint8_t>(text.begin(), text.end()));
}

void gen_traces(const fs::path& dir) {
  write_file(dir, "minimal.txt", std::string("0 1 0 10\n"));
  write_file(dir, "headers.txt",
             std::string("# nodes 4\n# contacts 2\n0 1 0.5 10.25\n"
                         "2 3 100 160.125\n"));
  write_file(dir, "comments_crlf.txt",
             std::string("# exported by tool\r\n\r\n0 1 0 10\r\n"));

  bsub::util::Rng rng(0xBEEF);
  std::ostringstream synth;
  synth << "# nodes 12\n";
  double t = 0.0;
  for (int i = 0; i < 40; ++i) {
    const unsigned a = static_cast<unsigned>(rng.next_below(12));
    unsigned b = static_cast<unsigned>(rng.next_below(12));
    if (a == b) b = (b + 1) % 12;
    t += 0.001 * static_cast<double>(1 + rng.next_below(5000));
    const double dur = 0.001 * static_cast<double>(1 + rng.next_below(600000));
    synth << a << ' ' << b << ' ' << t << ' ' << t + dur << '\n';
  }
  write_file(dir, "synthetic.txt", synth.str());

  // Near-misses: each trips exactly one validator.
  write_file(dir, "bad_end_before_start.txt", std::string("0 1 50 10\n"));
  write_file(dir, "bad_id_vs_header.txt",
             std::string("# nodes 2\n0 2 0 10\n"));
  write_file(dir, "bad_nan_time.txt", std::string("0 1 nan 10\n"));
}

void gen_filters(const fs::path& dir) {
  using bsub::bloom::CounterEncoding;
  for (int keys : {0, 3, 40, 200}) {
    bsub::bloom::Tcbf t({512, 4}, 50.0);
    for (int i = 0; i < keys; ++i) t.insert("key" + std::to_string(i));
    if (keys >= 40) {
      bsub::bloom::Tcbf extra({512, 4}, 50.0);
      extra.insert("other");
      t.decay(7.5);
      t.a_merge(extra);  // non-uniform counters for the kFull path
    }
    for (auto enc : {CounterEncoding::kFull, CounterEncoding::kUniform,
                     CounterEncoding::kCounterLess}) {
      write_file(dir,
                 "tcbf_k" + std::to_string(keys) + "_e" +
                     std::to_string(static_cast<int>(enc)) + ".bin",
                 encode_tcbf(t, enc));
    }
    write_file(dir, "bloom_k" + std::to_string(keys) + ".bin",
               encode_bloom(t.to_bloom_filter()));
  }

  // Near-misses: valid prefix, one corrupted byte.
  bsub::bloom::Tcbf t({256, 4}, 50.0);
  t.insert("alpha");
  auto enc = encode_tcbf(t, CounterEncoding::kFull);
  auto bad = enc;
  bad[1] = 9;  // encoding byte
  write_file(dir, "bad_encoding_byte.bin", bad);
  bad = enc;
  bad[2] = 7;  // layout byte
  write_file(dir, "bad_layout_byte.bin", bad);
  enc.pop_back();
  write_file(dir, "truncated.bin", enc);
}

void gen_frames(const fs::path& dir) {
  using namespace bsub::engine;

  HelloFrame h;
  h.sender = 3;
  h.is_broker = true;
  h.interest_report = bsub::bloom::BloomFilter({256, 4});
  h.interest_report.insert("news");
  h.relay_report = bsub::bloom::BloomFilter({256, 4});
  h.relay_report.insert("sports");
  write_file(dir, "hello.bin", encode(h));

  GenuineFrame g;
  g.sender = 4;
  g.filter = bsub::bloom::Tcbf({256, 4}, 50.0);
  g.filter.insert("news");
  write_file(dir, "genuine.bin", encode(g));

  RelayFrame r;
  r.sender = 5;
  r.filter = bsub::bloom::Tcbf({256, 4}, 50.0);
  r.filter.insert("weather");
  r.filter.decay(3.0);
  write_file(dir, "relay.bin", encode(r));

  DataFrame d;
  d.sender = 6;
  d.custody = true;
  d.message.id = 42;
  d.message.key = "news";
  d.message.body = {1, 2, 3, 4};
  d.message.producer = 7;
  d.message.created = bsub::util::from_minutes(10);
  d.message.ttl = bsub::util::kHour;
  write_file(dir, "data.bin", encode(d));

  write_file(dir, "custody_ack.bin", encode(CustodyAckFrame{6, 42, true}));

  // Near-misses.
  auto bytes = encode(d);
  bytes[2] = 0;  // frame type
  write_file(dir, "bad_frame_type.bin", bytes);
  bytes = encode(d);
  bytes[1] ^= 0xFF;  // wire version
  write_file(dir, "bad_version.bin", bytes);
  bytes = encode(d);
  bytes.back() ^= 0x01;  // checksum
  write_file(dir, "bad_checksum.bin", bytes);
  bytes = encode(d);
  bytes.resize(bytes.size() / 2);
  write_file(dir, "truncated.bin", bytes);
}

/// Session fuzz seeds use the fuzz_session op encoding: 0x00 = time jump,
/// 0x01 = local offer, 0x02 = close, op >= 3 = "feed op bytes to
/// on_datagram". A datagram is seeded as [size u8][bytes], so its size byte
/// doubles as the op.
void gen_session(const fs::path& dir) {
  using namespace bsub::net;

  auto push_datagram = [](std::vector<std::uint8_t>& ops,
                          const std::vector<std::uint8_t>& d) {
    ops.push_back(static_cast<std::uint8_t>(d.size()));
    ops.insert(ops.end(), d.begin(), d.end());
  };

  // A whole handshake: the peer's hello frame arrives in fragments, gets
  // acked, then the peer says goodbye.
  bsub::engine::HelloFrame h;
  h.sender = 9;
  h.interest_report = bsub::bloom::BloomFilter({256, 4});
  h.interest_report.insert("news");
  h.relay_report = bsub::bloom::BloomFilter({256, 4});
  const auto hello = bsub::engine::encode(h);
  std::vector<std::vector<std::uint8_t>> frags;
  fragment_frame(/*epoch=*/7, /*seq=*/0, hello, /*mtu=*/96, frags);

  std::vector<std::uint8_t> ops;
  for (const auto& d : frags) push_datagram(ops, d);
  push_datagram(ops, encode_ack(7, 1));
  push_datagram(ops, encode_fin(7, /*is_ack=*/false));
  write_file(dir, "handshake.bin", ops);

  // Local activity with retransmit pressure: offer, jump time (RTO fires),
  // stray ack from a *newer* epoch (receive-state reset), close.
  ops.clear();
  ops.push_back(0x01);
  ops.push_back(40);  // offer a 41-byte frame
  ops.push_back(0x00);
  ops.push_back(5);  // +300ms: several RTO backoffs
  push_datagram(ops, encode_ack(9, 1));
  ops.push_back(0x02);  // close
  ops.push_back(0x00);
  ops.push_back(255);  // ride the FIN retry ladder to peer-lost
  write_file(dir, "retransmit_close.bin", ops);

  // Near-misses: a corrupted fragment, and geometry that lies.
  ops.clear();
  auto bad = frags.front();
  bad[bad.size() / 2] ^= 0xFF;
  push_datagram(ops, bad);
  push_datagram(ops, frags.front());
  write_file(dir, "corrupt_fragment.bin", ops);
}

/// TCBF-vs-oracle fuzz seeds use the fuzz_tcbf_kernels op encoding:
/// byte 0 = geometry (bits 0-1: m, bits 2-3: k-2), then ops keyed on the
/// low 3 bits (0/1 = merge fresh keys, 2 = decay, 3 = insert, 4 = cross
/// merge, 5 = queries, 6 = views, 7 = wire encode).
void gen_kernels(const fs::path& dir) {
  // Sparse schedule on the smallest geometry: a few merges and queries.
  std::vector<std::uint8_t> ops;
  ops.push_back(0x04);  // m=64, k=3
  ops.push_back(0x08);  // a_merge 2 keys
  ops.push_back(1);
  ops.push_back(2);
  ops.push_back(0x01);  // m_merge 1 key into f
  ops.push_back(3);
  ops.push_back(0x0A);  // decay both by 10.0
  ops.push_back(40);
  ops.push_back(0x05);  // queries on key 1
  ops.push_back(1);
  ops.push_back(0x06);  // views
  write_file(dir, "sparse.bin", ops);

  // Dense schedule on the largest geometry: fill past the lazy-vs-dense
  // merge crossover, cross-merge, decay-to-drain, re-encode.
  ops.clear();
  ops.push_back(0x0F);  // m=4096, k=5
  for (int round = 0; round < 64; ++round) {
    ops.push_back(0x18);  // a_merge 4 keys
    for (int j = 0; j < 4; ++j) {
      ops.push_back(static_cast<std::uint8_t>(round * 4 + j));
    }
  }
  ops.push_back(0x0A);  // decay both by 30.0
  ops.push_back(120);
  ops.push_back(0x04);  // b.m_merge(f)
  ops.push_back(0x06);  // views
  ops.push_back(0x07);  // wire encode
  write_file(dir, "dense.bin", ops);

  // Decay-heavy schedule: interleaved drains and revivals keep the decay
  // base and occupancy pruning busy.
  ops.clear();
  ops.push_back(0x01);  // m=256, k=2
  for (int round = 0; round < 8; ++round) {
    ops.push_back(0x03);  // insert into f
    ops.push_back(static_cast<std::uint8_t>(round));
    ops.push_back(0x08);  // a_merge 2 keys
    ops.push_back(static_cast<std::uint8_t>(round));
    ops.push_back(static_cast<std::uint8_t>(round + 32));
    ops.push_back(0x0A);  // decay both by 51.0 (drains fresh counters)
    ops.push_back(204);
    ops.push_back(0x05);  // queries
    ops.push_back(static_cast<std::uint8_t>(round));
  }
  ops.push_back(0x06);
  ops.push_back(0x07);
  write_file(dir, "decay_drain.bin", ops);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus-dir>\n", argv[0]);
    return 2;
  }
  const fs::path root(argv[1]);
  gen_traces(root / "read_trace");
  gen_filters(root / "tcbf_codec");
  gen_kernels(root / "tcbf_kernels");
  gen_frames(root / "wire_decode");
  gen_session(root / "session");
  std::printf("corpus written under %s\n", root.c_str());
  return 0;
}
