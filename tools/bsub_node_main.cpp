// bsub_node: a live B-SUB endpoint on a real UDP socket.
//
// One process = one node of the paper's HUNET: it subscribes to content
// keys, publishes messages, and runs contacts with every peer it is pointed
// at — HELLO / filter exchange / message transfer over the session layer,
// driven by the poll reactor in real time.
//
//   # terminal 1: a subscriber waiting on port 4711
//   bsub_node --id 1 --bind 127.0.0.1:4711 --subscribe news
//
//   # terminal 2: a publisher that contacts it and hands the message over
//   bsub_node --id 2 --bind 127.0.0.1:0 --peer 127.0.0.1:4711 \
//             --publish news=hello --duration-ms 2000
//
// Deliveries are printed as single "DELIVER ..." lines on stdout (the CI
// smoke test greps for them); everything diagnostic goes to stderr.
#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/protocol_registry.h"
#include "engine/node.h"
#include "metrics/collector.h"
#include "net/clock.h"
#include "net/node_runtime.h"
#include "net/reactor.h"
#include "net/transport.h"
#include "net/udp.h"
#include "tool_cli.h"
#include "util/time.h"

namespace {

std::atomic<bool> g_interrupted{false};

void on_signal(int) { g_interrupted.store(true); }

struct Options {
  bsub::engine::NodeId id = 1;
  bsub::net::Endpoint bind = bsub::net::make_udp_endpoint(0x7F000001, 0);
  std::vector<bsub::net::Endpoint> peers;
  std::vector<std::string> subscriptions;
  std::vector<std::pair<std::string, std::string>> publishes;  // key, body
  bool broker = false;
  bsub::util::Time ttl = bsub::util::kHour;
  bsub::util::Time duration = 0;  ///< 0 = run until SIGINT
  bsub::util::Time decay_tick = bsub::util::kMinute;
  std::string protocol;  ///< protocol spec (empty = default B-SUB config)
};

/// Longest accepted millisecond value (about 31 years), so deadlines and
/// expiry times computed from it cannot overflow util::Time.
constexpr std::uint64_t kMaxMs = 1'000'000'000'000;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --id N                 node id (default 1)\n"
      "  --bind IP:PORT         UDP bind address (default 127.0.0.1:0)\n"
      "  --peer IP:PORT         contact this peer at startup (repeatable)\n"
      "  --subscribe KEY        subscribe to a content key (repeatable)\n"
      "  --publish KEY=TEXT     publish a message (repeatable)\n"
      "  --broker               start with the broker role\n"
      "  --ttl-ms N             published-message TTL, >= 1 (default 1h)\n"
      "  --duration-ms N        exit after N ms (default 0: until SIGINT)\n"
      "  --decay-tick-ms N      TCBF decay tick (default 1min; 0 = none)\n"
      "  --protocol SPEC        protocol spec, e.g. bsub:df=0.5,copies=5\n"
      "                         (a live node runs only B-SUB; parameters\n"
      "                         configure it — see core::bsub_config_from_"
      "spec)\n"
      "  --list-protocols       print the protocol registry and exit\n"
      "Numbers are plain decimal; milliseconds are at most 10^12.\n",
      argv0);
  return 2;
}

bool parse_options(int argc, char** argv, Options& opts) {
  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) return nullptr;
    return argv[++i];
  };
  auto need_ms = [&](int& i, bsub::util::Time& out) {
    const char* v = need_value(i);
    std::uint64_t ms = 0;
    if (!v || !bsub::tools::parse_u64(v, ms) || ms > kMaxMs) return false;
    out = static_cast<bsub::util::Time>(ms);
    return true;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--id") {
      const char* v = need_value(i);
      if (!v || !bsub::tools::parse_u64(v, opts.id)) return false;
    } else if (flag == "--bind") {
      const char* v = need_value(i);
      if (!v || !bsub::net::parse_udp_endpoint(v, opts.bind)) return false;
    } else if (flag == "--peer") {
      const char* v = need_value(i);
      bsub::net::Endpoint ep = 0;
      if (!v || !bsub::net::parse_udp_endpoint(v, ep)) return false;
      opts.peers.push_back(ep);
    } else if (flag == "--subscribe") {
      const char* v = need_value(i);
      if (!v) return false;
      opts.subscriptions.emplace_back(v);
    } else if (flag == "--publish") {
      const char* v = need_value(i);
      if (!v) return false;
      const std::string spec(v);
      const std::size_t eq = spec.find('=');
      if (eq == std::string::npos || eq == 0) return false;
      opts.publishes.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
    } else if (flag == "--broker") {
      opts.broker = true;
    } else if (flag == "--ttl-ms") {
      // A zero TTL would publish messages that are born expired.
      if (!need_ms(i, opts.ttl) || opts.ttl == 0) return false;
    } else if (flag == "--duration-ms") {
      if (!need_ms(i, opts.duration)) return false;
    } else if (flag == "--decay-tick-ms") {
      if (!need_ms(i, opts.decay_tick)) return false;
    } else if (flag == "--protocol") {
      const char* v = need_value(i);
      if (!v) return false;
      opts.protocol = v;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--list-protocols") == 0) {
      return bsub::tools::list_protocols();
    }
  }

  Options opts;
  if (!parse_options(argc, argv, opts)) return usage(argv[0]);

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  bsub::net::SteadyClock clock;
  bsub::net::Reactor reactor(clock);
  bsub::metrics::TransportCounters counters;

  try {
    bsub::net::UdpTransport transport(reactor, opts.bind);

    bsub::net::RuntimeConfig config;
    config.decay_tick = opts.decay_tick;
    if (!opts.protocol.empty()) {
      config.node = bsub::engine::live_config_from_spec(opts.protocol).node;
    }
    bsub::net::NodeRuntime runtime(opts.id, config);
    runtime.bind(transport, reactor, counters);
    runtime.node().set_broker(opts.broker);
    for (const std::string& key : opts.subscriptions) {
      runtime.node().subscribe(key);
    }
    runtime.node().set_delivery_handler(
        [&](const bsub::engine::ContentMessage& msg, bsub::util::Time) {
          std::printf("DELIVER id=%llu key=%s bytes=%zu\n",
                      static_cast<unsigned long long>(msg.id), msg.key.c_str(),
                      msg.body.size());
          std::fflush(stdout);
        });

    std::uint64_t next_id = opts.id << 20;
    for (const auto& [key, text] : opts.publishes) {
      bsub::engine::ContentMessage msg;
      msg.id = next_id++;
      msg.key = key;
      msg.body.assign(text.begin(), text.end());
      msg.producer = opts.id;
      msg.created = clock.now();
      msg.ttl = opts.ttl;
      runtime.node().publish(std::move(msg), clock.now());
    }

    std::fprintf(stderr, "bsub_node %llu listening on %s\n",
                 static_cast<unsigned long long>(opts.id),
                 bsub::net::format_udp_endpoint(transport.local_endpoint())
                     .c_str());
    for (bsub::net::Endpoint peer : opts.peers) {
      std::fprintf(stderr, "contacting %s\n",
                   bsub::net::format_udp_endpoint(peer).c_str());
      runtime.connect(peer);
    }

    const bsub::util::Time deadline =
        opts.duration > 0 ? clock.now() + opts.duration : 0;
    while (!g_interrupted.load()) {
      if (deadline > 0 && clock.now() >= deadline) break;
      reactor.run_once(50 * bsub::util::kMillisecond);
    }

    // Goodbye: FIN every live session and give the acks a moment.
    runtime.close_all();
    const bsub::util::Time grace = clock.now() + 250;
    while (runtime.session_count() > 0 && clock.now() < grace) {
      reactor.run_once(50 * bsub::util::kMillisecond);
    }

    const bsub::metrics::TransportStats stats = counters.snapshot();
    std::fprintf(stderr,
                 "frames sent=%llu received=%llu retransmitted=%llu | "
                 "datagrams sent=%llu received=%llu dropped=%llu | "
                 "sessions opened=%llu timed-out=%llu\n",
                 static_cast<unsigned long long>(stats.frames_sent),
                 static_cast<unsigned long long>(stats.frames_received),
                 static_cast<unsigned long long>(stats.frames_retransmitted),
                 static_cast<unsigned long long>(stats.datagrams_sent),
                 static_cast<unsigned long long>(stats.datagrams_received),
                 static_cast<unsigned long long>(stats.datagrams_dropped),
                 static_cast<unsigned long long>(stats.session_opens),
                 static_cast<unsigned long long>(stats.session_timeouts));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bsub_node: %s\n", e.what());
    return 1;
  }
  return 0;
}
