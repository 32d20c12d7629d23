// Datagram transport contract for the live runtime.
//
// A Transport moves opaque, unreliable, unordered-in-principle datagrams of
// bounded size between endpoints. Everything above it (fragmentation,
// sessions, the node runtime) is backend-agnostic; the two backends are
//
//   LoopbackTransport  deterministic in-memory hub (tests, fleet lanes),
//   UdpTransport       real IPv4/UDP sockets (bsub_node daemon).
//
// Endpoints are opaque 64-bit addresses. The loopback hub uses small
// integers; UDP packs (ipv4 << 16) | port. An endpoint identifies a peer
// for the lifetime of a session.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>

namespace bsub::net {

using Endpoint = std::uint64_t;

/// Packs an IPv4 address (host byte order) and port into an Endpoint.
constexpr Endpoint make_udp_endpoint(std::uint32_t ipv4_host_order,
                                     std::uint16_t port) {
  return (static_cast<Endpoint>(ipv4_host_order) << 16) | port;
}
constexpr std::uint32_t endpoint_ipv4(Endpoint ep) {
  return static_cast<std::uint32_t>(ep >> 16);
}
constexpr std::uint16_t endpoint_port(Endpoint ep) {
  return static_cast<std::uint16_t>(ep & 0xFFFF);
}

/// "a.b.c.d:port" <-> Endpoint helpers (numeric IPv4 only). parse returns
/// false on malformed input instead of throwing: addresses come from CLI
/// flags, not from the wire.
bool parse_udp_endpoint(const std::string& text, Endpoint& out);
std::string format_udp_endpoint(Endpoint ep);

class Transport {
 public:
  using ReceiveHandler =
      std::function<void(Endpoint from, std::span<const std::uint8_t>)>;

  virtual ~Transport() = default;

  /// Best-effort datagram send; false means locally refused (oversized or
  /// the backend failed synchronously). True does NOT imply delivery. The
  /// datagram is copied, queued or sent before send() returns, and never
  /// delivered from inside it, so senders may reuse one buffer.
  virtual bool send(Endpoint to, std::span<const std::uint8_t> datagram) = 0;

  /// Largest datagram send() accepts — the MTU the fragmenter packs to.
  virtual std::size_t max_datagram_bytes() const = 0;

  virtual Endpoint local_endpoint() const = 0;

  /// Installs the upcall for received datagrams. The span is only valid for
  /// the duration of the call.
  virtual void set_receive_handler(ReceiveHandler handler) = 0;
};

}  // namespace bsub::net
