// Fleet UDP data plane: many node endpoints multiplexed over few sockets,
// with batched syscalls.
//
// One UdpTransport per node costs one socket, one pollfd slot and one
// recvfrom per datagram per node — fine for a daemon, ruinous for 10k
// in-process nodes. The fleet plane changes both axes:
//
//   sockets   Every reactor thread owns ONE socket (127.0.0.1,
//             base_port + shard). Node addressing moves into a 10-byte mux
//             header (magic 0xF5, version, src node, dst node) prepended to
//             each session datagram; a node's home shard is
//             node % shard_count, so any sender can compute any
//             destination's socket address.
//
//   syscalls  Sends are queued per shard and flushed once per reactor loop
//             iteration (sooner when `batch_burst` datagrams are queued)
//             with sendmmsg(); the readable upcall drains the socket with
//             recvmmsg() into a reusable scatter array. One syscall moves
//             up to `batch_burst` datagrams. Builds without those calls
//             (non-Linux) flush and drain the same queue and scatter array
//             with per-datagram sendto()/recv() loops. The queue is one
//             byte buffer plus a (destination, offset, size) list, and the
//             syscall arrays are built in shard-owned scratch, so a warm
//             shard allocates nothing per datagram or per burst.
//
// Each node sees the plane through a FleetPort — a Transport whose
// endpoints are node ids — so Session/NodeRuntime code is identical over
// loopback, a daemon's UdpTransport, and the fleet mux. Delivery is
// best-effort exactly like UDP: a full send queue or socket buffer drops
// the datagram (counted), and the session RTO ladder recovers.
//
// Threading: a FleetUdpShard and all its ports belong to one reactor
// thread; cross-shard traffic crosses via the kernel, not shared memory.
// Datagram/frame accounting stays where it always was — in the sessions'
// shared TransportCounters; the shard only tallies its own syscall shape
// and transport-level drops (like LoopbackHub does).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "net/reactor.h"
#include "net/transport.h"

// Forward-declare enough of sockaddr_in to keep socket headers out of
// dependents. (The .cpp includes the real ones.)
struct sockaddr_in;

namespace bsub::net {

inline constexpr std::uint8_t kFleetMagic = 0xF5;
inline constexpr std::uint8_t kFleetVersion = 1;
/// magic + version + u32 src node + u32 dst node (little-endian).
inline constexpr std::size_t kFleetHeaderBytes = 10;

struct FleetUdpConfig {
  std::uint16_t base_port = 45000;
  std::uint32_t ipv4 = 0x7F000001;  ///< host order; default 127.0.0.1
  /// Max inner (session) datagram; the wire adds kFleetHeaderBytes.
  std::size_t mtu = 1400;
  /// Datagrams per sendmmsg/recvmmsg call, and the send-queue depth that
  /// triggers a flush before the loop iteration ends.
  std::size_t batch_burst = 64;
  /// SO_SNDBUF / SO_RCVBUF request per socket; 0 leaves the kernel default.
  int socket_buffer_bytes = 1 << 20;

  /// Throws util::ConfigError when batch_burst or mtu is out of range.
  void validate() const;
};

class FleetUdpShard;

/// One node's view of the fleet plane. Endpoints are node ids.
class FleetPort final : public Transport {
 public:
  bool send(Endpoint to, std::span<const std::uint8_t> datagram) override;
  std::size_t max_datagram_bytes() const override;
  Endpoint local_endpoint() const override { return node_; }
  void set_receive_handler(ReceiveHandler handler) override {
    handler_ = std::move(handler);
  }

 private:
  friend class FleetUdpShard;
  FleetPort(FleetUdpShard& shard, std::uint32_t node)
      : shard_(shard), node_(node) {}

  FleetUdpShard& shard_;
  std::uint32_t node_;
  ReceiveHandler handler_;
};

/// The per-reactor-thread slice of the fleet plane: the shard's socket, its
/// local nodes' ports, the send queue and the receive scatter array.
class FleetUdpShard {
 public:
  FleetUdpShard(Reactor& reactor, std::size_t shard_index,
                std::size_t shard_count, FleetUdpConfig config);
  ~FleetUdpShard();

  FleetUdpShard(const FleetUdpShard&) = delete;
  FleetUdpShard& operator=(const FleetUdpShard&) = delete;

  /// Creates the port for a node homed on this shard. The node id must
  /// belong to this shard (node % shard_count == shard_index).
  FleetPort& add_node(std::uint32_t node);

  FleetPort* port(std::uint32_t node);

  /// Drains the send queue (no-op when empty). Call once per reactor loop
  /// iteration, after dispatch.
  void flush();

  std::size_t local_nodes() const { return ports_.size(); }

  // Syscall-shape tallies for the bench harness.
  std::uint64_t send_syscalls() const { return send_syscalls_; }
  std::uint64_t recv_syscalls() const { return recv_syscalls_; }
  std::uint64_t datagrams_out() const { return datagrams_out_; }
  std::uint64_t datagrams_in() const { return datagrams_in_; }
  std::uint64_t sendq_drops() const { return sendq_drops_; }
  std::uint64_t unroutable_drops() const { return unroutable_drops_; }

 private:
  friend class FleetPort;

  /// A queued datagram: header + payload at sendq_bytes_[offset, +size).
  struct PendingSend {
    std::uint32_t dst_node;
    std::size_t offset;
    std::size_t size;
  };
  /// Reusable syscall arrays, batch_burst entries each (defined in the
  /// .cpp, where the socket headers are).
  struct Scratch;

  bool submit(FleetPort& port, Endpoint to,
              std::span<const std::uint8_t> payload);
  /// Removes the first `done` queued datagrams (sent or shed).
  void drop_sent(std::size_t done);
  /// Drains the socket in bursts of up to batch_burst datagrams.
  void on_readable();
  /// Routes one wire datagram (header included) to its local port.
  void dispatch(std::span<const std::uint8_t> wire);
  int make_socket(std::uint16_t port) const;
  void fill_addr(std::uint32_t node, sockaddr_in& out) const;

  Reactor& reactor_;
  FleetUdpConfig config_;
  std::size_t shard_index_;
  std::size_t shard_count_;
  int fd_ = -1;  ///< the shard's socket
  std::unordered_map<std::uint32_t, std::unique_ptr<FleetPort>> ports_;
  std::vector<PendingSend> sendq_;
  std::vector<std::uint8_t> sendq_bytes_;
  /// batch_burst receive buffers of mtu + header + 1 bytes each.
  std::vector<std::vector<std::uint8_t>> scatter_;
  std::unique_ptr<Scratch> scratch_;

  std::uint64_t send_syscalls_ = 0;
  std::uint64_t recv_syscalls_ = 0;
  std::uint64_t datagrams_out_ = 0;
  std::uint64_t datagrams_in_ = 0;
  std::uint64_t sendq_drops_ = 0;
  std::uint64_t unroutable_drops_ = 0;
};

}  // namespace bsub::net
