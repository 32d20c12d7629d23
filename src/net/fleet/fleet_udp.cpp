#include "net/fleet/fleet_udp.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>

#include "util/errors.h"

namespace bsub::net {

namespace {

/// Send queue backstop: beyond this the plane sheds load like a full
/// socket buffer would (counted drops; the session RTO recovers).
constexpr std::size_t kMaxSendQueue = 8192;

[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error(std::string("FleetUdpShard: ") + what + ": " +
                           std::strerror(errno));
}

void put_u32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

void FleetUdpConfig::validate() const {
  if (batch_burst == 0 || batch_burst > 1024) {
    throw util::ConfigError("batch_burst must be in [1, 1024]",
                            "fleet.batch_burst", "use the default (64)");
  }
  if (mtu < 64 || mtu > 65000) {
    throw util::ConfigError("fleet mtu must be in [64, 65000]", "fleet.mtu",
                            "use the default (1400)");
  }
}

struct FleetUdpShard::Scratch {
#if defined(__linux__)
  // Send and receive keep separate arrays: a receive burst's dispatch may
  // fill the send queue and flush it mid-burst.
  std::vector<sockaddr_in> addrs;
  std::vector<iovec> send_iovs;
  std::vector<mmsghdr> send_msgs;
  std::vector<iovec> recv_iovs;
  std::vector<mmsghdr> recv_msgs;

  explicit Scratch(std::size_t burst)
      : addrs(burst), send_iovs(burst), send_msgs(burst), recv_iovs(burst),
        recv_msgs(burst) {}
#else
  explicit Scratch(std::size_t) {}
#endif
};

bool FleetPort::send(Endpoint to, std::span<const std::uint8_t> datagram) {
  return shard_.submit(*this, to, datagram);
}

std::size_t FleetPort::max_datagram_bytes() const {
  return shard_.config_.mtu;
}

FleetUdpShard::FleetUdpShard(Reactor& reactor, std::size_t shard_index,
                             std::size_t shard_count, FleetUdpConfig config)
    : reactor_(reactor), config_(config), shard_index_(shard_index),
      shard_count_(shard_count) {
  config_.validate();
  // One spare byte per buffer so an oversize datagram reads as oversize
  // (and is dropped) rather than arriving truncated.
  const std::size_t buffer_bytes = config_.mtu + kFleetHeaderBytes + 1;
  scatter_.assign(config_.batch_burst,
                  std::vector<std::uint8_t>(buffer_bytes));
  scratch_ = std::make_unique<Scratch>(config_.batch_burst);
  sendq_.reserve(config_.batch_burst);
  fd_ = make_socket(
      static_cast<std::uint16_t>(config_.base_port + shard_index_));
  reactor_.add_fd(fd_, [this] { on_readable(); });
}

FleetUdpShard::~FleetUdpShard() {
  flush();
  reactor_.remove_fd(fd_);
  ::close(fd_);
}

int FleetUdpShard::make_socket(std::uint16_t port) const {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) throw_errno("socket");
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("fcntl(O_NONBLOCK)");
  }
  if (config_.socket_buffer_bytes > 0) {
    // Best-effort: the kernel clamps to its limits; a smaller buffer only
    // means more (counted, recovered) drops under burst.
    (void)::setsockopt(fd, SOL_SOCKET, SO_SNDBUF,
                       &config_.socket_buffer_bytes,
                       sizeof(config_.socket_buffer_bytes));
    (void)::setsockopt(fd, SOL_SOCKET, SO_RCVBUF,
                       &config_.socket_buffer_bytes,
                       sizeof(config_.socket_buffer_bytes));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(config_.ipv4);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("bind");
  }
  return fd;
}

void FleetUdpShard::fill_addr(std::uint32_t node, sockaddr_in& out) const {
  const auto port =
      static_cast<std::uint16_t>(config_.base_port + node % shard_count_);
  std::memset(&out, 0, sizeof(out));
  out.sin_family = AF_INET;
  out.sin_addr.s_addr = htonl(config_.ipv4);
  out.sin_port = htons(port);
}

FleetPort& FleetUdpShard::add_node(std::uint32_t node) {
  if (node % shard_count_ != shard_index_) {
    throw std::invalid_argument("FleetUdpShard: node not homed here");
  }
  auto [it, inserted] = ports_.emplace(
      node, std::unique_ptr<FleetPort>(new FleetPort(*this, node)));
  if (!inserted) {
    throw std::invalid_argument("FleetUdpShard: duplicate node");
  }
  return *it->second;
}

FleetPort* FleetUdpShard::port(std::uint32_t node) {
  auto it = ports_.find(node);
  return it == ports_.end() ? nullptr : it->second.get();
}

bool FleetUdpShard::submit(FleetPort& port, Endpoint to,
                           std::span<const std::uint8_t> payload) {
  if (payload.size() > config_.mtu) return false;
  const auto dst = static_cast<std::uint32_t>(to);
  if (sendq_.size() >= kMaxSendQueue) {
    flush();
    if (sendq_.size() >= kMaxSendQueue) {
      ++sendq_drops_;
      return false;  // shed load like a full socket buffer
    }
  }
  const std::size_t offset = sendq_bytes_.size();
  sendq_bytes_.resize(offset + kFleetHeaderBytes + payload.size());
  std::uint8_t* p = sendq_bytes_.data() + offset;
  p[0] = kFleetMagic;
  p[1] = kFleetVersion;
  put_u32(p + 2, port.node_);
  put_u32(p + 6, dst);
  std::memcpy(p + kFleetHeaderBytes, payload.data(), payload.size());
  sendq_.push_back({dst, offset, kFleetHeaderBytes + payload.size()});
  if (sendq_.size() >= config_.batch_burst) flush();
  return true;
}

void FleetUdpShard::flush() {
  if (sendq_.empty()) return;
#if defined(__linux__)
  std::size_t done = 0;
  std::vector<sockaddr_in>& addrs = scratch_->addrs;
  std::vector<iovec>& iovs = scratch_->send_iovs;
  std::vector<mmsghdr>& msgs = scratch_->send_msgs;
  while (done < sendq_.size()) {
    const std::size_t burst =
        std::min(config_.batch_burst, sendq_.size() - done);
    for (std::size_t i = 0; i < burst; ++i) {
      const PendingSend& p = sendq_[done + i];
      fill_addr(p.dst_node, addrs[i]);
      iovs[i].iov_base = sendq_bytes_.data() + p.offset;
      iovs[i].iov_len = p.size;
      std::memset(&msgs[i], 0, sizeof(msgs[i]));
      msgs[i].msg_hdr.msg_name = &addrs[i];
      msgs[i].msg_hdr.msg_namelen = sizeof(addrs[i]);
      msgs[i].msg_hdr.msg_iov = &iovs[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
    }
    ++send_syscalls_;
    const int sent = ::sendmmsg(fd_, msgs.data(),
                                static_cast<unsigned>(burst), 0);
    if (sent < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;  // retry later
      // Hard error: shed this burst like lost datagrams (the sessions
      // already counted them as sent; the RTO ladder recovers).
      sendq_drops_ += burst;
      done += burst;
      continue;
    }
    datagrams_out_ += static_cast<std::uint64_t>(sent);
    done += static_cast<std::size_t>(sent);
    if (static_cast<std::size_t>(sent) < burst) break;  // buffer full
  }
  drop_sent(done);
#else
  // No sendmmsg on this platform: one sendto per queued datagram. A refused
  // datagram is shed like a lost one (the session already counted it sent).
  for (const PendingSend& p : sendq_) {
    sockaddr_in addr;
    fill_addr(p.dst_node, addr);
    ++send_syscalls_;
    const ssize_t n =
        ::sendto(fd_, sendq_bytes_.data() + p.offset, p.size, 0,
                 reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
    if (n == static_cast<ssize_t>(p.size)) {
      ++datagrams_out_;
    } else {
      ++sendq_drops_;
    }
  }
  drop_sent(sendq_.size());
#endif
}

void FleetUdpShard::drop_sent(std::size_t done) {
  if (done == sendq_.size()) {
    sendq_.clear();
    sendq_bytes_.clear();
    return;
  }
  // A partial flush (socket buffer full): the rest moves to the front.
  const std::size_t cut = sendq_[done].offset;
  sendq_.erase(sendq_.begin(),
               sendq_.begin() + static_cast<std::ptrdiff_t>(done));
  sendq_bytes_.erase(sendq_bytes_.begin(),
                     sendq_bytes_.begin() + static_cast<std::ptrdiff_t>(cut));
  for (PendingSend& p : sendq_) p.offset -= cut;
}

void FleetUdpShard::on_readable() {
#if defined(__linux__)
  const std::size_t burst = scatter_.size();
  std::vector<iovec>& iovs = scratch_->recv_iovs;
  std::vector<mmsghdr>& msgs = scratch_->recv_msgs;
  for (;;) {
    for (std::size_t i = 0; i < burst; ++i) {
      iovs[i].iov_base = scatter_[i].data();
      iovs[i].iov_len = scatter_[i].size();
      std::memset(&msgs[i], 0, sizeof(msgs[i]));
      msgs[i].msg_hdr.msg_iov = &iovs[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
    }
    ++recv_syscalls_;
    const int n = ::recvmmsg(fd_, msgs.data(), static_cast<unsigned>(burst),
                             0, nullptr);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN: drained
    }
    for (int i = 0; i < n; ++i) {
      ++datagrams_in_;
      dispatch(std::span<const std::uint8_t>(scatter_[i].data(),
                                             msgs[i].msg_len));
    }
    if (static_cast<std::size_t>(n) < burst) return;  // socket drained
  }
#else
  // No recvmmsg on this platform: one recv per datagram into the first
  // scatter buffer.
  std::vector<std::uint8_t>& buf = scatter_.front();
  for (;;) {
    ++recv_syscalls_;
    const ssize_t n = ::recv(fd_, buf.data(), buf.size(), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or transient error; the next readiness retries
    }
    if (n == 0) continue;
    ++datagrams_in_;
    dispatch(std::span<const std::uint8_t>(buf.data(),
                                           static_cast<std::size_t>(n)));
  }
#endif
}

void FleetUdpShard::dispatch(std::span<const std::uint8_t> wire) {
  if (wire.size() < kFleetHeaderBytes ||
      wire.size() > config_.mtu + kFleetHeaderBytes ||
      wire[0] != kFleetMagic || wire[1] != kFleetVersion) {
    ++unroutable_drops_;
    return;
  }
  const std::uint32_t src = get_u32(wire.data() + 2);
  const std::uint32_t dst = get_u32(wire.data() + 6);
  auto it = ports_.find(dst);
  if (it == ports_.end() || !it->second->handler_) {
    ++unroutable_drops_;
    return;
  }
  it->second->handler_(static_cast<Endpoint>(src),
                       wire.subspan(kFleetHeaderBytes));
}

}  // namespace bsub::net
