#include "net/loopback.h"

#include <algorithm>
#include <stdexcept>

namespace bsub::net {

LoopbackHub::LoopbackHub() : LoopbackHub(Config{}) {}

LoopbackHub::LoopbackHub(Config config)
    : config_(config), loss_rng_(config.loss_seed) {}

LoopbackHub::~LoopbackHub() = default;

LoopbackTransport& LoopbackHub::attach(Endpoint ep) {
  auto [it, inserted] = transports_.emplace(
      ep, std::unique_ptr<LoopbackTransport>(new LoopbackTransport(*this, ep)));
  if (!inserted) {
    throw std::invalid_argument("LoopbackHub: duplicate endpoint");
  }
  return *it->second;
}

LoopbackTransport* LoopbackHub::find(Endpoint ep) const {
  auto it = transports_.find(ep);
  return it == transports_.end() ? nullptr : it->second.get();
}

bool LoopbackHub::enqueue(Endpoint from, Endpoint to,
                          std::span<const std::uint8_t> bytes) {
  if (bytes.size() > config_.mtu) return false;
  if (queued_ == ring_.size()) {
    // Full: unwrap the ring to start at slot 0, then double it.
    std::rotate(ring_.begin(),
                ring_.begin() + static_cast<std::ptrdiff_t>(head_),
                ring_.end());
    head_ = 0;
    ring_.resize(std::max<std::size_t>(16, 2 * ring_.size()));
  }
  Datagram& d = ring_[(head_ + queued_) % ring_.size()];
  d.from = from;
  d.to = to;
  d.bytes.assign(bytes.begin(), bytes.end());
  ++queued_;
  ++enqueued_;
  return true;
}

bool LoopbackHub::deliver_one() {
  if (queued_ == 0) return false;
  std::swap(current_, ring_[head_]);
  head_ = (head_ + 1) % ring_.size();
  --queued_;
  // The loss draw happens even for unroutable datagrams so the drop
  // sequence depends only on send order, not on topology.
  const bool lost = config_.loss_probability > 0.0 &&
                    loss_rng_.next_bool(config_.loss_probability);
  if (lost) {
    ++dropped_loss_;
    return true;
  }
  LoopbackTransport* to = find(current_.to);
  if (to == nullptr || !to->handler_) {
    ++dropped_unroutable_;
    return true;
  }
  ++delivered_;
  to->handler_(current_.from, current_.bytes);
  return true;
}

std::size_t LoopbackHub::deliver_all() {
  std::size_t n = 0;
  while (deliver_one()) ++n;
  return n;
}

bool LoopbackTransport::send(Endpoint to,
                             std::span<const std::uint8_t> datagram) {
  return hub_.enqueue(endpoint_, to, datagram);
}

std::size_t LoopbackTransport::max_datagram_bytes() const {
  return hub_.config_.mtu;
}

}  // namespace bsub::net
