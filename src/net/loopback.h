// Deterministic in-memory transport: a hub of endpoints exchanging
// datagrams through one global FIFO queue.
//
// The hub is the test double for the network itself. Determinism comes from
// three properties: sends append to a single FIFO in call order, delivery
// pops strictly from the front, and loss is decided per-datagram by a
// seeded Rng at delivery time — so a (trace, seed) pair always produces the
// same sequence of deliveries and drops. This mirrors how the engine's
// Network harness processes a contact's frames, which is what makes the
// live loopback runtime bit-for-bit comparable to it.
//
// The queue is a ring of datagram slots that keep their byte buffers, and
// receivers are found by hash, so a warm hub moves datagrams without
// allocating and in O(1) per datagram however many endpoints it holds.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "net/transport.h"
#include "util/rng.h"

namespace bsub::net {

class LoopbackTransport;

class LoopbackHub {
 public:
  struct Config {
    std::size_t mtu = 1400;         ///< max datagram bytes, like UDP
    double loss_probability = 0.0;  ///< per-datagram drop chance
    std::uint64_t loss_seed = 1;    ///< Rng seed for the drop sequence
  };

  LoopbackHub();  // defaults (gcc rejects `= {}` for a nested struct here)
  explicit LoopbackHub(Config config);
  ~LoopbackHub();

  /// Creates (and owns) a transport bound to `ep`; ids must be unique.
  LoopbackTransport& attach(Endpoint ep);

  /// The transport attached at `ep`, or null.
  LoopbackTransport* find(Endpoint ep) const;

  /// Delivers (or drops, per the loss draw) the front datagram. Returns
  /// false when the queue is empty. Receive handlers may send, but not
  /// deliver.
  bool deliver_one();

  /// Drains the queue, including datagrams enqueued by receive handlers
  /// while draining. Returns the number of datagrams delivered.
  std::size_t deliver_all();

  bool idle() const { return queued_ == 0; }

  // Tallies (lifetime).
  std::uint64_t enqueued() const { return enqueued_; }
  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t dropped_loss() const { return dropped_loss_; }
  std::uint64_t dropped_unroutable() const { return dropped_unroutable_; }

 private:
  friend class LoopbackTransport;

  struct Datagram {
    Endpoint from;
    Endpoint to;
    std::vector<std::uint8_t> bytes;
  };

  bool enqueue(Endpoint from, Endpoint to,
               std::span<const std::uint8_t> bytes);

  Config config_;
  std::unordered_map<Endpoint, std::unique_ptr<LoopbackTransport>>
      transports_;
  /// FIFO ring: queued_ datagrams from ring_[head_] on, wrapping. Slots
  /// keep their byte buffers when popped.
  std::vector<Datagram> ring_;
  std::size_t head_ = 0;
  std::size_t queued_ = 0;
  /// The datagram being delivered, swapped out of its slot so a receive
  /// handler's sends cannot overwrite it.
  Datagram current_;
  util::Rng loss_rng_;
  std::uint64_t enqueued_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_loss_ = 0;
  std::uint64_t dropped_unroutable_ = 0;
};

class LoopbackTransport final : public Transport {
 public:
  bool send(Endpoint to, std::span<const std::uint8_t> datagram) override;
  std::size_t max_datagram_bytes() const override;
  Endpoint local_endpoint() const override { return endpoint_; }
  void set_receive_handler(ReceiveHandler handler) override {
    handler_ = std::move(handler);
  }

 private:
  friend class LoopbackHub;
  LoopbackTransport(LoopbackHub& hub, Endpoint ep)
      : hub_(hub), endpoint_(ep) {}

  LoopbackHub& hub_;
  Endpoint endpoint_;
  ReceiveHandler handler_;
};

}  // namespace bsub::net
