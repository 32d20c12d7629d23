#include "engine/network.h"

#include <stdexcept>

namespace bsub::engine {

BsubNode& Network::add_node(NodeId id) {
  auto [it, inserted] =
      nodes_.emplace(id, std::make_unique<BsubNode>(id, node_config_));
  if (!inserted) throw std::invalid_argument("Network: duplicate node id");
  BsubNode* node = it->second.get();
  node->set_delivery_handler(
      [this, id](const ContentMessage& msg, util::Time at) {
        deliveries_.push_back(DeliveryRecord{id, msg.id, msg.key, at});
      });
  return *node;
}

BsubNode& Network::node(NodeId id) {
  auto it = nodes_.find(id);
  if (it == nodes_.end()) throw std::out_of_range("Network: unknown node");
  return *it->second;
}

const BsubNode& Network::node(NodeId id) const {
  auto it = nodes_.find(id);
  if (it == nodes_.end()) throw std::out_of_range("Network: unknown node");
  return *it->second;
}

ContactReport Network::contact(NodeId a, NodeId b, util::Time now,
                               util::Time duration,
                               double bandwidth_bytes_per_second) {
  BsubNode& na = node(a);
  BsubNode& nb = node(b);
  sim::Link link(duration, bandwidth_bytes_per_second);
  ContactReport report;

  // Frames in flight, FIFO. A node's output frames live only until its next
  // step, so they are copied into one byte arena; both are the calling
  // thread's (contacts on other threads run their own).
  struct Pending {
    BsubNode* to;
    std::size_t offset;
    std::size_t size;
  };
  thread_local std::vector<std::uint8_t> arena;
  thread_local std::vector<Pending> queue;
  arena.clear();
  queue.clear();
  auto put = [&](BsubNode& to, Frames frames) {
    for (const auto& f : frames) {
      queue.push_back({&to, arena.size(), f.size()});
      arena.insert(arena.end(), f.begin(), f.end());
    }
  };
  put(nb, na.begin_contact(now));
  put(na, nb.begin_contact(now));

  // Frame exchanges terminate naturally (data/genuine frames produce no
  // responses), but cap the rounds defensively.
  std::size_t safety = 100000;
  for (std::size_t head = 0; head < queue.size() && safety-- > 0; ++head) {
    const Pending p = queue[head];
    if (!link.try_send(p.size)) {
      ++report.frames_dropped;
      continue;  // later (smaller) frames may still fit
    }
    ++report.frames_delivered;
    BsubNode& other = (p.to == &na) ? nb : na;
    put(other, p.to->handle(std::span<const std::uint8_t>(
                                 arena.data() + p.offset, p.size),
                             now));
  }
  report.bytes_used = link.used_bytes();
  return report;
}

}  // namespace bsub::engine
