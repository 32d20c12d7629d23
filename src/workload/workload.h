// Workload construction (paper section VII-A).
//
// Ties a contact trace to the pub-sub population:
//   - every node is interested in exactly one key, drawn from the key
//     popularity distribution;
//   - every node produces messages at a rate proportional to its degree
//     centrality: R_i = R_hat * C_i / C_hat, where R_hat = 1 message per
//     30 minutes is the rate of the least-central node (centrality C_hat);
//   - message keys are drawn from the same popularity distribution, sizes
//     uniform in [1, 140] bytes;
//   - the whole schedule is materialized up front so that protocol runs are
//     deterministic and directly comparable across protocols.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "trace/trace.h"
#include "util/rng.h"
#include "util/time.h"
#include "workload/keys.h"
#include "workload/message.h"

namespace bsub::workload {

struct WorkloadConfig {
  /// Base production rate R_hat for the minimum-centrality node.
  double base_rate_per_minute = 1.0 / 30.0;
  /// Message TTL (= maximum tolerable delay), applied to every message.
  util::Time ttl = 20 * util::kHour;
  /// Distinct interests per node. The paper's simulation uses 1; section
  /// V-A notes the multi-key extension is straightforward, and the B-SUB
  /// filters handle it natively (a genuine filter holds several keys).
  std::uint32_t interests_per_node = 1;
  std::uint64_t seed = 7;
};

/// A fully materialized workload over a trace.
class Workload {
 public:
  Workload(const trace::ContactTrace& trace, const KeySet& keys,
           const WorkloadConfig& config);

  /// Explicit construction for custom scenarios: `interests[n]` is node n's
  /// single key; `messages` need not be sorted (they will be, and
  /// re-numbered with dense ids in time order). Throws util::ConfigError
  /// unless there is one interest per node, every interest and message key
  /// is in `keys`, and every producer is below `node_count`.
  Workload(const KeySet& keys, std::size_t node_count,
           std::vector<KeyId> interests, std::vector<Message> messages);

  /// Explicit construction with multiple interests per node (each inner
  /// vector must be non-empty); same checks as above.
  Workload(const KeySet& keys, std::size_t node_count,
           std::vector<std::vector<KeyId>> interests,
           std::vector<Message> messages);

  const KeySet& keys() const { return *keys_; }

  std::size_t node_count() const { return interest_offsets_.size() - 1; }

  /// The node's primary interest (the first of its keys).
  KeyId interest_of(trace::NodeId node) const {
    return interest_flat_[interest_offsets_[node]];
  }

  /// All keys the node subscribes to (>= 1). Subscriptions are stored
  /// CSR-style (one offset array over one flat key array) so a node costs
  /// 4 bytes of index instead of a vector header plus its own heap block.
  std::span<const KeyId> interests_of(trace::NodeId node) const {
    return {interest_flat_.data() + interest_offsets_[node],
            interest_offsets_[node + 1] - interest_offsets_[node]};
  }

  /// True if the node subscribes to the key.
  bool is_interested(trace::NodeId node, KeyId key) const;

  /// Nodes subscribed to a key.
  const std::vector<trace::NodeId>& subscribers_of(KeyId key) const {
    return subscribers_[key];
  }

  /// Messages in creation-time order.
  const std::vector<Message>& messages() const { return messages_; }

  /// Per-node degree centrality used for the rates.
  const std::vector<double>& centrality() const { return centrality_; }

  /// Number of (message, interested consumer) pairs, the delivery-ratio
  /// denominator. A producer is not its own consumer.
  std::uint64_t expected_deliveries() const;

 private:
  void index_subscribers();
  void sort_and_renumber();

  const KeySet* keys_;
  /// CSR subscriptions: node n's keys are
  /// interest_flat_[interest_offsets_[n] .. interest_offsets_[n+1]).
  std::vector<std::uint32_t> interest_offsets_;
  std::vector<KeyId> interest_flat_;
  std::vector<std::vector<trace::NodeId>> subscribers_;
  std::vector<Message> messages_;
  std::vector<double> centrality_;
};

}  // namespace bsub::workload
