#include "workload/workload.h"

#include <algorithm>
#include <cassert>
#include <string>
#include <tuple>

#include "trace/centrality.h"
#include "util/errors.h"

namespace bsub::workload {

namespace {

[[noreturn]] void reject(const std::string& what, const char* field,
                         const std::string& constraint) {
  throw util::ConfigError("invalid workload: " + what, field, constraint);
}

void check_interest_count(std::size_t interests, std::size_t node_count) {
  if (interests != node_count) {
    reject(std::to_string(interests) + " interest entries for " +
               std::to_string(node_count) + " nodes",
           "interests", "one entry per node");
  }
}

void check_key(KeyId key, const KeySet& keys, const char* field) {
  if (key >= keys.size()) {
    reject("key " + std::to_string(key) + " outside the key set", field,
           "< " + std::to_string(keys.size()));
  }
}

void check_messages(const std::vector<Message>& messages, const KeySet& keys,
                    std::size_t node_count) {
  for (const Message& m : messages) {
    check_key(m.key, keys, "message.key");
    if (m.producer >= node_count) {
      reject("producer " + std::to_string(m.producer) + " outside the " +
                 std::to_string(node_count) + " nodes",
             "message.producer", "< " + std::to_string(node_count));
    }
  }
}

}  // namespace

Workload::Workload(const trace::ContactTrace& trace, const KeySet& keys,
                   const WorkloadConfig& config)
    : keys_(&keys) {
  assert(config.interests_per_node >= 1);
  const std::size_t n = trace.node_count();
  util::Rng rng(config.seed);
  util::Rng interest_rng = rng.split(1);
  util::Rng schedule_rng = rng.split(2);

  // Interests: `interests_per_node` distinct keys per node, drawn by
  // popularity (rejection on duplicates, capped by the key universe).
  const std::uint32_t per_node = static_cast<std::uint32_t>(
      std::min<std::size_t>(config.interests_per_node, keys.size()));
  interest_offsets_.reserve(n + 1);
  interest_offsets_.push_back(0);
  interest_flat_.reserve(n * per_node);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t start = interest_flat_.size();
    while (interest_flat_.size() - start < per_node) {
      KeyId k = keys.sample(interest_rng);
      if (std::find(interest_flat_.begin() + start, interest_flat_.end(),
                    k) == interest_flat_.end()) {
        interest_flat_.push_back(k);
      }
    }
    interest_offsets_.push_back(
        static_cast<std::uint32_t>(interest_flat_.size()));
  }
  index_subscribers();

  // Rates proportional to centrality; isolated nodes (centrality 0) produce
  // at the base rate, matching the paper's "minimum rate for the smallest
  // centrality" convention.
  centrality_ = trace::degree_centrality(trace);
  double min_positive = 0.0;
  for (double c : centrality_) {
    if (c > 0.0 && (min_positive == 0.0 || c < min_positive)) {
      min_positive = c;
    }
  }
  if (min_positive == 0.0) min_positive = 1.0;

  const util::Time horizon = trace.end_time();
  const util::Time origin = trace.start_time();
  for (std::size_t i = 0; i < n; ++i) {
    double scale = centrality_[i] > 0.0 ? centrality_[i] / min_positive : 1.0;
    double rate_per_ms = config.base_rate_per_minute * scale /
                         static_cast<double>(util::kMinute);
    if (rate_per_ms <= 0.0) continue;
    // Poisson arrivals over [origin, horizon).
    double t = static_cast<double>(origin);
    for (;;) {
      t += schedule_rng.next_exponential(rate_per_ms);
      if (t >= static_cast<double>(horizon)) break;
      Message msg;
      msg.key = keys.sample(schedule_rng);
      msg.producer = static_cast<trace::NodeId>(i);
      msg.size_bytes = static_cast<std::uint32_t>(
          schedule_rng.next_int(1, kMaxMessageBytes));
      msg.created = static_cast<util::Time>(t);
      msg.ttl = config.ttl;
      messages_.push_back(msg);
    }
  }
  sort_and_renumber();
}

Workload::Workload(const KeySet& keys, std::size_t node_count,
                   std::vector<KeyId> interests,
                   std::vector<Message> messages)
    : keys_(&keys), interest_flat_(std::move(interests)),
      messages_(std::move(messages)), centrality_(node_count, 0.0) {
  check_interest_count(interest_flat_.size(), node_count);
  for (KeyId k : interest_flat_) check_key(k, keys, "interests");
  check_messages(messages_, keys, node_count);
  // One key per node: the CSR offsets are simply 0..n.
  interest_offsets_.resize(node_count + 1);
  for (std::size_t i = 0; i <= node_count; ++i) {
    interest_offsets_[i] = static_cast<std::uint32_t>(i);
  }
  index_subscribers();
  sort_and_renumber();
}

Workload::Workload(const KeySet& keys, std::size_t node_count,
                   std::vector<std::vector<KeyId>> interests,
                   std::vector<Message> messages)
    : keys_(&keys), messages_(std::move(messages)),
      centrality_(node_count, 0.0) {
  check_interest_count(interests.size(), node_count);
  check_messages(messages_, keys, node_count);
  interest_offsets_.reserve(node_count + 1);
  interest_offsets_.push_back(0);
  for (const auto& keys_of_node : interests) {
    assert(!keys_of_node.empty());
    for (KeyId k : keys_of_node) check_key(k, keys, "interests");
    interest_flat_.insert(interest_flat_.end(), keys_of_node.begin(),
                          keys_of_node.end());
    interest_offsets_.push_back(
        static_cast<std::uint32_t>(interest_flat_.size()));
  }
  index_subscribers();
  sort_and_renumber();
}

void Workload::index_subscribers() {
  subscribers_.assign(keys_->size(), {});
  for (std::size_t i = 0; i + 1 < interest_offsets_.size(); ++i) {
    for (KeyId k : interests_of(static_cast<trace::NodeId>(i))) {
      subscribers_[k].push_back(static_cast<trace::NodeId>(i));
    }
  }
}

void Workload::sort_and_renumber() {
  std::sort(messages_.begin(), messages_.end(),
            [](const Message& x, const Message& y) {
              return std::tie(x.created, x.id) < std::tie(y.created, y.id);
            });
  for (std::size_t i = 0; i < messages_.size(); ++i) {
    messages_[i].id = static_cast<MessageId>(i);
  }
}

bool Workload::is_interested(trace::NodeId node, KeyId key) const {
  const std::span<const KeyId> keys_of_node = interests_of(node);
  return std::find(keys_of_node.begin(), keys_of_node.end(), key) !=
         keys_of_node.end();
}

std::uint64_t Workload::expected_deliveries() const {
  std::uint64_t total = 0;
  for (const Message& m : messages_) {
    for (trace::NodeId s : subscribers_[m.key]) {
      if (s != m.producer) ++total;
    }
  }
  return total;
}

}  // namespace bsub::workload
