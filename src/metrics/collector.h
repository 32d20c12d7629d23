// Metrics collection for protocol runs (paper section VII's four metrics):
// delivery ratio, delay of delivered messages, forwardings per delivered
// message, and the false-positive delivery rate — plus byte-level overhead
// accounting used in the memory/bandwidth discussions.
//
// Concurrency model (the parallel-engine determinism contract): the
// collector may be fed from several executor threads at once as long as no
// two concurrent events touch the same node — exactly what the parallel
// executor's dependency links guarantee. Two mechanisms keep N-thread runs
// byte-identical to serial runs:
//   - scalar tallies (forwardings, bytes, hot-path counters) are relaxed
//     atomics: integer sums commute exactly, so any execution order yields
//     the same totals;
//   - order-sensitive state (delivered-pair dedup, delay samples) is
//     partitioned per destination node. A node's deliveries can only happen
//     during that node's own contacts, which every schedule executes in
//     trace order, so each per-node log is deterministic; results() reduces
//     the logs in node-id order, a canonical order shared by serial and
//     parallel runs.
// reserve_nodes() must be called before any cross-thread recording; it
// pre-sizes the per-node partition so the hot path never reallocates.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "trace/contact.h"
#include "util/id_set.h"
#include "util/stats.h"
#include "util/time.h"
#include "workload/message.h"

namespace bsub::metrics {

/// A monotone event counter safe to bump from concurrent threads.
/// Relaxed ordering suffices: the counters are pure tallies, read only
/// after the run's final barrier.
class RelaxedCounter {
 public:
  RelaxedCounter() = default;
  RelaxedCounter(const RelaxedCounter&) = delete;
  RelaxedCounter& operator=(const RelaxedCounter&) = delete;

  RelaxedCounter& operator++() {
    v_.fetch_add(1, std::memory_order_relaxed);
    return *this;
  }
  RelaxedCounter& operator+=(std::uint64_t d) {
    v_.fetch_add(d, std::memory_order_relaxed);
    return *this;
  }
  std::uint64_t load() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Hot-path instrumentation for the contact-loop fast path. These counters
/// describe *how* a run executed (cache hits, skipped scans), never *what*
/// it computed, so they are excluded from every semantic comparison of
/// RunResults. payload_copies_made reads 0 (no protocol deep-copies a
/// payload); the benchmark reports it as a tripwire.
struct HotPathStats {
  std::uint64_t purge_scans_skipped = 0;  ///< purges with no due expiry
  std::uint64_t purge_scans_run = 0;      ///< purges that touched storage
  std::uint64_t encode_cache_hits = 0;    ///< wire encodings reused by epoch
  std::uint64_t encode_cache_misses = 0;  ///< wire encodings recomputed
  std::uint64_t payload_copies_avoided = 0;  ///< buffered via shared payload
  std::uint64_t payload_copies_made = 0;     ///< buffered via deep copy
  /// Buffered messages the key-bucketed protocols' contact steps examined
  /// (B-SUB's direct delivery, pickup and broker forwarding; PULL's pull;
  /// SPRAY's delivery and spray), each counting the entries of the key
  /// buckets it walked (purge pops only due ids and is not counted).
  std::uint64_t buffer_entries_visited = 0;

  void merge(const HotPathStats& o) {
    purge_scans_skipped += o.purge_scans_skipped;
    purge_scans_run += o.purge_scans_run;
    encode_cache_hits += o.encode_cache_hits;
    encode_cache_misses += o.encode_cache_misses;
    payload_copies_avoided += o.payload_copies_avoided;
    payload_copies_made += o.payload_copies_made;
    buffer_entries_visited += o.buffer_entries_visited;
  }
};

/// Transport-layer instrumentation for the live runtime (src/net): what the
/// datagram substrate did to move protocol frames. Like HotPathStats these
/// describe *how* traffic flowed (retries, losses, reassembly trouble) —
/// two runs may differ here while computing identical semantic results.
struct TransportStats {
  std::uint64_t datagrams_sent = 0;
  std::uint64_t datagrams_received = 0;
  std::uint64_t datagrams_dropped = 0;     ///< malformed, stale, or refused
  std::uint64_t frames_sent = 0;           ///< protocol frames offered OK
  std::uint64_t frames_received = 0;       ///< delivered in-order to a node
  std::uint64_t frames_retransmitted = 0;  ///< RTO-driven resends
  std::uint64_t frames_dropped = 0;        ///< contact byte budget exhausted
  std::uint64_t session_opens = 0;
  std::uint64_t session_timeouts = 0;      ///< peers declared lost
  std::uint64_t reassembly_failures = 0;   ///< inconsistent fragment sets

  void merge(const TransportStats& o) {
    datagrams_sent += o.datagrams_sent;
    datagrams_received += o.datagrams_received;
    datagrams_dropped += o.datagrams_dropped;
    frames_sent += o.frames_sent;
    frames_received += o.frames_received;
    frames_retransmitted += o.frames_retransmitted;
    frames_dropped += o.frames_dropped;
    session_opens += o.session_opens;
    session_timeouts += o.session_timeouts;
    reassembly_failures += o.reassembly_failures;
  }
};

/// The live (thread-safe) mirror of TransportStats; sessions and runtimes
/// bump these, snapshot() flattens them for RunResults.
struct TransportCounters {
  RelaxedCounter datagrams_sent;
  RelaxedCounter datagrams_received;
  RelaxedCounter datagrams_dropped;
  RelaxedCounter frames_sent;
  RelaxedCounter frames_received;
  RelaxedCounter frames_retransmitted;
  RelaxedCounter frames_dropped;
  RelaxedCounter session_opens;
  RelaxedCounter session_timeouts;
  RelaxedCounter reassembly_failures;

  TransportStats snapshot() const {
    return TransportStats{
        datagrams_sent.load(),      datagrams_received.load(),
        datagrams_dropped.load(),   frames_sent.load(),
        frames_received.load(),     frames_retransmitted.load(),
        frames_dropped.load(),      session_opens.load(),
        session_timeouts.load(),    reassembly_failures.load()};
  }
};

/// The live (thread-safe) mirror of HotPathStats that protocols bump during
/// a run; snapshot() flattens it into the plain struct for RunResults.
struct HotPathCounters {
  RelaxedCounter purge_scans_skipped;
  RelaxedCounter purge_scans_run;
  RelaxedCounter encode_cache_hits;
  RelaxedCounter encode_cache_misses;
  RelaxedCounter payload_copies_avoided;
  RelaxedCounter payload_copies_made;
  /// Bumped once per protocol step with that step's local count, so
  /// concurrent workers never contend per entry.
  RelaxedCounter buffer_entries_visited;

  HotPathStats snapshot() const {
    return HotPathStats{purge_scans_skipped.load(), purge_scans_run.load(),
                        encode_cache_hits.load(),   encode_cache_misses.load(),
                        payload_copies_avoided.load(),
                        payload_copies_made.load(),
                        buffer_entries_visited.load()};
  }
};

/// Final numbers for one protocol run.
struct RunResults {
  std::uint64_t messages_created = 0;
  std::uint64_t expected_deliveries = 0;  ///< (msg, interested node) pairs
  std::uint64_t interested_deliveries = 0;
  /// Deliveries attributable to Bloom false positives: handed to an
  /// uninterested consumer, or riding a copy that was falsely injected into
  /// the network by a relay-filter false positive (paper section VI-B).
  std::uint64_t false_deliveries = 0;
  std::uint64_t forwardings = 0;          ///< message-body transmissions
  std::uint64_t message_bytes = 0;
  std::uint64_t control_bytes = 0;        ///< filters / interest reports

  double delivery_ratio = 0.0;            ///< interested / expected
  double mean_delay_minutes = 0.0;        ///< over interested deliveries
  double median_delay_minutes = 0.0;
  double max_delay_minutes = 0.0;
  double forwardings_per_delivery = 0.0;  ///< forwardings / total delivered
  double false_positive_rate = 0.0;       ///< false / total delivered

  /// Execution-shape counters; excluded from semantic-equality comparisons.
  HotPathStats hot_path;
  /// Transport-shape counters (live runtime runs only; all-zero for the
  /// trace-driven simulator substrates). Also excluded from semantic
  /// equality.
  TransportStats transport;
};

/// Accumulates events during a run; protocols report through this.
class Collector {
 public:
  void set_expected(std::uint64_t messages_created,
                    std::uint64_t expected_deliveries);

  /// Pre-sizes the per-node partition for ids in [0, node_count). Required
  /// before concurrent recording (the partition must not grow under the
  /// workers' feet); optional for serial use, where it grows on demand.
  void reserve_nodes(std::size_t node_count);

  /// A message body crossed a link (any hop, including final delivery).
  void record_forwarding(const workload::Message& msg);

  /// A message reached `node`. `interested` means the node subscribed to
  /// the message's key (drives delivery ratio and delay); `falsely_injected`
  /// marks copies whose path into the network was created by a relay-filter
  /// false positive (drives the FPR metric even when the receiving consumer
  /// was genuinely interested). Duplicate (msg, node) pairs are ignored.
  void record_delivery(const workload::Message& msg, trace::NodeId node,
                       util::Time now, bool interested,
                       bool falsely_injected = false);

  /// True if (msg, node) was already delivered — lets protocols skip
  /// retransmissions to satisfied consumers.
  bool delivered(workload::MessageId id, trace::NodeId node) const;

  void record_control_bytes(std::uint64_t bytes) { control_bytes_ += bytes; }

  /// Mutable hot-path counters; protocols bump these directly (or merge
  /// per-store stats in on_end).
  HotPathCounters& hot_path() { return hot_path_; }
  const HotPathCounters& hot_path() const { return hot_path_; }

  /// Mutable transport counters; the live runtime's sessions bump these.
  TransportCounters& transport() { return transport_; }
  const TransportCounters& transport() const { return transport_; }

  RunResults results() const;

 private:
  /// Everything order-sensitive about one destination node, written only
  /// during that node's own contacts (hence race-free when only
  /// node-disjoint events run concurrently, and in the node's trace order
  /// under any schedule).
  struct NodeLog {
    util::DenseIdSet delivered;  ///< workload message ids (dense)
    std::vector<double> delay_minutes;  ///< interested deliveries, in order
    std::uint64_t interested = 0;
    std::uint64_t false_deliveries = 0;
  };

  NodeLog& node_log(trace::NodeId node);

  /// Logs are lazy: a node's entry is null until its first delivery (the
  /// slot write happens during that node's own contact, so materialization
  /// is race-free under node-disjoint batches, like every per-node slot in
  /// the protocols). Most nodes at city scale never receive anything and
  /// cost one pointer instead of ~72 bytes of empty log.

  std::uint64_t messages_created_ = 0;
  std::uint64_t expected_deliveries_ = 0;
  RelaxedCounter forwardings_;
  RelaxedCounter message_bytes_;
  RelaxedCounter control_bytes_;
  std::vector<std::unique_ptr<NodeLog>> logs_;
  HotPathCounters hot_path_;
  TransportCounters transport_;
};

}  // namespace bsub::metrics
