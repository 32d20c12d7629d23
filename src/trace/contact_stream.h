// Pull-based contact streams: the scenario substrate for city-scale runs.
//
// A ContactStream is a cursor over a time-ordered sequence of contacts. The
// execution pipeline (sim::Simulator, engine::TraceRunner,
// net::FleetRuntime) consumes scenarios through this interface with a
// bounded window of in-flight events, so a million-node, hundred-million-
// contact run never materializes the trace in RAM — peak memory is
// O(node state + window), independent of contact count.
//
// Ordering contract: next() yields contacts in non-decreasing
// (start, end, a, b) lexicographic order — exactly the total order
// ContactTrace's constructor sorts into — with each contact normalized
// (a < b, end > start, both ids < node_count()). A generator that honors
// this contract is bit-identical to its own materialization: running the
// stream directly and running materialize(stream) produce the same event
// sequence, hence the same RunResults (the stream differential test
// enforces this).
//
// Streams are single-pass cursors; reset() rewinds to the beginning
// (generators re-derive everything from their seed, so rewinding is cheap
// and exact).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "trace/contact.h"
#include "trace/trace.h"

namespace bsub::trace {

/// Canonical stream/trace contact order: (start, end, a, b) lexicographic.
inline bool contact_order_less(const Contact& x, const Contact& y) {
  if (x.start != y.start) return x.start < y.start;
  if (x.end != y.end) return x.end < y.end;
  if (x.a != y.a) return x.a < y.a;
  return x.b < y.b;
}

/// A cursor yielding time-ordered Contact events (see the ordering contract
/// above). The number of nodes is known up front; the number of contacts
/// generally is not (size_hint() when it is).
class ContactStream {
 public:
  virtual ~ContactStream() = default;

  /// Node-id space: every yielded contact satisfies a < b < node_count().
  virtual std::size_t node_count() const = 0;

  /// Pulls the next contact. Returns false when the stream is exhausted
  /// (out is untouched in that case).
  virtual bool next(Contact& out) = 0;

  /// Rewinds to the first contact. Every in-tree stream supports this
  /// (materialized traces reset a cursor; generators re-seed).
  virtual void reset() = 0;

  /// Exact total contact count when cheaply known (materialized traces),
  /// nullopt for lazy generators.
  virtual std::optional<std::uint64_t> size_hint() const {
    return std::nullopt;
  }

  /// Human-readable scenario name for reports.
  virtual const std::string& name() const {
    static const std::string kEmpty;
    return kEmpty;
  }
};

/// Thin adapter presenting a materialized ContactTrace as a stream: the
/// legacy path. ContactTrace's constructor already sorts into the canonical
/// order, so the adapter is a bare cursor. Does not own the trace.
class MaterializedStream final : public ContactStream {
 public:
  explicit MaterializedStream(const ContactTrace& trace) : trace_(&trace) {}

  std::size_t node_count() const override { return trace_->node_count(); }

  bool next(Contact& out) override {
    if (pos_ >= trace_->contacts().size()) return false;
    out = trace_->contacts()[pos_++];
    return true;
  }

  void reset() override { pos_ = 0; }

  std::optional<std::uint64_t> size_hint() const override {
    return trace_->contacts().size();
  }

  const std::string& name() const override { return trace_->name(); }

 private:
  const ContactTrace* trace_;
  std::size_t pos_ = 0;
};

/// K-way merge of independently ordered sub-streams into one ordered
/// stream, for composing scenario generators (commuter rhythm + flash
/// crowds + ...). A binary heap keyed by (contact order, source index)
/// keeps the merge deterministic: ties between sources always resolve to
/// the lower source index. State is O(sources), one buffered contact each.
class MergedContactStream final : public ContactStream {
 public:
  MergedContactStream(std::vector<std::unique_ptr<ContactStream>> sources,
                      std::string name = "merged");

  std::size_t node_count() const override { return node_count_; }
  bool next(Contact& out) override;
  void reset() override;
  std::optional<std::uint64_t> size_hint() const override;
  const std::string& name() const override { return name_; }

 private:
  struct Head {
    Contact contact;
    std::uint32_t source;
  };
  bool head_less(const Head& x, const Head& y) const;
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  void prime();

  std::string name_;
  std::vector<std::unique_ptr<ContactStream>> sources_;
  std::size_t node_count_ = 0;
  std::vector<Head> heap_;
  bool primed_ = false;
};

/// Drains the stream into a ContactTrace (for small scenarios, analysis,
/// and differential tests). The constructor re-sorts into the same total
/// order the stream contract mandates, so a conforming stream round-trips
/// order-identically.
ContactTrace materialize(ContactStream& stream);

}  // namespace bsub::trace
