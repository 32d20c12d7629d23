// The scenario replay every substrate shares: contacts x message creations.
//
// ScenarioEventStream two-way-merges a pull-based contact stream with the
// workload's time-ordered message-creation list, producing the one event
// sequence every substrate replays — including its tie rule (a creation at
// time t is visible to a contact starting at the same t). State is one
// buffered contact + one message cursor, so the merge adds nothing to a
// streamed run's memory footprint.
//
// replay_scenario() is the event loop around it: it stages one scheduling
// window of merged events at a time and hands them to the windowed
// conflict-batch executor. sim::Simulator, engine::TraceRunner and the
// fleet's loopback engine all run through it, so they differ only in what
// they execute per event (protocol core + byte mover), never in the event
// order, the window staging or the run statistics.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sim/conflict_schedule.h"
#include "sim/parallel_executor.h"
#include "trace/contact_stream.h"
#include "util/errors.h"
#include "util/time.h"
#include "workload/workload.h"

namespace bsub::sim {

/// One merged scenario event: either a contact (payload inline) or a
/// message creation (index into the workload's message table).
struct ScenarioEvent {
  trace::Contact contact;            ///< valid when !is_message
  std::uint32_t message_index = 0;   ///< valid when is_message
  bool is_message = false;

  /// Event timestamp under the simulator's clock semantics.
  util::Time time(const std::vector<workload::Message>& messages) const {
    return is_message ? messages[message_index].created : contact.start;
  }

  /// Node endpoints for the conflict scheduler.
  EventNodes nodes(const std::vector<workload::Message>& messages) const {
    if (is_message) {
      return {messages[message_index].producer, EventNodes::kNoNode};
    }
    return {contact.a, contact.b};
  }
};

/// Merges a ContactStream with a workload's messages (which Workload keeps
/// sorted by creation time). Single-pass cursor with a one-contact
/// lookahead; reset() rewinds both sides.
class ScenarioEventStream {
 public:
  /// Throws util::ConfigError when the workload describes a different node
  /// population than the stream. Every substrate builds its per-node state
  /// from node_count(), so the check runs before any of it exists.
  ScenarioEventStream(trace::ContactStream& contacts,
                      const workload::Workload& workload)
      : contacts_(&contacts), messages_(&workload.messages()),
        node_count_(contacts.node_count()) {
    if (workload.node_count() != node_count_) {
      throw util::ConfigError(
          "workload and contact stream disagree on the node count",
          "workload.node_count",
          "equal to the stream's " + std::to_string(node_count_) +
              " (workload has " + std::to_string(workload.node_count()) +
              ")");
    }
    has_contact_ = contacts_->next(pending_);
  }

  /// The scenario's node population, shared by the stream and the workload.
  std::size_t node_count() const { return node_count_; }
  const std::vector<workload::Message>& messages() const { return *messages_; }

  /// Pulls the next merged event; false when both inputs are exhausted.
  bool next(ScenarioEvent& out) {
    const auto& messages = *messages_;
    const bool take_message =
        message_index_ < messages.size() &&
        (!has_contact_ ||
         messages[message_index_].created <= pending_.start);
    if (take_message) {
      out.is_message = true;
      out.message_index = static_cast<std::uint32_t>(message_index_++);
      return true;
    }
    if (!has_contact_) return false;
    out.is_message = false;
    out.contact = pending_;
    has_contact_ = contacts_->next(pending_);
    return true;
  }

  void reset() {
    contacts_->reset();
    has_contact_ = contacts_->next(pending_);
    message_index_ = 0;
  }

 private:
  trace::ContactStream* contacts_;
  const std::vector<workload::Message>* messages_;
  std::size_t node_count_;
  trace::Contact pending_;
  bool has_contact_ = false;
  std::size_t message_index_ = 0;
};

/// What one replay reports back to its substrate.
struct ReplayStats {
  ParallelRunStats exec;  ///< execution shape; threads_used 1 when empty
  util::Time end = 0;     ///< time of the last event (0 when empty)
};

/// Replays the rest of `events`, calling `exec(const ScenarioEvent&)` once
/// per event. With cfg.threads == 1 (or 0 resolving to 1) the events run in
/// merge order on the calling thread; otherwise node-disjoint events of a
/// window may run concurrently, and `exec` must follow the executor's
/// contract (parallel_executor.h). Either way every node sees its events in
/// merge order, so results are the same for every thread count.
template <class Exec>
ReplayStats replay_scenario(ScenarioEventStream& events,
                            const ParallelRunConfig& cfg, Exec&& exec) {
  const std::vector<workload::Message>& messages = events.messages();
  // Reused across windows: windows are strictly sequential.
  std::vector<ScenarioEvent> staged;
  ReplayStats out;
  out.exec = run_windowed_parallel(
      events.node_count(),
      [&](std::span<EventNodes> slots) {
        staged.resize(slots.size());
        std::size_t n = 0;
        while (n < slots.size() && events.next(staged[n])) {
          slots[n] = staged[n].nodes(messages);
          ++n;
        }
        if (n > 0) out.end = staged[n - 1].time(messages);
        return n;
      },
      [&](std::size_t j) { exec(staged[j]); }, cfg);
  // An empty scenario never engaged the pool; report it as the serial run
  // it effectively was.
  if (out.exec.events == 0) out.exec.threads_used = 1;
  return out;
}

}  // namespace bsub::sim
