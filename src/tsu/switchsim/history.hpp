// Time-stamped version log of what a switch's data plane reads: the rules
// of table 0 and whether the switch is serving.
//
// Every rule ever installed in table 0 is a Record living from its `born`
// to its `died` stamp, so the table as it stood at any past instant is the
// set of records alive then, in the table's own lookup order (priority,
// specificity, insertion sequence). The log is fed by the table's observer
// hook (flow/table.hpp), so every mutation path - FlowMod apply, crash
// wipes, resync, out-of-band installs and direct test edits - lands in it.
// A switch keeps the log only once asked to (SimSwitch::record_history),
// so runs without an exact traffic evaluator pay nothing for it.
// Records are indexed by the flow id their match names (wildcard-flow
// records apart), because a packet of one flow can only be steered by
// those; the evaluator in dataplane/traffic.hpp asks for one flow's view
// at a time.
//
// A Stamp carries the instant of the change and, when an event made it,
// that event's scheduling lineage (sim/event_queue.hpp): a read at the
// same instant lands before or after it exactly as the event queue's FIFO
// tie-break would have ordered a packet-hop event against it.
//
// prune() drops what no future read can see, so a long-running service
// keeps the log bounded; vector capacity is reused, not released.
#pragma once

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "tsu/flow/table.hpp"
#include "tsu/sim/simulator.hpp"
#include "tsu/util/ids.hpp"

namespace tsu::switchsim {

struct Stamp {
  static constexpr sim::SimTime kNever = std::numeric_limits<sim::SimTime>::max();

  sim::SimTime at = kNever;
  // False for changes made outside any event (set-up code): those precede
  // every read at their instant.
  bool in_event = false;
  sim::Lineage lineage;
};

class TableHistory final : public flow::TableObserver {
 public:
  struct Record {
    flow::FlowRule rule;
    std::uint64_t seq = 0;  // insertion sequence in the table
    Stamp born;
    Stamp died;  // at == Stamp::kNever while installed
  };
  struct ServingChange {
    Stamp stamp;
    bool serving = true;
  };

  explicit TableHistory(const sim::Simulator& sim) : sim_(sim) {}
  TableHistory(const TableHistory&) = delete;
  TableHistory& operator=(const TableHistory&) = delete;

  // Begins a log whose switch is `serving` right now.
  void start(bool serving) noexcept { serving_before_ = serving; }

  void rule_added(const flow::FlowRule& rule, std::uint64_t seq) override;
  void rule_removed(const flow::FlowRule& rule, std::uint64_t seq) override;
  void serving_changed(bool serving);

  // The records whose match names `flow` (null when there are none), and
  // the wildcard-flow records every packet may hit.
  const std::vector<Record>* flow_records(FlowId flow) const noexcept {
    const auto it = by_flow_.find(flow);
    return it == by_flow_.end() ? nullptr : &it->second;
  }
  const std::vector<Record>& any_flow_records() const noexcept {
    return any_flow_;
  }
  // Serving transitions in execution order; before the first retained one
  // the switch was `serving_before()`.
  const std::vector<ServingChange>& serving_changes() const noexcept {
    return serving_;
  }
  bool serving_before() const noexcept { return serving_before_; }

  // Forgets what no read at or after `horizon` can observe: records that
  // died before it, and serving transitions superseded before it.
  void prune(sim::SimTime horizon);

  // Records and serving transitions currently retained.
  std::size_t size() const noexcept { return size_; }

 private:
  Stamp stamp_now() const noexcept;
  std::vector<Record>& records_for(const flow::Match& match);

  const sim::Simulator& sim_;
  std::unordered_map<FlowId, std::vector<Record>> by_flow_;
  std::vector<Record> any_flow_;
  std::vector<ServingChange> serving_;
  bool serving_before_ = true;
  std::size_t size_ = 0;
};

}  // namespace tsu::switchsim
