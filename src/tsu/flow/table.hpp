// Flow table with OpenFlow add/modify/delete semantics and highest-priority
// matching (ties broken towards the more specific match, then insertion
// order, mirroring common switch behaviour).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "tsu/flow/match.hpp"

namespace tsu::flow {

struct FlowRule {
  Match match;
  Action action;
  std::uint16_t priority = 0;
  std::uint64_t cookie = 0;

  std::string to_string() const;
};

// Sees every rule a FlowTable gains or loses, with the rule's insertion
// sequence (its lookup tie-break among equal priority and specificity). A
// rewrite in place reports the old rule removed, then the new one added
// under the same sequence.
class TableObserver {
 public:
  virtual void rule_added(const FlowRule& rule, std::uint64_t seq) = 0;
  virtual void rule_removed(const FlowRule& rule, std::uint64_t seq) = 0;

 protected:
  ~TableObserver() = default;
};

class FlowTable {
 public:
  FlowTable() = default;
  // Copies and moves carry the rules, not the observer: a shadow copy of a
  // switch's table must not report into the switch's log.
  FlowTable(const FlowTable& other)
      : rules_(other.rules_), next_seq_(other.next_seq_), seq_(other.seq_) {}
  FlowTable(FlowTable&& other) noexcept
      : rules_(std::move(other.rules_)), next_seq_(other.next_seq_),
        seq_(std::move(other.seq_)) {}
  FlowTable& operator=(FlowTable other) noexcept {
    rules_.swap(other.rules_);
    next_seq_ = other.next_seq_;
    seq_.swap(other.seq_);
    return *this;
  }
  ~FlowTable() = default;

  // Every later mutation reports to `observer` (null detaches), which
  // first hears every installed rule reported as added. The observer must
  // outlive the attachment. Assigning a whole table replaces the rules
  // without reporting.
  void set_observer(TableObserver* observer);

  // OpenFlow ADD: replaces a rule with identical match and priority,
  // otherwise inserts.
  void add(FlowRule rule);

  // OpenFlow MODIFY (non-strict): rewrites the action of every rule whose
  // match equals `match`; if none matched, behaves like ADD (which is what
  // OVS does for MODIFY on a miss). Returns number of rewritten rules.
  std::size_t modify(const Match& match, std::uint16_t priority,
                     const Action& action, std::uint64_t cookie);

  // OpenFlow DELETE (non-strict): removes every rule subsumed by `match`.
  // Returns the number of removed rules.
  std::size_t remove(const Match& match);

  // OpenFlow DELETE_STRICT: removes the rule with identical match and
  // priority, if present.
  bool remove_strict(const Match& match, std::uint16_t priority);

  // Highest-priority matching rule for `packet`.
  std::optional<FlowRule> lookup(const Packet& packet) const;

  std::size_t size() const noexcept { return rules_.size(); }
  bool empty() const noexcept { return rules_.empty(); }
  const std::vector<FlowRule>& rules() const noexcept { return rules_; }
  void clear();

  std::string to_string() const;

 private:
  std::vector<FlowRule> rules_;  // kept sorted: priority desc, specificity
                                 // desc, insertion order
  std::uint64_t next_seq_ = 0;
  std::vector<std::uint64_t> seq_;  // parallel to rules_
  TableObserver* observer_ = nullptr;
};

}  // namespace tsu::flow
