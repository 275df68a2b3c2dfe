// The linear flow table: rules in one vector sorted best-first, every
// operation a scan. It is the executable spec of flow/table.hpp's indexed
// FlowTable - the differential suite in flow_test.cpp drives both with
// the same random operations and demands the same rules, return values,
// lookups and observer events.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "tsu/flow/table.hpp"

namespace tsu::flow::reference {

class LinearFlowTable {
 public:
  void set_observer(TableObserver* observer) { observer_ = observer; }

  void add(FlowRule rule) {
    for (std::size_t i = 0; i < rules_.size(); ++i) {
      if (rules_[i].priority == rule.priority &&
          rules_[i].match == rule.match) {
        if (observer_ != nullptr) observer_->rule_removed(rules_[i], seq_[i]);
        rules_[i] = rule;
        if (observer_ != nullptr) observer_->rule_added(rules_[i], seq_[i]);
        return;
      }
    }
    const std::uint64_t seq = next_seq_++;
    std::size_t pos = rules_.size();
    for (std::size_t i = 0; i < rules_.size(); ++i) {
      if (before(rule, seq, rules_[i], seq_[i])) {
        pos = i;
        break;
      }
    }
    rules_.insert(rules_.begin() + static_cast<std::ptrdiff_t>(pos), rule);
    seq_.insert(seq_.begin() + static_cast<std::ptrdiff_t>(pos), seq);
    if (observer_ != nullptr) observer_->rule_added(rules_[pos], seq);
  }

  std::size_t modify(const Match& match, std::uint16_t priority,
                     const Action& action, std::uint64_t cookie) {
    std::size_t rewritten = 0;
    for (std::size_t i = 0; i < rules_.size(); ++i) {
      if (rules_[i].match != match) continue;
      if (observer_ != nullptr) observer_->rule_removed(rules_[i], seq_[i]);
      rules_[i].action = action;
      rules_[i].cookie = cookie;
      if (observer_ != nullptr) observer_->rule_added(rules_[i], seq_[i]);
      ++rewritten;
    }
    if (rewritten == 0) {
      add(FlowRule{match, action, priority, cookie});
      return 1;
    }
    return rewritten;
  }

  std::size_t remove(const Match& match) {
    std::size_t removed = 0;
    for (std::size_t i = rules_.size(); i > 0; --i) {
      if (!match.subsumes(rules_[i - 1].match)) continue;
      erase(i - 1);
      ++removed;
    }
    return removed;
  }

  bool remove_strict(const Match& match, std::uint16_t priority) {
    for (std::size_t i = 0; i < rules_.size(); ++i) {
      if (rules_[i].priority == priority && rules_[i].match == match) {
        erase(i);
        return true;
      }
    }
    return false;
  }

  std::optional<FlowRule> lookup(const Packet& packet) const {
    for (const FlowRule& rule : rules_)
      if (rule.match.matches(packet)) return rule;
    return std::nullopt;
  }

  void clear() {
    if (observer_ != nullptr)
      for (std::size_t i = 0; i < rules_.size(); ++i)
        observer_->rule_removed(rules_[i], seq_[i]);
    rules_.clear();
    seq_.clear();
  }

  const std::vector<FlowRule>& rules() const noexcept { return rules_; }

 private:
  // Lookup order: priority desc, specificity desc, insertion seq asc.
  static bool before(const FlowRule& a, std::uint64_t seq_a,
                     const FlowRule& b, std::uint64_t seq_b) {
    if (a.priority != b.priority) return a.priority > b.priority;
    const int spec_a = a.match.specificity();
    const int spec_b = b.match.specificity();
    if (spec_a != spec_b) return spec_a > spec_b;
    return seq_a < seq_b;
  }

  void erase(std::size_t i) {
    if (observer_ != nullptr) observer_->rule_removed(rules_[i], seq_[i]);
    rules_.erase(rules_.begin() + static_cast<std::ptrdiff_t>(i));
    seq_.erase(seq_.begin() + static_cast<std::ptrdiff_t>(i));
  }

  std::vector<FlowRule> rules_;
  std::vector<std::uint64_t> seq_;  // parallel to rules_
  std::uint64_t next_seq_ = 0;
  TableObserver* observer_ = nullptr;
};

}  // namespace tsu::flow::reference
