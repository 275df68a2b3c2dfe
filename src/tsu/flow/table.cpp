#include "tsu/flow/table.hpp"

#include <algorithm>
#include <sstream>

#include "tsu/util/assert.hpp"

namespace tsu::flow {

std::string FlowRule::to_string() const {
  std::ostringstream out;
  out << "prio=" << priority << " " << match.to_string() << " -> "
      << action.to_string();
  return out.str();
}

namespace {

// Ordering: priority desc, specificity desc, then insertion sequence asc.
bool rule_before(const FlowRule& a, std::uint64_t seq_a, const FlowRule& b,
                 std::uint64_t seq_b) {
  if (a.priority != b.priority) return a.priority > b.priority;
  const int spec_a = a.match.specificity();
  const int spec_b = b.match.specificity();
  if (spec_a != spec_b) return spec_a > spec_b;
  return seq_a < seq_b;
}

}  // namespace

void FlowTable::add(FlowRule rule) {
  // Replace identical (match, priority) if present.
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    if (rules_[i].priority == rule.priority && rules_[i].match == rule.match) {
      if (observer_ != nullptr) observer_->rule_removed(rules_[i], seq_[i]);
      rules_[i] = std::move(rule);
      if (observer_ != nullptr) observer_->rule_added(rules_[i], seq_[i]);
      return;
    }
  }
  const std::uint64_t seq = next_seq_++;
  // Insert in sorted position.
  std::size_t pos = rules_.size();
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    if (rule_before(rule, seq, rules_[i], seq_[i])) {
      pos = i;
      break;
    }
  }
  rules_.insert(rules_.begin() + static_cast<std::ptrdiff_t>(pos),
                std::move(rule));
  seq_.insert(seq_.begin() + static_cast<std::ptrdiff_t>(pos), seq);
  if (observer_ != nullptr) observer_->rule_added(rules_[pos], seq);
}

std::size_t FlowTable::modify(const Match& match, std::uint16_t priority,
                              const Action& action, std::uint64_t cookie) {
  std::size_t rewritten = 0;
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    FlowRule& rule = rules_[i];
    if (rule.match == match) {
      if (observer_ != nullptr) observer_->rule_removed(rule, seq_[i]);
      rule.action = action;
      rule.cookie = cookie;
      if (observer_ != nullptr) observer_->rule_added(rule, seq_[i]);
      ++rewritten;
    }
  }
  if (rewritten == 0) {
    add(FlowRule{match, action, priority, cookie});
    return 1;
  }
  return rewritten;
}

std::size_t FlowTable::remove(const Match& match) {
  std::size_t removed = 0;
  for (std::size_t i = rules_.size(); i > 0; --i) {
    const std::size_t idx = i - 1;
    if (match.subsumes(rules_[idx].match)) {
      if (observer_ != nullptr) observer_->rule_removed(rules_[idx], seq_[idx]);
      rules_.erase(rules_.begin() + static_cast<std::ptrdiff_t>(idx));
      seq_.erase(seq_.begin() + static_cast<std::ptrdiff_t>(idx));
      ++removed;
    }
  }
  return removed;
}

bool FlowTable::remove_strict(const Match& match, std::uint16_t priority) {
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    if (rules_[i].priority == priority && rules_[i].match == match) {
      if (observer_ != nullptr) observer_->rule_removed(rules_[i], seq_[i]);
      rules_.erase(rules_.begin() + static_cast<std::ptrdiff_t>(i));
      seq_.erase(seq_.begin() + static_cast<std::ptrdiff_t>(i));
      return true;
    }
  }
  return false;
}

void FlowTable::set_observer(TableObserver* observer) {
  observer_ = observer;
  if (observer_ != nullptr)
    for (std::size_t i = 0; i < rules_.size(); ++i)
      observer_->rule_added(rules_[i], seq_[i]);
}

void FlowTable::clear() {
  if (observer_ != nullptr)
    for (std::size_t i = 0; i < rules_.size(); ++i)
      observer_->rule_removed(rules_[i], seq_[i]);
  rules_.clear();
  seq_.clear();
}

std::optional<FlowRule> FlowTable::lookup(const Packet& packet) const {
  // rules_ is sorted best-first; first hit wins.
  for (const FlowRule& rule : rules_)
    if (rule.match.matches(packet)) return rule;
  return std::nullopt;
}

std::string FlowTable::to_string() const {
  std::ostringstream out;
  for (const FlowRule& rule : rules_) out << rule.to_string() << "\n";
  return out.str();
}

}  // namespace tsu::flow
