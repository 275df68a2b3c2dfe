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

void FlowTable::swap_rules(FlowTable& other) noexcept {
  slots_.swap(other.slots_);
  std::swap(free_, other.free_);
  std::swap(head_, other.head_);
  std::swap(tail_, other.tail_);
  std::swap(size_, other.size_);
  groups_.swap(other.groups_);
  std::swap(by_match_, other.by_match_);
  std::swap(next_seq_, other.next_seq_);
}

std::uint64_t FlowTable::hash(const Match& match) noexcept {
  const auto field = [](const auto& value) -> std::uint64_t {
    return value.has_value() ? static_cast<std::uint64_t>(*value) + 1 : 0;
  };
  constexpr std::uint64_t kOdd = 0x9e3779b97f4a7c15ull;
  std::uint64_t h = field(match.flow);
  h = h * kOdd ^ field(match.src_host);
  h = h * kOdd ^ field(match.dst_host);
  h = h * kOdd ^ field(match.in_port);
  return util::mix64(h);
}

std::uint32_t FlowTable::chain_of(const Match& match, std::uint64_t h) const {
  return by_match_.find_handle(h, [&](std::uint32_t at) {
    return slots_[at].rule.match == match;
  });
}

FlowTable::Chain FlowTable::chain_for(const Match& match) {
  const std::uint64_t h = hash(match);
  return Chain{h, by_match_.find(h, [&](std::uint32_t at) {
                 return slots_[at].rule.match == match;
               })};
}

std::uint32_t FlowTable::chain_slot(std::uint32_t head,
                                    std::uint16_t priority) const {
  // The chain runs priority desc: stop once past `priority`.
  for (std::uint32_t at = head; at != kNone; at = slots_[at].same_match) {
    const std::uint16_t p = slots_[at].rule.priority;
    if (p == priority) return at;
    if (p < priority) break;
  }
  return kNone;
}

std::vector<FlowTable::Group>::iterator FlowTable::group_at(
    std::uint16_t priority, int specificity) {
  // First group not ahead of (priority, specificity) in lookup order.
  return std::partition_point(
      groups_.begin(), groups_.end(), [&](const Group& g) {
        if (g.priority != priority) return g.priority > priority;
        return g.specificity > specificity;
      });
}

std::uint32_t FlowTable::insert(FlowRule rule, Chain chain) {
  // Its seq is the largest yet, so the rule closes its group's run; a new
  // group slots in between its neighbours' runs.
  const int specificity = rule.match.specificity();
  auto group = group_at(rule.priority, specificity);
  std::uint32_t prev = kNone;
  std::uint32_t next = kNone;
  if (group != groups_.end() && group->priority == rule.priority &&
      group->specificity == specificity) {
    prev = group->last;
    next = slots_[prev].next;
  } else {
    if (group != groups_.begin()) prev = std::prev(group)->last;
    if (group != groups_.end()) next = group->first;
    group = groups_.insert(group, Group{rule.priority, specificity});
  }

  std::uint32_t at = free_;
  if (at != kNone) {
    free_ = slots_[at].next;
  } else {
    at = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[at];
  slot.rule = std::move(rule);
  slot.seq = next_seq_++;
  slot.prev = prev;
  slot.next = next;
  (prev == kNone ? head_ : slots_[prev].next) = at;
  (next == kNone ? tail_ : slots_[next].prev) = at;
  if (group->first == kNone) group->first = at;
  group->last = at;

  // Same-match chain, priority desc.
  if (chain.head == nullptr) {
    slot.same_match = kNone;
    by_match_.insert(chain.hash, at);
  } else if (slots_[*chain.head].rule.priority < slot.rule.priority) {
    slot.same_match = *chain.head;
    *chain.head = at;
  } else {
    std::uint32_t before = *chain.head;
    while (slots_[before].same_match != kNone &&
           slots_[slots_[before].same_match].rule.priority >
               slot.rule.priority)
      before = slots_[before].same_match;
    slot.same_match = slots_[before].same_match;
    slots_[before].same_match = at;
  }
  ++size_;
  return at;
}

void FlowTable::unlink(std::uint32_t at, Chain chain) {
  Slot& slot = slots_[at];
  (slot.prev == kNone ? head_ : slots_[slot.prev].next) = slot.next;
  (slot.next == kNone ? tail_ : slots_[slot.next].prev) = slot.prev;

  const auto group =
      group_at(slot.rule.priority, slot.rule.match.specificity());
  TSU_ASSERT(group != groups_.end() && group->priority == slot.rule.priority);
  if (group->first == at && group->last == at)
    groups_.erase(group);
  else if (group->first == at)
    group->first = slot.next;
  else if (group->last == at)
    group->last = slot.prev;

  TSU_ASSERT(chain.head != nullptr);
  if (*chain.head == at) {
    if (slot.same_match == kNone)
      by_match_.erase(chain.hash, at);
    else
      *chain.head = slot.same_match;
  } else {
    std::uint32_t before = *chain.head;
    while (slots_[before].same_match != at)
      before = slots_[before].same_match;
    slots_[before].same_match = slot.same_match;
  }

  slot.next = free_;
  free_ = at;
  --size_;
}

void FlowTable::add(FlowRule rule) {
  // Replace identical (match, priority) in place if present.
  const Chain chain = chain_for(rule.match);
  const std::uint32_t at =
      chain_slot(chain.head == nullptr ? kNone : *chain.head, rule.priority);
  if (at != kNone) {
    Slot& slot = slots_[at];
    if (observer_ != nullptr) observer_->rule_removed(slot.rule, slot.seq);
    slot.rule = std::move(rule);
    if (observer_ != nullptr) observer_->rule_added(slot.rule, slot.seq);
    return;
  }
  const std::uint32_t fresh = insert(std::move(rule), chain);
  if (observer_ != nullptr)
    observer_->rule_added(slots_[fresh].rule, slots_[fresh].seq);
}

std::size_t FlowTable::modify(const Match& match, std::uint16_t priority,
                              const Action& action, std::uint64_t cookie) {
  // The same-match chain runs priority desc, which is the lookup order of
  // rules sharing a match.
  std::size_t rewritten = 0;
  for (std::uint32_t at = chain_of(match, hash(match)); at != kNone;
       at = slots_[at].same_match) {
    Slot& slot = slots_[at];
    if (observer_ != nullptr) observer_->rule_removed(slot.rule, slot.seq);
    slot.rule.action = action;
    slot.rule.cookie = cookie;
    if (observer_ != nullptr) observer_->rule_added(slot.rule, slot.seq);
    ++rewritten;
  }
  if (rewritten == 0) {
    add(FlowRule{match, action, priority, cookie});
    return 1;
  }
  return rewritten;
}

std::size_t FlowTable::remove(const Match& match) {
  // Back to front, as the rules are reported removed.
  std::size_t removed = 0;
  for (std::uint32_t at = tail_; at != kNone;) {
    const std::uint32_t prev = slots_[at].prev;
    if (match.subsumes(slots_[at].rule.match)) {
      if (observer_ != nullptr)
        observer_->rule_removed(slots_[at].rule, slots_[at].seq);
      unlink(at, chain_for(slots_[at].rule.match));
      ++removed;
    }
    at = prev;
  }
  return removed;
}

bool FlowTable::remove_strict(const Match& match, std::uint16_t priority) {
  const Chain chain = chain_for(match);
  if (chain.head == nullptr) return false;
  const std::uint32_t at = chain_slot(*chain.head, priority);
  if (at == kNone) return false;
  if (observer_ != nullptr)
    observer_->rule_removed(slots_[at].rule, slots_[at].seq);
  unlink(at, chain);
  return true;
}

const FlowRule* FlowTable::find(const Match& match,
                                std::uint16_t priority) const {
  const std::uint32_t at = chain_slot(chain_of(match, hash(match)), priority);
  return at == kNone ? nullptr : &slots_[at].rule;
}

void FlowTable::set_observer(TableObserver* observer) {
  observer_ = observer;
  if (observer_ != nullptr)
    for (std::uint32_t at = head_; at != kNone; at = slots_[at].next)
      observer_->rule_added(slots_[at].rule, slots_[at].seq);
}

void FlowTable::clear() {
  if (observer_ != nullptr)
    for (std::uint32_t at = head_; at != kNone; at = slots_[at].next)
      observer_->rule_removed(slots_[at].rule, slots_[at].seq);
  slots_.clear();
  free_ = head_ = tail_ = kNone;
  size_ = 0;
  groups_.clear();
  by_match_.clear();
}

std::optional<FlowRule> FlowTable::lookup(const Packet& packet) const {
  // Best-first: the first hit wins.
  for (std::uint32_t at = head_; at != kNone; at = slots_[at].next)
    if (slots_[at].rule.match.matches(packet)) return slots_[at].rule;
  return std::nullopt;
}

std::string FlowTable::to_string() const {
  std::ostringstream out;
  for (const FlowRule& rule : rules()) out << rule.to_string() << "\n";
  return out.str();
}

}  // namespace tsu::flow
