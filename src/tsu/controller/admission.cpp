#include "tsu/controller/admission.hpp"

#include <algorithm>

#include "tsu/util/assert.hpp"

namespace tsu::controller {

const char* to_string(AdmissionPolicy policy) noexcept {
  switch (policy) {
    case AdmissionPolicy::kBlind: return "blind";
    case AdmissionPolicy::kConflictAware: return "conflict_aware";
    case AdmissionPolicy::kSerialize: return "serialize";
  }
  return "?";
}

std::optional<AdmissionPolicy> admission_policy_from_string(
    std::string_view name) noexcept {
  if (name == "blind") return AdmissionPolicy::kBlind;
  if (name == "conflict_aware") return AdmissionPolicy::kConflictAware;
  if (name == "serialize") return AdmissionPolicy::kSerialize;
  return std::nullopt;
}

Footprint Footprint::of(const UpdateRequest& request) {
  Footprint footprint;
  for (const std::vector<RoundOp>& round : request.rounds)
    for (const RoundOp& op : round)
      footprint.add(RuleRef{op.node, op.mod.table, op.mod.match});
  return footprint;
}

void Footprint::add(RuleRef ref) {
  if (std::find(rules_.begin(), rules_.end(), ref) != rules_.end()) return;
  rules_.push_back(std::move(ref));
}

void Footprint::remove(const RuleRef& ref) {
  const auto it = std::find(rules_.begin(), rules_.end(), ref);
  if (it != rules_.end()) rules_.erase(it);
}

bool Footprint::conflicts_with(const Footprint& other) const noexcept {
  for (const RuleRef& mine : rules_)
    for (const RuleRef& theirs : other.rules_)
      if (mine.conflicts_with(theirs)) return true;
  return false;
}

namespace {

bool contains(const std::vector<AdmissionQueue::Id>& ids,
              AdmissionQueue::Id id) noexcept {
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}

// Removes one occurrence (order is irrelevant: blocked_on is a set in
// spirit). Returns whether anything was erased.
bool erase_one(std::vector<AdmissionQueue::Id>& ids,
               AdmissionQueue::Id id) noexcept {
  const auto it = std::find(ids.begin(), ids.end(), id);
  if (it == ids.end()) return false;
  *it = ids.back();
  ids.pop_back();
  return true;
}

// Smallest power of two >= n (min 8): the headroom factor that turns
// capacity records into doubling events.
std::size_t headroom(std::size_t n) noexcept {
  std::size_t cap = 8;
  while (cap < n) cap <<= 1;
  return cap;
}

}  // namespace

void AdmissionQueue::reserve_edge_record(std::size_t needed) {
  if (needed <= edge_reserve_) return;
  edge_reserve_ = headroom(needed);
  for (auto& [entry_id, entry] : entries_) {
    entry.blocked_on.reserve(edge_reserve_);
    entry.blocks.reserve(edge_reserve_);
  }
  for (auto& node : entry_pool_) {
    node.mapped().blocked_on.reserve(edge_reserve_);
    node.mapped().blocks.reserve(edge_reserve_);
  }
}

AdmissionQueue::Entry& AdmissionQueue::insert_entry(Id id) {
  if (entry_pool_.empty()) {
    Entry& fresh = entries_.emplace(id, Entry{}).first->second;
    // A fresh entry means a live-count record (itself an allocation). An
    // entry's edge lists can never outgrow the live count (every edge
    // names a distinct live peer), so raising the edge reserve here - and
    // only here - pins all edge growth to these warmup-ramp moments.
    reserve_edge_record(entries_.size());
    fresh.footprint.reserve(footprint_high_water_);
    fresh.postings.reserve(footprint_high_water_);
    fresh.blocked_on.reserve(edge_reserve_);
    fresh.blocks.reserve(edge_reserve_);
    return fresh;
  }
  EntryMap::node_type node = std::move(entry_pool_.back());
  entry_pool_.pop_back();
  node.key() = id;
  return entries_.insert(std::move(node)).position->second;
}

void AdmissionQueue::recycle_entry(EntryMap::iterator it) {
  EntryMap::node_type node = entries_.extract(it);
  // Clear in place: the vectors (and the footprint's, via copy-assign on
  // reuse) keep their high-water capacity for the next occupant.
  node.mapped().postings.clear();
  node.mapped().blocked_on.clear();
  node.mapped().blocks.clear();
  entry_pool_.push_back(std::move(node));
}

AdmissionQueue::ChainKey AdmissionQueue::key_of(Chain chain,
                                                const RuleRef& rule) noexcept {
  if (chain == kSwitchChain) return ChainKey{rule.node, 0, std::nullopt};
  return ChainKey{rule.node, rule.table, rule.match.flow};
}

std::uint64_t AdmissionQueue::hash(const ChainKey& key) noexcept {
  constexpr std::uint64_t kOdd = 0x9e3779b97f4a7c15ull;
  std::uint64_t h = key.node;
  h = h * kOdd ^ key.table;
  h = h * kOdd ^ (key.flow.has_value() ? *key.flow + 1 : 0);
  return util::mix64(h);
}

std::uint32_t* AdmissionQueue::head_of(Chain chain, const ChainKey& key,
                                       std::uint64_t h) {
  return chains_[chain].find(h, [&](std::uint32_t posting) {
    return key_of(chain, postings_[posting].rule) == key;
  });
}

void AdmissionQueue::link(std::uint32_t posting, Chain chain) {
  // New postings go to the head: chain order decides nothing but the
  // order edges are found in.
  const ChainKey key = key_of(chain, postings_[posting].rule);
  const std::uint64_t h = hash(key);
  Link& at = postings_[posting].links[chain];
  at.prev = kNone;
  std::uint32_t* head = head_of(chain, key, h);
  if (head == nullptr) {
    at.next = kNone;
    chains_[chain].insert(h, posting);
    return;
  }
  at.next = *head;
  postings_[*head].links[chain].prev = posting;
  *head = posting;
}

void AdmissionQueue::unlink(std::uint32_t posting, Chain chain) {
  const Link at = postings_[posting].links[chain];
  if (at.next != kNone) postings_[at.next].links[chain].prev = at.prev;
  if (at.prev != kNone) {
    postings_[at.prev].links[chain].next = at.next;
    return;
  }
  const ChainKey key = key_of(chain, postings_[posting].rule);
  const std::uint64_t h = hash(key);
  if (at.next == kNone)
    chains_[chain].erase(h, posting);  // the chain's last posting
  else
    *head_of(chain, key, h) = at.next;
}

std::uint32_t AdmissionQueue::add_posting(Id id, const RuleRef& rule) {
  std::uint32_t posting = free_posting_;
  if (posting != kNone) {
    free_posting_ = postings_[posting].links[0].next;
  } else {
    posting = static_cast<std::uint32_t>(postings_.size());
    postings_.emplace_back();
  }
  postings_[posting].id = id;
  postings_[posting].rule = rule;
  link(posting, kSwitchChain);
  link(posting, kFlowChain);
  ++live_postings_;
  return posting;
}

void AdmissionQueue::drop_posting(std::uint32_t posting) {
  unlink(posting, kSwitchChain);
  unlink(posting, kFlowChain);
  postings_[posting].links[0].next = free_posting_;
  free_posting_ = posting;
  --live_postings_;
}

void AdmissionQueue::block_on_chain(Id id, Entry& entry, const RuleRef& rule,
                                    Chain chain, const ChainKey& key) {
  const std::uint32_t* head = head_of(chain, key, hash(key));
  if (head == nullptr) return;
  for (std::uint32_t p = *head; p != kNone;
       p = postings_[p].links[chain].next) {
    const Posting& other = postings_[p];
    if (!rule.conflicts_with(other.rule)) continue;
    if (contains(entry.blocked_on, other.id)) continue;
    Entry& blocker = entries_.at(other.id);
    reserve_edge_record(entry.blocked_on.size() + 1);
    reserve_edge_record(blocker.blocks.size() + 1);
    entry.blocked_on.push_back(other.id);
    blocker.blocks.push_back(id);
    ++conflict_edges_;
  }
}

bool AdmissionQueue::submit(Id id, const Footprint& footprint) {
  TSU_ASSERT_MSG(entries_.find(id) == entries_.end(),
                 "admission id submitted twice");
  if (footprint.size() > footprint_high_water_) {
    // A footprint larger than anything seen before: a cold event (first
    // submission of a template, when the plan compiles anyway). Grow every
    // entry - live and pooled - now, so no warm copy-assign below ever has
    // to: otherwise a rarely-reused deep-pool entry could reallocate
    // arbitrarily late, breaking the zero-allocation steady state.
    footprint_high_water_ = footprint.size();
    for (auto& [entry_id, live] : entries_) {
      live.footprint.reserve(footprint_high_water_);
      live.postings.reserve(footprint_high_water_);
    }
    for (auto& node : entry_pool_) {
      node.mapped().footprint.reserve(footprint_high_water_);
      node.mapped().postings.reserve(footprint_high_water_);
    }
  }
  Entry& entry = insert_entry(id);
  entry.seq = next_seq_++;
  entry.footprint = footprint;  // copy-assign: pooled capacity reused

  switch (policy_) {
    case AdmissionPolicy::kBlind:
      break;  // no edges: capacity is the only gate
    case AdmissionPolicy::kSerialize:
      // The paper's message queue: wait for every earlier live request.
      for (auto& [other_id, other] : entries_) {
        if (other_id == id) continue;
        reserve_edge_record(entry.blocked_on.size() + 1);
        reserve_edge_record(other.blocks.size() + 1);
        entry.blocked_on.push_back(other_id);
        other.blocks.push_back(id);
        ++conflict_edges_;
      }
      break;
    case AdmissionPolicy::kConflictAware:
      // Rule-level dependency tracking: consult only the indexed rules
      // this footprint's rules could overlap. The entry's own rules are
      // not indexed yet, so it never sees itself as a conflict.
      for (const RuleRef& rule : footprint.rules()) {
        if (rule.match.flow.has_value()) {
          block_on_chain(id, entry, rule, kFlowChain,
                         key_of(kFlowChain, rule));
          block_on_chain(id, entry, rule, kFlowChain,
                         ChainKey{rule.node, rule.table, std::nullopt});
        } else {
          block_on_chain(id, entry, rule, kSwitchChain,
                         key_of(kSwitchChain, rule));
        }
      }
      // Only conflict-aware admission ever consults the rule index; the
      // other policies skip the bookkeeping (and its Match copies).
      for (const RuleRef& rule : footprint.rules())
        entry.postings.push_back(add_posting(id, rule));
      break;
  }

  const bool admitted = entry.blocked_on.empty();
  if (!admitted) ++blocked_submissions_;
  return admitted;
}

bool AdmissionQueue::admissible(Id id) const noexcept {
  const auto it = entries_.find(id);
  return it != entries_.end() && it->second.blocked_on.empty();
}

const std::vector<AdmissionQueue::Id>& AdmissionQueue::release(Id id) {
  const auto it = entries_.find(id);
  TSU_ASSERT_MSG(it != entries_.end(), "release of unknown admission id");

  for (const std::uint32_t posting : it->second.postings)
    drop_posting(posting);

  unblocked_scratch_.clear();
  for (const Id waiter : it->second.blocks) {
    const auto waiter_it = entries_.find(waiter);
    if (waiter_it == entries_.end()) continue;  // already released
    Entry& entry = waiter_it->second;
    if (erase_one(entry.blocked_on, id) && entry.blocked_on.empty())
      unblocked_scratch_.push_back(waiter);
  }
  recycle_entry(it);

  std::sort(unblocked_scratch_.begin(), unblocked_scratch_.end(),
            [this](Id a, Id b) {
              return entries_.at(a).seq < entries_.at(b).seq;
            });
  return unblocked_scratch_;
}

const std::vector<AdmissionQueue::Id>& AdmissionQueue::release_rules(
    Id id, const std::vector<RuleRef>& rules) {
  unblocked_scratch_.clear();
  if (policy_ != AdmissionPolicy::kConflictAware || rules.empty())
    return unblocked_scratch_;
  const auto it = entries_.find(id);
  TSU_ASSERT_MSG(it != entries_.end(), "release_rules of unknown admission id");
  Entry& entry = it->second;

  for (const RuleRef& rule : rules) {
    entry.footprint.remove(rule);
    const auto posting = std::find_if(
        entry.postings.begin(), entry.postings.end(),
        [&](std::uint32_t p) { return postings_[p].rule == rule; });
    if (posting == entry.postings.end()) continue;
    drop_posting(*posting);
    *posting = entry.postings.back();
    entry.postings.pop_back();
  }

  // Waiters blocked on this request may only have conflicted with the
  // released rules; re-check each against the shrunken footprint. The
  // blocks list keeps stale entries (harmless: release() tolerates
  // already-dropped edges via the erase guard).
  for (const Id waiter : entry.blocks) {
    const auto waiter_it = entries_.find(waiter);
    if (waiter_it == entries_.end()) continue;
    Entry& waiting = waiter_it->second;
    if (!contains(waiting.blocked_on, id)) continue;
    if (waiting.footprint.conflicts_with(entry.footprint)) continue;
    erase_one(waiting.blocked_on, id);
    if (waiting.blocked_on.empty()) unblocked_scratch_.push_back(waiter);
  }

  std::sort(unblocked_scratch_.begin(), unblocked_scratch_.end(),
            [this](Id a, Id b) {
              return entries_.at(a).seq < entries_.at(b).seq;
            });
  return unblocked_scratch_;
}

std::size_t AdmissionQueue::blocked() const noexcept {
  std::size_t count = 0;
  for (const auto& [id, entry] : entries_)
    if (!entry.blocked_on.empty()) ++count;
  return count;
}

}  // namespace tsu::controller
