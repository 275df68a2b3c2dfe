// Flow table with OpenFlow add/modify/delete semantics and highest-priority
// matching (ties broken towards the more specific match, then insertion
// order, mirroring common switch behaviour).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "tsu/flow/match.hpp"
#include "tsu/util/handle_index.hpp"

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

// Rules live in stable slots threaded on one doubly-linked list in lookup
// order. That order is (priority desc, specificity desc, insertion seq
// asc), and a new rule always carries the highest seq so far, so it always
// joins the tail of its (priority, specificity) group: a short sorted
// vector of groups finds the spot in O(log groups), and linking it in
// moves no other rule. A hash index from match to the rules with that
// match (chained through the slots, priority desc - which is also their
// lookup order) answers the (match, priority) lookups of ADD, MODIFY and
// DELETE_STRICT in O(1 + rules sharing the match). lookup() and
// non-strict DELETE walk the list. Freed slots, groups and index buckets
// keep their capacity, so churn below the high-water size allocates
// nothing.
class FlowTable {
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  struct Slot {
    FlowRule rule;
    std::uint64_t seq = 0;
    std::uint32_t prev = kNone;  // lookup order
    std::uint32_t next = kNone;  // lookup order; the free list when unused
    std::uint32_t same_match = kNone;  // next lower priority, same match
  };

 public:
  // The installed rules in lookup order (a view: valid until the next
  // mutation).
  class Rules {
   public:
    class iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = FlowRule;
      using difference_type = std::ptrdiff_t;
      using pointer = const FlowRule*;
      using reference = const FlowRule&;

      iterator() = default;
      const FlowRule& operator*() const noexcept { return slots_[at_].rule; }
      const FlowRule* operator->() const noexcept { return &**this; }
      iterator& operator++() noexcept {
        at_ = slots_[at_].next;
        return *this;
      }
      iterator operator++(int) noexcept {
        iterator before = *this;
        ++*this;
        return before;
      }
      bool operator==(const iterator& other) const noexcept {
        return at_ == other.at_;
      }

     private:
      friend class Rules;
      iterator(const Slot* slots, std::uint32_t at) : slots_(slots), at_(at) {}
      const Slot* slots_ = nullptr;
      std::uint32_t at_ = kNone;
    };

    iterator begin() const noexcept { return iterator(slots_, head_); }
    iterator end() const noexcept { return iterator(slots_, kNone); }

   private:
    friend class FlowTable;
    Rules(const Slot* slots, std::uint32_t head) : slots_(slots), head_(head) {}
    const Slot* slots_;
    std::uint32_t head_;
  };

  FlowTable() = default;
  // Copies and moves carry the rules, not the observer: a shadow copy of a
  // switch's table must not report into the switch's log.
  FlowTable(const FlowTable& other)
      : slots_(other.slots_), free_(other.free_), head_(other.head_),
        tail_(other.tail_), size_(other.size_), groups_(other.groups_),
        by_match_(other.by_match_), next_seq_(other.next_seq_) {}
  FlowTable(FlowTable&& other) noexcept { swap_rules(other); }
  FlowTable& operator=(FlowTable other) noexcept {
    swap_rules(other);
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

  // The rule with identical match and priority, or null (valid until the
  // next mutation).
  const FlowRule* find(const Match& match, std::uint16_t priority) const;

  // Highest-priority matching rule for `packet`.
  std::optional<FlowRule> lookup(const Packet& packet) const;

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  Rules rules() const noexcept { return Rules(slots_.data(), head_); }
  void clear();

  std::string to_string() const;

 private:
  // The rules of one (priority, specificity), a contiguous run of the
  // lookup list.
  struct Group {
    std::uint16_t priority = 0;
    int specificity = 0;
    std::uint32_t first = kNone;
    std::uint32_t last = kNone;
  };

  void swap_rules(FlowTable& other) noexcept;
  static std::uint64_t hash(const Match& match) noexcept;
  // A match's hash and the index bucket holding its same-match chain's
  // head (null when no rule has the match). The bucket stays valid until
  // by_match_ changes.
  struct Chain {
    std::uint64_t hash = 0;
    std::uint32_t* head = nullptr;
  };
  Chain chain_for(const Match& match);
  // Head of the same-match chain, or kNone.
  std::uint32_t chain_of(const Match& match, std::uint64_t h) const;
  // The chain member with `priority`, or kNone.
  std::uint32_t chain_slot(std::uint32_t head, std::uint16_t priority) const;
  std::vector<Group>::iterator group_at(std::uint16_t priority,
                                        int specificity);
  // Links a rule absent from the table in; `chain` is its match's.
  std::uint32_t insert(FlowRule rule, Chain chain);
  // Unlinks and frees the rule at `at`; `chain` is its match's.
  void unlink(std::uint32_t at, Chain chain);

  std::vector<Slot> slots_;
  std::uint32_t free_ = kNone;
  std::uint32_t head_ = kNone;
  std::uint32_t tail_ = kNone;
  std::size_t size_ = 0;
  std::vector<Group> groups_;  // lookup order, non-empty groups only
  util::HandleIndex by_match_;  // match -> head of its same-match chain
  std::uint64_t next_seq_ = 0;
  TableObserver* observer_ = nullptr;
};

}  // namespace tsu::flow
