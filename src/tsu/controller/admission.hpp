// Conflict-aware admission for the concurrent update engine.
//
// PR 1's `max_in_flight` admits blindly: two in-flight updates whose
// FlowMods touch overlapping rules can race on rule installs - exactly the
// transient-violation window the paper exists to close. The cure is
// rule-level dependency tracking: every UpdateRequest has a *footprint*,
// the set of (switch, table, match) triples its FlowMods touch across all
// rounds, and a request is admitted the moment its footprint no longer
// overlaps anything live. Overlapping updates queue behind their conflicts
// instead of either racing or serializing globally.
//
// The AdmissionQueue maintains a dependency DAG over live (pending or
// in-flight) requests: on submit, a request gains a blocked-on edge to
// every *earlier* live request it conflicts with, so edges always point
// backwards in arrival order - the graph is acyclic by construction and the
// earliest live request is always admissible (liveness). Releasing a
// finished request erases its edges; requests whose blocked-on set drains
// become admissible in arrival order.
//
// Three policies:
//   kBlind        - no conflict edges; pure max_in_flight (PR 1 behaviour).
//   kConflictAware- edges exactly where rule footprints overlap.
//   kSerialize    - every request blocks on every earlier one: the paper's
//                   strictly serializing message queue, as a special case.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "tsu/controller/update_request.hpp"
#include "tsu/flow/match.hpp"
#include "tsu/util/handle_index.hpp"
#include "tsu/util/ids.hpp"

namespace tsu::controller {

enum class AdmissionPolicy : std::uint8_t {
  kBlind = 0,
  kConflictAware = 1,
  kSerialize = 2,
};

const char* to_string(AdmissionPolicy policy) noexcept;
std::optional<AdmissionPolicy> admission_policy_from_string(
    std::string_view name) noexcept;

// One rule a request touches: a switch's table slot filtered by a match.
struct RuleRef {
  NodeId node = kInvalidNode;
  std::uint8_t table = 0;
  flow::Match match;

  // Same switch, same table, intersecting matches.
  bool conflicts_with(const RuleRef& other) const noexcept {
    return node == other.node && table == other.table &&
           match.overlaps(other.match);
  }
  bool operator==(const RuleRef&) const = default;
};

// The touched-rule set of one UpdateRequest, deduplicated.
class Footprint {
 public:
  // Collects (node, table, match) over every round's FlowMods, including
  // the cleanup deletes. A merged multi-policy request's footprint covers
  // every member policy.
  static Footprint of(const UpdateRequest& request);

  void add(RuleRef ref);
  // Drops one rule (no-op when absent): per-round footprint release
  // shrinks a live request's footprint as rounds retire.
  void remove(const RuleRef& ref);
  // Pre-grows rule storage (never shrinks): the admission queue reserves
  // pooled entries to its high-water footprint size so warm-path
  // copy-assignment never reallocates.
  void reserve(std::size_t rules) { rules_.reserve(rules); }

  bool conflicts_with(const Footprint& other) const noexcept;

  const std::vector<RuleRef>& rules() const noexcept { return rules_; }
  std::size_t size() const noexcept { return rules_.size(); }
  bool empty() const noexcept { return rules_.empty(); }

 private:
  std::vector<RuleRef> rules_;
};

// The dependency DAG. Ids are the caller's (the controller uses its
// UpdateIds); arrival order is submission order.
class AdmissionQueue {
 public:
  using Id = std::uint64_t;

  explicit AdmissionQueue(AdmissionPolicy policy = AdmissionPolicy::kBlind)
      : policy_(policy) {}

  AdmissionPolicy policy() const noexcept { return policy_; }

  // Registers a live request. Returns true when it is immediately
  // admissible (conflicts with nothing live under the policy). The
  // footprint is copied into pooled per-entry storage, so a caller
  // resubmitting a cached plan's immutable footprint allocates nothing
  // once the pool is warm.
  bool submit(Id id, const Footprint& footprint);

  // True when the request's blocked-on set is empty. The caller still
  // gates actual starts on its own capacity (max_in_flight).
  bool admissible(Id id) const noexcept;

  // True when the request currently carries any conflict edge - it waits
  // on an earlier live request or a later one waits on it. The complement
  // (live and edge-free) is the DAG-proven-disjoint set the speculative
  // round release keys on: such a request can confirm rounds without the
  // pacing barrier because no live footprint can observe its rules.
  // `blocks` may hold stale ids of already-released waiters, so the check
  // is conservative: a stale edge only disables speculation, never enables
  // it. Unknown ids report contended (never speculate on what the DAG
  // cannot vouch for).
  bool contended(Id id) const noexcept {
    const auto it = entries_.find(id);
    if (it == entries_.end()) return true;
    return !it->second.blocked_on.empty() || !it->second.blocks.empty();
  }

  // Removes a finished (or started-and-finished) request from the graph.
  // Returns the ids that became admissible, in arrival order. The returned
  // reference aliases a member scratch vector: it is valid until the next
  // submit/release/release_rules call (callers that recurse must copy).
  const std::vector<Id>& release(Id id);

  // Finer-grained release (admission_release = round): drops only `rules`
  // from a live request's footprint - rules its remaining rounds will
  // never touch again - and re-checks the requests blocked on it against
  // the shrunken footprint. Returns the ids that became admissible, in
  // arrival order (same scratch-aliasing contract as release). Only
  // meaningful under kConflictAware (the other policies track no
  // footprints); a later release(id) finishes the job.
  const std::vector<Id>& release_rules(Id id,
                                       const std::vector<RuleRef>& rules);

  std::size_t live() const noexcept { return entries_.size(); }
  // Live requests currently blocked on at least one conflict.
  std::size_t blocked() const noexcept;

  // Rule-index observability, for pinning steady-state boundedness: the
  // number of switches with a live rule in the index and the total
  // (request, rule) pairs in it. Both must return to 0 whenever no request
  // is live - a long-running admission_test case and
  // Controller::steady_state_entries() hold the line.
  std::size_t index_switches() const noexcept {
    return chains_[kSwitchChain].size();
  }
  std::size_t index_rules() const noexcept { return live_postings_; }

  // Total dependency edges ever created (a measure of workload conflict).
  std::uint64_t conflict_edges() const noexcept { return conflict_edges_; }
  // Submissions that entered the queue blocked.
  std::uint64_t blocked_submissions() const noexcept {
    return blocked_submissions_;
  }

 private:
  static constexpr std::uint32_t kNone = util::HandleIndex::kNone;

  struct Entry {
    std::uint64_t seq = 0;  // arrival order
    Footprint footprint;
    // This request's pairs in the rule index (posting ids, unordered).
    std::vector<std::uint32_t> postings;
    // Earlier live conflicting requests (unique; small, so a flat vector
    // beats a node-per-element set and keeps its capacity across reuse).
    std::vector<Id> blocked_on;
    std::vector<Id> blocks;  // later requests waiting on this one
  };

  using EntryMap = std::unordered_map<Id, Entry>;

  // The rule index. Every live (request, rule) pair is a posting, linked
  // into two chains: its switch's, and its (switch, table, flow)'s -
  // where a wildcard-flow match files under the flow key nullopt. Two
  // rules can only overlap when they share a switch and a table and their
  // flows are equal or one is wildcarded, so a concrete-flow rule meets
  // its candidates in exactly two flow chains, and only a wildcard-flow
  // rule walks its whole switch. Chains are doubly linked through the
  // postings and a hash index per chain kind holds their heads, so
  // linking and unlinking a posting is O(1). Postings live in stable
  // slots (free ones chained through links[0].next), so churn below the
  // high-water size allocates nothing.
  enum Chain : std::size_t { kSwitchChain = 0, kFlowChain = 1 };
  struct ChainKey {
    NodeId node = kInvalidNode;
    std::uint8_t table = 0;      // flow chains only
    std::optional<FlowId> flow;  // flow chains only; nullopt: wildcard flow
    bool operator==(const ChainKey&) const = default;
  };
  struct Link {
    std::uint32_t prev = kNone;
    std::uint32_t next = kNone;
  };
  struct Posting {
    Id id = 0;
    RuleRef rule;
    Link links[2];  // by Chain
  };

  static ChainKey key_of(Chain chain, const RuleRef& rule) noexcept;
  static std::uint64_t hash(const ChainKey& key) noexcept;
  // The index bucket holding the chain's head posting, or null.
  std::uint32_t* head_of(Chain chain, const ChainKey& key, std::uint64_t h);
  std::uint32_t add_posting(Id id, const RuleRef& rule);
  void drop_posting(std::uint32_t posting);
  void link(std::uint32_t posting, Chain chain);
  void unlink(std::uint32_t posting, Chain chain);
  // Adds blocked-on edges from `entry` (request `id`) to every earlier
  // live request whose indexed rule in the chain conflicts with `rule`.
  void block_on_chain(Id id, Entry& entry, const RuleRef& rule, Chain chain,
                      const ChainKey& key);

  // Entry-node pool: released map nodes are extracted and stashed for the
  // next submit, making steady-state submit/release churn allocation-free
  // once every container hits its high-water capacity.
  Entry& insert_entry(Id id);
  void recycle_entry(EntryMap::iterator it);

  AdmissionPolicy policy_;
  EntryMap entries_;
  std::vector<Posting> postings_;
  util::HandleIndex chains_[2];  // by Chain: ChainKey -> head posting
  std::uint32_t free_posting_ = kNone;
  std::size_t live_postings_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t conflict_edges_ = 0;
  std::uint64_t blocked_submissions_ = 0;
  // Largest footprint ever submitted. When it rises (a template seen for
  // the first time - the same cold moment a plan compiles), every entry's
  // footprint storage is grown to match, so the steady state never meets a
  // pooled entry whose capacity lags the workload.
  std::size_t footprint_high_water_ = 0;
  // Capacity record for the dependency-edge lists, propagated to every
  // entry (live and pooled) with next-power-of-two headroom the moment any
  // one of them sets a record. Per-entry lazy growth would let a
  // rarely-reused pooled entry allocate arbitrarily deep into a run; a
  // shared geometric record allocates only when the workload's global
  // high-water doubles, which a stationary workload does finitely often,
  // all during warmup.
  std::size_t edge_reserve_ = 0;

  void reserve_edge_record(std::size_t needed);

  std::vector<EntryMap::node_type> entry_pool_;
  std::vector<Id> unblocked_scratch_;
};

}  // namespace tsu::controller
