// The SDN controller of the paper, reimplemented from its prose (§2):
//
//   "We implement the app ofctl_rest_own.py, which provides the ability to
//    create a message queue at the SDN controller side to enqueue the REST
//    messages ... If the SDN controller starts to process a message, it
//    begins with the first round ... retrieves the corresponding OpenFlow
//    message for every switch in the set and sends them out ... sends a
//    barrier request to every switch of the set and waits for barrier
//    replies. For every barrier reply ... the source switch is removed from
//    the set of switches of the current round ... If the set is empty, the
//    current round finishes and the SDN controller goes on to process the
//    next round ... If the message object does not have a next round, the
//    SDN controller deletes the message from the queue and starts
//    processing the next message."
//
// This implementation generalizes the paper's one-message-at-a-time FSM to
// a concurrent multi-flow engine: up to `max_in_flight` update requests are
// drained from the queue and their rounds progress independently, each
// request tracking its own outstanding-barrier set; barrier replies are
// routed back to the owning request by xid. Concurrency is made safe by the
// admission policy (admission.hpp): conflict-aware admission computes each
// request's touched-rule footprint and only starts it once it overlaps
// nothing in flight, so overlapping updates queue behind their conflicts
// while disjoint ones parallelize.
//
// Outbound messages flow through a per-switch OUTBOX (BatchMode): every
// message bound for one switch - FlowMods and barrier requests, across all
// in-flight flows - accumulates in that switch's outbox and ships as a
// single Batch control frame, the way a production controller packs
// messages into one TCP segment. When the outbox flushes is the mode:
//
//   kOff      every message is its own frame (no outbox).
//   kInstant  a zero-delay event flushes all outboxes, so only messages of
//             the same simulation instant coalesce (the PR-1 behaviour,
//             still reachable via the legacy `batch_frames` bool).
//   kWindow   each outbox holds its messages up to `batch_window` behind a
//             cancellable flush timer, so messages of *different* instants
//             share a frame; the accumulated encoded-byte budget
//             `batch_bytes` (and the frame-size cap) force-flush early.
//   kAdaptive kWindow, but the hold window scales with queue pressure
//             (in-flight + queued updates): an idle control plane - where a
//             round's trailing barrier is provably the last message until
//             its replies return - collapses to an immediate flush, a
//             saturated one holds the full window.
//
// Liveness invariant for every windowed mode: a non-empty outbox always has
// a pending flush event, so a round's barriers reach the switch at most
// `batch_window` after readiness and rounds cannot deadlock - batching
// trades a bounded per-round latency for fewer, larger frames and never
// changes per-switch message order (outboxes are FIFO; the switch unpacks
// batches in order, preserving FlowMod-then-barrier fencing).
//
// `use_barriers = false` gives the reckless variant for the barrier-cost
// ablation (bench E7): all rounds are blasted out back-to-back and a single
// trailing barrier per touched switch detects completion.
//
// SHARDING (PR 4): this class is also the per-shard engine of the sharded
// controller (controller/shard.hpp). A ShardCoordinator partitions the
// switches across N Controllers, forwards shard-local requests verbatim,
// and splits cross-shard requests into per-shard sub-requests submitted
// through submit_coordinated(): a coordinated sub-request enters this
// shard's admission DAG at its global arrival position but is HELD - it
// starts only via start_coordinated() (the coordinator starts it on every
// shard in one instant, once all are admissible with free slots), and after
// each round it confirms to the coordinator and waits for release_round()
// instead of advancing on its own. Xids carry the shard id in their top
// byte (proto::make_shard_xid); shard 0 - the unsharded controller - emits
// exactly the xids it always did.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "tsu/controller/admission.hpp"
#include "tsu/controller/completion_log.hpp"
#include "tsu/controller/plan_cache.hpp"
#include "tsu/controller/update_request.hpp"
#include "tsu/proto/messages.hpp"
#include "tsu/sim/exec_mode.hpp"
#include "tsu/sim/simulator.hpp"
#include "tsu/topo/partition.hpp"
#include "tsu/util/ids.hpp"
#include "tsu/util/ring.hpp"

namespace tsu::controller {

// When the per-switch outbox flushes; see the file comment.
enum class BatchMode : std::uint8_t {
  kOff = 0,
  kInstant = 1,
  kWindow = 2,
  kAdaptive = 3,
};

const char* to_string(BatchMode mode) noexcept;
std::optional<BatchMode> batch_mode_from_string(std::string_view name);

// When a request's admission footprint leaves the conflict DAG:
//   kRequest  at request completion (the PR 2 behaviour).
//   kRound    per completed round: rules no later round touches are
//             released as soon as their last round's barriers return,
//             shrinking the blocked window for long multi-round updates.
//             Only meaningful under kConflictAware with barriers on.
enum class AdmissionRelease : std::uint8_t {
  kRequest = 0,
  kRound = 1,
};

const char* to_string(AdmissionRelease release) noexcept;
std::optional<AdmissionRelease> admission_release_from_string(
    std::string_view name) noexcept;

// What a liveness timeout does to the update stalled on a silent switch:
//   kWait      keep the update alive and re-drive the switch (periodic
//              retries, then a replay once its reconnect resync confirms)
//              until the barrier returns - installs only move forward.
//   kRollback  abort the update: replay the sent rounds' undo mods in
//              reverse round order (each inverse round barrier-fenced), so
//              the unwind walks back through exactly the forward rounds'
//              checked states; then release the admission footprint and
//              resubmit the request fresh (resubmit_after_rollback).
//              Cross-shard sub-requests and the unwinds themselves always
//              recover kWait-style: a reverse round executed on one shard
//              while a sibling shard still walks forward could leave the
//              forwarding graph in a state no checker ever admitted.
enum class FailureResponse : std::uint8_t {
  kWait = 0,
  kRollback = 1,
};

const char* to_string(FailureResponse response) noexcept;
std::optional<FailureResponse> failure_response_from_string(
    std::string_view name) noexcept;

struct ControllerConfig {
  bool use_barriers = true;
  // How many update requests may progress concurrently. 1 reproduces the
  // paper's strictly serializing message queue.
  std::size_t max_in_flight = 1;
  // Legacy knob predating BatchMode: true upgrades kOff to kInstant (the
  // coalescing it used to select). Layers that let a caller set batch_mode
  // explicitly (config JSON, REST overrides, sim_cli) clear this alias
  // alongside, so an explicit "off" really turns batching off.
  bool batch_frames = false;
  // Outbox flush policy and its two budgets: the hold window for
  // kWindow/kAdaptive and the per-switch encoded-byte force-flush budget.
  BatchMode batch_mode = BatchMode::kOff;
  sim::Duration batch_window = sim::microseconds(500);
  std::size_t batch_bytes = 16 * 1024;
  // How requests are admitted into the in-flight set (see admission.hpp):
  // blind capacity-only, rule-level conflict tracking, or global
  // serialization regardless of max_in_flight.
  AdmissionPolicy admission = AdmissionPolicy::kBlind;
  // When footprints leave the conflict DAG (see AdmissionRelease).
  AdmissionRelease admission_release = AdmissionRelease::kRequest;
  // Memoized update-plan compilation for the open-loop service mode
  // (controller/plan_cache.hpp): repeat submissions of a template reuse its
  // compiled rounds, footprint and pre-encoded frames instead of
  // re-lowering and re-encoding. Provably transparent - cache-on runs are
  // bit-identical to cache-off (the equivalence suite pins it), so "off"
  // exists for that proof and for perf baselines, not for correctness.
  // Read by the service executor; the engine itself just accepts plans.
  bool plan_cache = true;
  // Sharded control plane (controller/shard.hpp): how many controller
  // shards the switches are partitioned across - max_in_flight applies PER
  // SHARD - and how switches map to shards. shards = 1 is the single
  // controller, bit-identical to the pre-sharding engine.
  std::size_t shards = 1;
  topo::PartitionScheme partition = topo::PartitionScheme::kHash;
  // How the sharded clock steps (sim/sharded.hpp): the sequential merger,
  // or parallel epochs on a worker pool between safe horizons. Parallel
  // mode is digest- and oracle-identical to sequential for every seed (the
  // equivalence matrix pins it); it only changes wall-clock time.
  sim::ExecMode exec = sim::ExecMode::kSequential;
  // Worker threads for exec = parallel; 0 picks
  // min(shards, hardware threads).
  std::size_t threads = 0;
  // Speculative round barriers for cross-shard updates (shard.hpp): a
  // sub-request whose footprint the admission DAG proves disjoint from
  // everything live confirms empty rounds without the pacing interval, and
  // barrier replies are processed shard-locally mid-epoch (round/resync
  // completion deferred to the next sync point) instead of stalling the
  // parallel engine. Requires admission = conflict_aware to ever speculate;
  // identical event schedules in both exec modes, so the seq/par
  // equivalence guarantee is preserved. Changes timing versus
  // speculate = false (rounds confirm earlier), hence off by default.
  bool speculate = false;
  // exec = parallel: launch each wave's shard epochs longest-first so idle
  // pool lanes pick up the heaviest backlog (sharded.hpp set_steal).
  // Deterministic and digest-neutral; purely a wall-clock knob.
  bool steal = false;
  // --- fault tolerance (sim/faults.hpp) ---------------------------------
  // Per-switch liveness timeout on outstanding barriers. 0 disables fault
  // handling entirely - no timers, no shadow tables, no resync - keeping
  // the fault-free path bit-identical to a build without the subsystem.
  // Must comfortably exceed the worst-case round RTT *under load*: a
  // timeout below the loaded RTT declares healthy switches dead, and the
  // resulting retry traffic slows rounds further - a spurious-timeout
  // storm that can exhaust the per-shard xid sequence.
  sim::Duration liveness_timeout = 0;
  // Recovery policy when a barrier times out (see FailureResponse).
  FailureResponse failure_response = FailureResponse::kWait;
  // Pause before a rolled-back request is resubmitted; 0 means one
  // liveness_timeout.
  sim::Duration retry_backoff = 0;
  // Resubmit rolled-back requests (else complete them as aborted).
  bool resubmit_after_rollback = true;
};

// The flush policy after legacy-knob normalization: `batch_frames` only
// means kInstant when no explicit mode is set.
inline BatchMode effective_batch_mode(const ControllerConfig& config) noexcept {
  if (config.batch_mode == BatchMode::kOff && config.batch_frames)
    return BatchMode::kInstant;
  return config.batch_mode;
}

// RoundMetrics / UpdateMetrics live in controller/completion_log.hpp,
// together with the bounded CompletionLog that replaced the append-only
// completed-metrics vector.

class Controller {
 public:
  using SendFn = std::function<void(const proto::Message&)>;
  // Pre-encoded variant: a complete frame (xid field patched per send by
  // the channel) instead of a Message. See ControlChannel::send_encoded.
  using SendEncodedFn =
      std::function<void(std::span<const std::byte>, Xid)>;

  Controller(sim::Simulator& simulator, ControllerConfig config)
      : sim_(simulator), config_(config), admission_(config.admission) {
    if (config_.max_in_flight == 0) config_.max_in_flight = 1;
    batch_mode_ = effective_batch_mode(config_);
    // The pre-encoded send path is only byte-transparent when every frame
    // would be its own wire frame anyway (no outbox coalescing) and no
    // shadow-table bookkeeping needs the Message object (no fault
    // tolerance). Otherwise plan submissions fall back to Message sends -
    // still skipping lowering/footprint/encode recomputation.
    encoded_eligible_ =
        batch_mode_ == BatchMode::kOff && config_.liveness_timeout == 0;
    // The recycle stack is a fixed-capacity pool: reserving it here means
    // retire_xid never allocates, so long service runs stay off the heap
    // (the pool would otherwise double its way up during the pre-wrap
    // accumulation phase).
    free_xid_seqs_.reserve(kMaxFreeXids);
  }

  // Registers the outbound channel towards a switch.
  void attach_switch(NodeId node, SendFn send);
  // Registers the pre-encoded send path towards a switch (optional; plan
  // submissions fall back to the Message path for switches without one).
  void attach_switch_encoded(NodeId node, SendEncodedFn send);

  // Inbound dispatch: the per-switch channel delivers replies here.
  void on_message(NodeId from, const proto::Message& message);

  // Enqueues a policy update (the paper's REST message queue); processing
  // starts immediately while fewer than max_in_flight updates are active.
  void submit(UpdateRequest request);

  // Compiled-plan submission (plan_cache.hpp): behaviour-identical to
  // submit() of the plan's canonical request with `priority_class` and
  // `enqueued` applied, but the hot path performs no lowering, no
  // footprint computation and - when eligible - no message encoding. The
  // plan is shared, immutable and typically reused across many
  // submissions.
  void submit_plan(std::shared_ptr<const CompiledPlan> plan,
                   std::uint8_t priority_class,
                   std::optional<sim::SimTime> enqueued);

  // Monotone counter of fault-driven resyncs that rewrote shadow-table
  // state (bumped per reconnect handled). Compiled plans record it at
  // compile time; the service executor's PlanCache discards plans from
  // older generations so a resync can never serve stale pre-encoded
  // frames.
  std::uint64_t resync_generation() const noexcept {
    return resync_generation_;
  }

  bool idle() const noexcept { return active_.empty() && queue_.empty(); }
  std::size_t queued() const noexcept { return queue_.size(); }
  std::size_t in_flight() const noexcept { return active_.size(); }
  // High-water mark of concurrently active updates over the run.
  std::size_t max_in_flight_observed() const noexcept {
    return max_in_flight_observed_;
  }
  // Messages that shared a Batch frame with at least one other message.
  std::size_t messages_coalesced() const noexcept {
    return messages_coalesced_;
  }
  std::size_t batches_sent() const noexcept { return batches_sent_; }

  // Outbox observability (kWindow/kAdaptive): flush counts by trigger,
  // flush timers cancelled by an earlier byte-budget/forced flush, and the
  // longest any message sat in an outbox past readiness. The latency
  // regression suite pins max_hold() <= batch_window.
  std::size_t timer_flushes() const noexcept { return timer_flushes_; }
  std::size_t budget_flushes() const noexcept { return budget_flushes_; }
  std::size_t flush_timers_cancelled() const noexcept {
    return flush_timers_cancelled_;
  }
  sim::Duration max_hold() const noexcept { return max_hold_; }
  BatchMode batch_mode() const noexcept { return batch_mode_; }

  // Admission stats: dependency edges the conflict DAG created and
  // requests that entered the queue blocked on a conflict.
  std::uint64_t conflict_edges() const noexcept {
    return admission_.conflict_edges();
  }
  std::uint64_t blocked_submissions() const noexcept {
    return admission_.blocked_submissions();
  }
  // Pending requests currently blocked on an in-flight or earlier pending
  // conflict (a subset of queued()).
  std::size_t blocked() const noexcept { return admission_.blocked(); }

  // The recent-completion window, in completion order (identical to
  // submission order when max_in_flight == 1) until the ring wraps at
  // CompletionLog::kDefaultRecentCapacity completions. Long-running
  // consumers must use completions().stats() or the on_update_done
  // callback instead of this window.
  const std::vector<UpdateMetrics>& completed() const noexcept {
    return completed_.recent();
  }
  // Streaming lifetime aggregation + the recent ring.
  const CompletionLog& completions() const noexcept { return completed_; }

  // Debug counter for steady-state boundedness: the number of live
  // per-update / per-xid bookkeeping entries across every internal map.
  // After any workload fully completes - including timeout, retry,
  // rollback and crash-resync paths - this must return to a flat floor
  // (0 for a standalone controller at idle); controller_test pins it.
  // Deliberately EXCLUDES the monotone-by-design pools whose growth is
  // independently bounded: the retired-xid free list (<= kMaxFreeXids),
  // timed-out-xid leaks (bounded by the timeout count, see next_xid) and
  // shadow tables (bounded by switch-table size).
  std::size_t steady_state_entries() const noexcept {
    std::size_t unfenced = 0;
    for (const auto& [node, sends] : unfenced_) unfenced += sends.size();
    std::size_t outboxed = 0;
    for (const auto& [node, box] : outbox_) outboxed += box.entries.size();
    return queue_.size() + active_.size() + waiting_.size() +
           coordinated_ids_.size() + liveness_timers_.size() +
           barrier_seq_.size() + full_resync_.size() +
           resync_waiting_.size() + rollback_ctx_.size() +
           admission_.live() + admission_.index_rules() + unfenced +
           outboxed;
  }

  // Fires whenever an update finishes (used by the executor to stop the
  // simulation as soon as the system quiesces).
  void set_on_update_done(std::function<void(const UpdateMetrics&)> fn) {
    on_update_done_ = std::move(fn);
  }

  // --- fault tolerance (sim/faults.hpp) ---------------------------------
  // Enabled by a nonzero liveness_timeout; everything below is inert (and
  // schedules no events, so the fault-free digests stay bit-identical)
  // when disabled.
  bool fault_tolerance() const noexcept {
    return config_.liveness_timeout > 0;
  }
  // Mirrors an out-of-band install (the executor's initial-rule seeding,
  // which writes switch tables directly) into the shadow tables, so a
  // crash resync reconstructs pre-update state too.
  void seed_shadow(NodeId node, const proto::FlowMod& mod);
  // Fires when a reconnected switch's resync is barrier-confirmed: it
  // provably holds the shadow image again. The executor uses this to
  // return the switch to service and clock the recovery.
  void set_on_switch_resynced(std::function<void(NodeId)> fn) {
    on_switch_resynced_ = std::move(fn);
  }
  // Fault-handling counters: liveness timeouts fired, resyncs completed,
  // resync FlowMods pushed, rollbacks begun, per-switch barrier retries,
  // and rolled-back requests resubmitted.
  std::size_t timeouts() const noexcept { return timeouts_; }
  std::size_t resyncs() const noexcept { return resyncs_; }
  std::size_t resync_frames() const noexcept { return resync_frames_; }
  std::size_t rollbacks() const noexcept { return rollbacks_; }
  std::size_t retries() const noexcept { return retries_; }
  std::size_t resubmissions() const noexcept { return resubmissions_; }

  // --- sharded operation (driven by the ShardCoordinator; shard.hpp) ----
  // A cross-shard update runs as per-shard sub-requests whose rounds
  // advance in lockstep: after every round the shard confirms completion
  // and holds until release_round(), so no shard releases round k+1
  // barriers before every shard confirmed round k's installs.
  class CoordinationHooks {
   public:
    virtual ~CoordinationHooks() = default;
    // Round `round` of sub-request `token` completed on shard `shard`.
    virtual void on_round_done(std::uint8_t shard, std::uint64_t token,
                               std::size_t round) = 0;
    // The shard-local slice of `token` ran out of rounds; `metrics` is
    // this shard's slice of the update's timings and counters.
    virtual void on_coordinated_done(std::uint8_t shard, std::uint64_t token,
                                     UpdateMetrics metrics) = 0;
    // Capacity or admissibility changed on `shard`; held sub-requests may
    // now be startable.
    virtual void on_progress(std::uint8_t shard) = 0;
  };

  void set_shard(std::uint8_t shard_id, CoordinationHooks* hooks) noexcept {
    shard_id_ = shard_id;
    hooks_ = hooks;
  }
  std::uint8_t shard_id() const noexcept { return shard_id_; }

  // Registers a HELD sub-request of a cross-shard update: it enters the
  // admission DAG at its global arrival position (so per-shard dependency
  // edges stay consistent with one global arrival order) but only starts
  // through start_coordinated().
  void submit_coordinated(UpdateRequest request, std::uint64_t token);
  bool coordinated_admissible(std::uint64_t token) const noexcept;
  bool has_capacity() const noexcept {
    return active_.size() < config_.max_in_flight;
  }
  // Starts a held sub-request. The coordinator only calls this when every
  // participating shard is admissible AND has a free slot, and then starts
  // all of them in the same instant - atomic capacity acquisition, so two
  // cross-shard updates can never deadlock on partially grabbed slots.
  // `speculative` marks a DAG-proven-disjoint update (every shard's slice
  // uncontended at start) eligible for speculative round release.
  void start_coordinated(std::uint64_t token, bool speculative = false);
  // Releases the two-phase round barrier: starts the sub-request's next
  // round (after the request's inter-round interval). A speculative
  // sub-request whose next round is EMPTY skips the interval and confirms
  // synchronously - an empty round installs nothing, so pacing it serves
  // nothing, and each skip removes one interval-timer event (a guaranteed
  // horizon stall under the parallel engine).
  void release_round(std::uint64_t token);
  // True while `token` is live here and carries no conflict edge in this
  // shard's admission DAG slice - the coordinator's speculation gate.
  bool coordinated_uncontended(std::uint64_t token) const noexcept;
  // Interval skips taken by speculative round releases.
  std::size_t speculative_releases() const noexcept {
    return speculative_releases_;
  }

 private:
  using UpdateId = std::uint64_t;

  struct PendingUpdate {
    UpdateId id = 0;
    // Plain submissions own their request here. Plan-backed submissions
    // leave it EMPTY except priority_class and enqueued (the two
    // per-submission parameters, stashed so the start scan and a rollback
    // resubmission can read them back) - the plan carries the rounds.
    UpdateRequest request;
    UpdateMetrics metrics;  // carries the submission timestamp
    std::shared_ptr<const CompiledPlan> plan;
    // Coordinated sub-request: held until the ShardCoordinator starts it.
    bool held = false;
    // Set at start_coordinated when the whole update is DAG-disjoint.
    bool speculative = false;
    std::uint64_t token = 0;
  };

  struct ActiveUpdate {
    UpdateRequest request;
    UpdateMetrics metrics;
    // Set for plan-backed updates; request_of() then reads the plan's
    // canonical request and `request` only carries the per-submission
    // priority_class/enqueued stash.
    std::shared_ptr<const CompiledPlan> plan;
    std::size_t next_round = 0;
    // Outstanding barriers of this update's in-flight round.
    std::size_t waiting = 0;
    // Cross-shard sub-request: rounds gated by the coordinator.
    bool coordinated = false;
    // DAG-proven disjoint at start: empty rounds release speculatively.
    bool speculative = false;
    std::uint64_t token = 0;
    // Controller-originated unwind of a rolled-back update: bypasses
    // admission (the aborted update's footprint still covers its rules)
    // and never rolls back itself (double faults recover kWait-style).
    bool system = false;
    // admission_release = round: footprint rules keyed by the last round
    // touching them; slot k is released when round k completes. Empty when
    // per-round release is off.
    std::vector<std::vector<RuleRef>> release_plan;
  };

  // Why an outbox shipped; drives the observability counters.
  enum class FlushTrigger { kInstant, kTimer, kBudget };

  // The request a live update executes: the plan's canonical request for
  // plan-backed updates, the owned one otherwise.
  static const UpdateRequest& request_of(const ActiveUpdate& active) noexcept {
    return active.plan != nullptr ? active.plan->request : active.request;
  }

  void maybe_start_next_request();
  // Starts the pos-th pending update (arrival order); the head is O(1).
  void start_pending(std::size_t pos);
  void start_round(UpdateId id);
  void send_round_ops(ActiveUpdate& active, std::size_t round);
  // One barrier of a round: registers the outstanding xid and ships the
  // (possibly pre-encoded) barrier request to `node`.
  void send_round_barrier(ActiveUpdate& active, UpdateId id, NodeId node);
  void send_to_switch(NodeId node, proto::Message message);
  void flush_switch(NodeId node, FlushTrigger trigger);
  void flush_all(FlushTrigger trigger);
  sim::Duration adaptive_window() const noexcept;
  void finish_round(UpdateId id);
  void finish_update(UpdateId id);
  void release_completed_round_rules(UpdateId id);

  // --- fault tolerance ---------------------------------------------------
  // One FlowMod sent but not yet fenced by a barrier reply (FIFO channels:
  // a reply fences everything sent before its barrier). These keys are the
  // only rules a retained-state reconnect needs corrected.
  struct UnfencedSend {
    std::uint64_t seq = 0;
    std::uint8_t table = 0;
    std::uint16_t priority = 0;
    flow::Match match;
  };
  // Bookkeeping of one in-flight rollback: the aborted update's identity
  // (its admission footprint stays held until the unwind completes), the
  // original request for resubmission, and its metrics for the
  // aborted-without-resubmit completion record.
  struct RollbackCtx {
    UpdateId original = 0;
    UpdateRequest request;
    UpdateMetrics metrics;
  };
  void record_send(NodeId node, const proto::FlowMod& mod);
  void fence_barrier(NodeId node, Xid xid);
  void arm_liveness(Xid xid);
  void on_liveness_timeout(Xid xid);
  void retry_update_switch(UpdateId id, NodeId node);
  void handle_reconnect(NodeId from, bool has_state);
  void finish_resync(NodeId node, Xid xid);
  void begin_rollback(UpdateId id);
  void finish_rollback(UpdateId id);
  sim::Duration effective_backoff() const noexcept {
    return config_.retry_backoff > 0 ? config_.retry_backoff
                                     : config_.liveness_timeout;
  }

  // Xid lifecycle. The 24-bit per-shard sequence used to hard-abort on
  // wrap, which killed long soaks. Instead, retired sequence numbers are
  // recycled: fresh numbers come from the counter until it exhausts, then
  // from the free list of provably dead xids. An xid is retired ONLY when
  // no stale traffic can still route on it:
  //   - FlowMod/Batch xids: immediately after send - nothing ever keys on
  //     them (replies route by barrier xid; errors only log).
  //   - Barrier/resync xids: on clean reply processing, after their
  //     liveness timer is cancelled.
  //   - Timed-out, retried, rolled-back or abandoned-resync xids: NEVER -
  //     the switch may still emit the late reply, which must keep hitting
  //     the "late barrier" path instead of a recycled xid's new owner.
  //     (Leaks are bounded by the timeout count.)
  // Pre-wrap, every emitted xid is identical to the pre-recycling engine's,
  // so existing digests are unaffected.
  Xid next_xid() noexcept {
    if ((xid_counter_ & ~proto::kXidSeqMask) == 0)
      return proto::make_shard_xid(shard_id_, xid_counter_++);
    TSU_ASSERT_MSG(!free_xid_seqs_.empty(),
                   "per-shard xid sequence exhausted with no retired xids: "
                   ">2^24 concurrently live xids");
    const Xid seq = free_xid_seqs_.back();
    free_xid_seqs_.pop_back();
    return proto::make_shard_xid(shard_id_, seq);
  }
  void retire_xid(Xid xid) {
    // The cap only bounds pool memory on huge pre-wrap runs; recycling
    // keeps the pool topped up regardless.
    if (free_xid_seqs_.size() < kMaxFreeXids)
      free_xid_seqs_.push_back(xid & proto::kXidSeqMask);
  }
  // Cancels the pending liveness timer of a cleanly completed barrier so
  // (a) the dead closure is released now and (b) the xid can be recycled
  // without the stale timer firing on its next owner.
  void disarm_liveness(Xid xid) {
    const auto it = liveness_timers_.find(xid);
    if (it == liveness_timers_.end()) return;
    sim_.cancel(it->second);
    liveness_timers_.erase(it);
  }

 public:
  // Test hook: jump the 24-bit sequence to its end (minus `remaining`
  // fresh values) so tests can exercise wrap recycling in bounded time.
  void exhaust_xid_space_for_test(std::uint32_t remaining = 0) noexcept {
    xid_counter_ = proto::kXidSeqMask + 1 - remaining;
  }
  std::size_t retired_xids() const noexcept { return free_xid_seqs_.size(); }

 private:
  // Fixed capacity of the retired-xid recycle stack, fully reserved at
  // construction (256 KiB per engine). Caps the post-wrap concurrency the
  // engine can sustain at 64k simultaneously live xids - orders of
  // magnitude above any simulated regime - in exchange for an
  // allocation-free retire path.
  static constexpr std::size_t kMaxFreeXids = 1u << 16;

  using ActiveMap = std::unordered_map<UpdateId, ActiveUpdate>;
  using WaitingMap = std::unordered_map<Xid, std::pair<UpdateId, NodeId>>;

  // Node-handle pools for the per-update / per-barrier maps, mirroring the
  // AdmissionQueue's: finished entries are extracted (so the live-size
  // contracts behind steady_state_entries() still hold) and their nodes -
  // string/vector capacity included - reused by the next insert, making
  // steady-state submission churn allocation-free.
  ActiveUpdate& insert_active(UpdateId id);
  void recycle_active(ActiveMap::iterator it);
  void insert_waiting(Xid xid, UpdateId id, NodeId node);
  void recycle_waiting(WaitingMap::iterator it);

  sim::Simulator& sim_;
  ControllerConfig config_;
  AdmissionQueue admission_;
  std::unordered_map<NodeId, SendFn> switches_;
  // Pre-encoded send paths (plan submissions only); keyed like switches_.
  std::unordered_map<NodeId, SendEncodedFn> encoded_switches_;
  // Whether plan-backed sends may use the pre-encoded path (computed at
  // construction; see the constructor comment).
  bool encoded_eligible_ = false;
  // Submitted but not yet started, in arrival order. Under conflict-aware
  // admission a later entry may start before an earlier blocked one.
  // A ring (not deque): plan-backed entries hold no heap state, so warm
  // slots are free to fill, and libstdc++'s deque would allocate a fresh
  // chunk every few dozen push/pop cycles at steady state. Starting the
  // head just advances it; a start further back shifts the shorter side.
  util::FlatRing<PendingUpdate> queue_;
  ActiveMap active_;
  // Outstanding barrier xid -> (owning update, switch it fences).
  WaitingMap waiting_;
  std::vector<ActiveMap::node_type> active_pool_;
  std::vector<WaitingMap::node_type> waiting_pool_;
  // Per-round release staging: the completed round's slice is copied here
  // (capacities reused on both sides) before admission release can rehash
  // active_.
  std::vector<RuleRef> release_rules_scratch_;
  CompletionLog completed_;
  std::function<void(const UpdateMetrics&)> on_update_done_;
  // Sharding: this engine's shard id (tags xids) and the coordinator's
  // hooks; both unset when the controller runs standalone.
  std::uint8_t shard_id_ = 0;
  CoordinationHooks* hooks_ = nullptr;
  // Coordinated sub-requests live (pending or active) on this shard.
  std::unordered_map<std::uint64_t, UpdateId> coordinated_ids_;
  Xid xid_counter_ = 1;
  // Retired 24-bit sequence numbers available for reuse (see next_xid).
  std::vector<Xid> free_xid_seqs_;
  // Pending liveness timer per outstanding barrier xid, so clean
  // completions can cancel instead of leaving a stale timer to no-op.
  std::unordered_map<Xid, sim::EventId> liveness_timers_;
  UpdateId update_counter_ = 1;
  std::size_t max_in_flight_observed_ = 0;
  std::size_t speculative_releases_ = 0;
  std::size_t messages_coalesced_ = 0;
  std::size_t batches_sent_ = 0;
  std::size_t timer_flushes_ = 0;
  std::size_t budget_flushes_ = 0;
  std::size_t flush_timers_cancelled_ = 0;
  sim::Duration max_hold_ = 0;

  // One pending message of a per-switch outbox: readiness instant and
  // encoded size, so flushes can account hold latency and byte budgets.
  struct OutboxEntry {
    proto::Message message;
    sim::SimTime enqueued = 0;
    std::size_t bytes = 0;
  };
  struct Outbox {
    std::vector<OutboxEntry> entries;
    std::size_t bytes = 0;
    // Cancellable per-switch flush timer (kWindow/kAdaptive). A budget or
    // forced flush cancels it; the lazy-cancel event queue compacts the
    // dead slots (see sim/event_queue.hpp).
    bool timer_armed = false;
    sim::EventId timer = 0;
  };

  // Normalized flush policy (legacy batch_frames folded in at
  // construction). Ordered map so flush-all order is deterministic.
  BatchMode batch_mode_ = BatchMode::kOff;
  std::map<NodeId, Outbox> outbox_;
  // Reused flush staging buffer: capacities circulate between it and the
  // outboxes, so steady-state flushes stop allocating at high-water size.
  std::vector<OutboxEntry> flush_scratch_;
  bool flush_scheduled_ = false;  // kInstant: one zero-delay flush-all event

  // --- fault tolerance (all empty and untouched when disabled) ----------
  // Shadow tables: the rule state every send has committed each switch to,
  // applied at SEND time through the same proto::apply_flow_mod the switch
  // runs at completion. Once the switch's inbox drains, table == shadow;
  // resync replays the shadow after a crash. Inner map ordered so resync
  // replay order is deterministic.
  std::unordered_map<NodeId, std::map<std::uint8_t, flow::FlowTable>> shadow_;
  std::unordered_map<NodeId, std::deque<UnfencedSend>> unfenced_;
  std::unordered_map<NodeId, std::uint64_t> send_seq_;
  // Barrier xid -> per-switch send sequence it fences (recorded at barrier
  // send; the reply clears the unfenced prefix up to it).
  std::unordered_map<Xid, std::uint64_t> barrier_seq_;
  // Switches with an unfenced non-strict DELETE: the shadow cannot name
  // what a retained table might still hold, so their resync replays the
  // full image plus corrective strict deletes.
  std::unordered_set<NodeId> full_resync_;
  // In-flight resync barriers, by xid, and in-flight rollback unwinds, by
  // the unwind's update id.
  std::unordered_map<Xid, NodeId> resync_waiting_;
  std::unordered_map<UpdateId, RollbackCtx> rollback_ctx_;
  std::function<void(NodeId)> on_switch_resynced_;
  // Bumped once per handle_reconnect: shadow state was rewritten, so any
  // plan compiled earlier may describe a world the switches no longer
  // hold. See resync_generation().
  std::uint64_t resync_generation_ = 0;
  std::size_t timeouts_ = 0;
  std::size_t resyncs_ = 0;
  std::size_t resync_frames_ = 0;
  std::size_t rollbacks_ = 0;
  std::size_t retries_ = 0;
  std::size_t resubmissions_ = 0;
};

}  // namespace tsu::controller
