// Executes a schedule against the full simulated control plane - the C++
// equivalent of running the paper's demo once: switches come up with the old
// route installed, traffic flows, the controller pushes the schedule round
// by round over asynchronous channels with barriers, and the consistency
// monitor watches every packet.
//
// The engine behind every entry point runs over CONTROLLER SHARDS
// (controller/shard.hpp): config.controller.shards partitions the switches
// across that many controller instances on a sharded logical clock
// (sim/sharded.hpp), with cross-shard updates coordinated round-by-round.
// The default shards = 1 is the single controller, bit-identical to the
// pre-sharding engine.
#pragma once

#include <cstdint>
#include <vector>

#include "tsu/channel/channel.hpp"
#include "tsu/controller/controller.hpp"
#include "tsu/controller/shard.hpp"
#include "tsu/dataplane/monitor.hpp"
#include "tsu/dataplane/traffic.hpp"
#include "tsu/sim/faults.hpp"
#include "tsu/switchsim/switch.hpp"
#include "tsu/update/instance.hpp"
#include "tsu/update/schedule.hpp"
#include "tsu/util/status.hpp"

namespace tsu::core {

struct ExecutorConfig {
  std::uint64_t seed = 1;
  channel::ChannelConfig channel;
  switchsim::SwitchConfig switch_config;
  controller::ControllerConfig controller;
  FlowId flow = 1;
  std::uint16_t priority = 100;
  sim::Duration interval = 0;        // inter-round pause (REST "interval")
  // Traffic during the update. Constant interarrival and link latency (the
  // defaults) take the exact evaluator, any other model the per-packet
  // path (dataplane/traffic.hpp). The interarrival must be positive.
  bool with_traffic = true;
  sim::LatencyModel traffic_interarrival =
      sim::LatencyModel::constant(sim::microseconds(200));
  sim::LatencyModel link_latency =
      sim::LatencyModel::constant(sim::microseconds(50));
  int ttl = 64;
  sim::Duration warmup = sim::milliseconds(5);   // traffic before the update
  sim::Duration drain = sim::milliseconds(20);   // observation after it
  // Fault injection (sim/faults.hpp): switch crashes, control-link outages
  // and frame blackholes at scheduled sim times. An EMPTY schedule leaves
  // every digest bit-identical to a build without the subsystem. A
  // non-empty schedule with controller.liveness_timeout == 0 enables fault
  // tolerance with a default 25 ms timeout (every injected fault must be
  // detectable, or the run cannot drain).
  sim::FaultSchedule faults;
};

struct ExecutionResult {
  controller::UpdateMetrics update;        // timings as the controller saw them
  dataplane::MonitorReport traffic;        // packet outcome counts
  std::vector<dataplane::ConsistencyMonitor::Bucket> timeline;
  sim::Duration timeline_bucket = 0;
  std::size_t frames_sent = 0;             // control-channel frames
  std::size_t control_bytes = 0;
  std::size_t packets_injected = 0;
  // Exact violation windows of this flow's traffic: injection-time spans
  // [begin, end) whose packets bypass, loop or blackhole, over continuous
  // time rather than the injection grid (ConsistencyMonitor::windows()).
  // Empty for stochastic traffic models, which take the per-packet path.
  std::vector<dataplane::ConsistencyMonitor::Window> windows;

  double update_ms() const noexcept { return sim::to_ms(update.duration()); }
};

// Runs one simulated update. The instance's node ids index the switches;
// the schedule must already be planned for this instance.
Result<ExecutionResult> execute(const update::Instance& inst,
                                const update::Schedule& schedule,
                                const ExecutorConfig& config = {});

// Executes several updates through one controller back-to-back (the paper's
// message queue; bench E8). The controller is forced to max_in_flight = 1,
// so results are per-request in submission order.
Result<std::vector<ExecutionResult>> execute_queue(
    const std::vector<const update::Instance*>& instances,
    const std::vector<const update::Schedule*>& schedules,
    const ExecutorConfig& config = {});

// Executes several updates CONCURRENTLY through one controller: up to
// config.controller.max_in_flight requests progress at once, their rounds
// interleaving on the shared control plane, while per-flow traffic and the
// consistency monitor observe every flow simultaneously. With
// config.controller.batch_frames the controller coalesces same-instant
// messages per switch into Batch frames.
// Batching observability of one engine run (see controller::BatchMode):
// frames actually batched, what triggered the flushes, and the longest any
// message was held in an outbox past readiness (bounded by batch_window).
struct BatchingStats {
  std::size_t batches_sent = 0;
  std::size_t messages_coalesced = 0;
  std::size_t timer_flushes = 0;
  std::size_t budget_flushes = 0;
  std::size_t flush_timers_cancelled = 0;
  sim::Duration max_hold = 0;

  double max_hold_ms() const noexcept { return sim::to_ms(max_hold); }
};

// Sharding observability of one engine run (see controller/shard.hpp and
// sim/sharded.hpp): how many updates spanned shards, what the two-phase
// round barrier cost - the summed spread between the first and last shard
// confirming each cross-shard round - and how the stepping engine ran:
// epochs that stepped shards concurrently, sequential fallback steps at
// collapsed horizons, per-shard event counts (identical across reruns of a
// seed; the parallel determinism test pins this), the workload cut the
// partition paid, and the wall-clock cost of the run loop (steady-clock;
// the simulation itself never reads wall time).
struct ShardStats {
  std::size_t shards = 1;
  sim::ExecMode exec = sim::ExecMode::kSequential;
  std::size_t threads = 1;  // pool lanes actually used (1 when sequential)
  std::size_t cross_shard_updates = 0;
  std::size_t rounds_synced = 0;
  sim::Duration sync_overhead = 0;
  std::size_t parallel_epochs = 0;
  std::size_t horizon_stalls = 0;
  // Interval skips taken by speculative round release
  // (controller.speculate; 0 without conflict-aware admission).
  std::size_t speculative_releases = 0;
  // Epoch launches the work-stealing reorder promoted past a lower-indexed
  // busy shard (controller.steal; sim/sharded.hpp).
  std::size_t steals = 0;
  // Cross-shard mailbox posts that found their SPSC ring full and took the
  // locked overflow path (sim/sharded.hpp) - 0 on a well-sized steady
  // state.
  std::size_t overflow_posts = 0;
  std::vector<std::size_t> events_per_shard;
  // Affinity weight of the workload's switch co-occurrence graph crossing
  // shards under the chosen partition (topo::SwitchPartition::cut_weight).
  std::size_t partition_cut_weight = 0;
  double wall_ms = 0;

  double sync_overhead_ms() const noexcept {
    return sim::to_ms(sync_overhead);
  }
};

struct MultiFlowExecutionResult {
  std::vector<ExecutionResult> flows;     // indexed like the input lists
  dataplane::MonitorReport aggregate;     // outcome counts over all flows
  std::size_t frames_sent = 0;            // control-channel frames, total
  std::size_t control_bytes = 0;
  std::size_t messages_sent = 0;          // logical messages (>= frames)
  std::size_t max_in_flight_observed = 0;
  // Admission stats (see controller/admission.hpp): dependency edges the
  // conflict DAG created, and requests that had to wait on a conflict.
  std::uint64_t conflict_edges = 0;
  std::uint64_t blocked_submissions = 0;
  BatchingStats batching;
  ShardStats sharding;
  // Fault-injection observability (empty unless config.faults is set):
  // injected fault counts, frames lost to them, and the controller's
  // detection/recovery counters (sim/faults.hpp).
  sim::FaultStats faults;
  // Order-insensitive digest of every switch's final flow tables; two runs
  // installed the same forwarding state iff their digests match (the
  // batched-vs-unbatched equivalence oracle, and the sharded-vs-single
  // controller one).
  std::uint64_t final_state_digest = 0;
  // Same digest taken right after the initial rules were installed, before
  // any update ran: what a fully rolled-back, non-resubmitted update must
  // leave behind.
  std::uint64_t initial_state_digest = 0;
  sim::Duration makespan = 0;             // first start -> last finish

  double makespan_ms() const noexcept { return sim::to_ms(makespan); }
};

Result<MultiFlowExecutionResult> execute_multiflow(
    const std::vector<const update::Instance*>& instances,
    const std::vector<const update::Schedule*>& schedules,
    const ExecutorConfig& config = {});

// Executes several policies as ONE multi-policy request whose global rounds
// interleave the per-policy rounds (update::merge_policies +
// controller::request_from_merged; bench E11). Per-policy guarantees carry
// over because each policy's rounds stay ordered and barrier-separated.
struct MergedExecutionResult {
  controller::UpdateMetrics update;              // the single merged update
  std::vector<dataplane::MonitorReport> traffic; // per policy
  std::size_t frames_sent = 0;

  double update_ms() const noexcept { return sim::to_ms(update.duration()); }
};

Result<MergedExecutionResult> execute_merged(
    const std::vector<const update::Instance*>& instances,
    const std::vector<const update::Schedule*>& schedules,
    const ExecutorConfig& config = {});

// Executes a MIX of merged and independent requests through one controller:
// `groups` partitions the policy indexes; each singleton group becomes an
// ordinary per-flow request, each larger group is merged
// (update::merge_policies) into one multi-policy request, and all requests
// then compose through the controller's admission policy - a merged request
// runs concurrently with any independent request whose rule footprint it
// does not overlap. This is execute_merged and execute_multiflow on the
// same control plane at once.
struct MixedExecutionResult {
  std::vector<controller::UpdateMetrics> updates;  // per group, input order
  std::vector<dataplane::MonitorReport> traffic;   // per policy, input order
  dataplane::MonitorReport aggregate;
  std::size_t frames_sent = 0;
  std::size_t max_in_flight_observed = 0;
  std::uint64_t conflict_edges = 0;
  std::uint64_t blocked_submissions = 0;
  BatchingStats batching;
  ShardStats sharding;
  sim::FaultStats faults;
  std::uint64_t final_state_digest = 0;
  std::uint64_t initial_state_digest = 0;
  sim::Duration makespan = 0;

  double makespan_ms() const noexcept { return sim::to_ms(makespan); }
};

Result<MixedExecutionResult> execute_mixed(
    const std::vector<const update::Instance*>& instances,
    const std::vector<const update::Schedule*>& schedules,
    const std::vector<std::vector<std::size_t>>& groups,
    const ExecutorConfig& config = {});

}  // namespace tsu::core
