// Always-on open-loop service mode: instead of submitting a fixed workload
// and draining (the closed loop every execute_* entry point runs), the
// service executor keeps a pool of update templates and injects requests
// into the running control plane at times drawn from an arrival process
// (topo/arrivals.hpp) - Poisson or trace-driven - independent of how fast
// the engine completes them. That makes the questions the closed loop
// cannot ask observable: what saturates first, how deep the backlog grows,
// what gets rejected, and whether memory stays flat while cumulative work
// grows without bound.
//
// Admission pipeline (all sim-time, fully deterministic under one seed):
//
//   arrival ──> pending queue ──> per-class token bucket ──> submit
//               (bounded:          (rate_limit_per_sec,       (controller
//                overflow =         deferred = throttled)      admission DAG,
//                rejected)                                     max_in_flight)
//
// Requests carry a priority class (0 = highest): the pending queue releases
// strictly-lowest-class first (FIFO within a class), and the controller's
// own start scan honours the same order among admissible queued requests.
//
// Bounded-memory contract: the service loop holds no per-request state
// beyond the bounded pending queue and the controller's own in-flight maps;
// completions stream into CompletionLog aggregates plus a fixed recent
// ring. A run of 10 million updates retains exactly as much memory as a run
// of ten thousand - the soak test pins this with allocator watermarks.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "tsu/controller/completion_log.hpp"
#include "tsu/core/executor.hpp"
#include "tsu/dataplane/monitor.hpp"
#include "tsu/sim/time.hpp"
#include "tsu/topo/arrivals.hpp"
#include "tsu/util/status.hpp"

namespace tsu::controller {
class ShardCoordinator;
}

namespace tsu::core {

// One admission priority class. Class index = priority (0 served first).
struct ServiceClassConfig {
  // Token-bucket release rate for this class, requests/second; 0 = no
  // limit. A throttled class defers its head-of-line request (counted in
  // ServiceStats::throttled) without blocking lower-priority classes.
  double rate_limit_per_sec = 0;
  // Token-bucket burst capacity (whole requests).
  double burst = 1;
  // Relative share of arrivals labelled with this class.
  double weight = 1;
};

struct ServiceConfig {
  // Control-plane wiring (channel, switch, controller, traffic, seed). The
  // closed-loop warmup/drain fields are ignored; with_traffic still
  // controls whether the consistency oracle observes packets.
  ExecutorConfig exec;

  // Update-template pool: `flows` two-path instances over `pool_switches`
  // switches (topo::pool_workload). Each arrival picks a template uniformly;
  // when alternate_directions, consecutive submissions of one template flip
  // between old->new and new->old so the data plane always transitions from
  // its actual current state.
  std::size_t flows = 8;
  std::size_t pool_switches = 48;
  bool alternate_directions = true;

  // Arrival process: a non-empty trace wins, else Poisson at arrival_rate.
  double arrival_rate_per_sec = 2000;
  std::vector<sim::Duration> trace;  // interarrival gaps (ns)
  bool trace_cycle = true;

  // Stop admitting arrivals at sim-time `horizon` (0 = none), or once
  // `target_completions` requests have been ACCEPTED into the pending
  // queue (0 = none) - every accepted request still completes, so the
  // completion count reaches the target. At least one bound is required.
  sim::Duration horizon = 0;
  std::uint64_t target_completions = 0;

  // Bounded pending queue: an arrival finding it full is REJECTED (load
  // shedding), not buffered - the invariant that makes steady-state memory
  // independent of overload duration.
  std::size_t max_pending = 1024;

  // Priority classes; index = class = UpdateRequest::priority_class.
  // Default: one unlimited class 0 (plain FIFO open loop).
  std::vector<ServiceClassConfig> classes = {ServiceClassConfig{}};

  // How many requests may sit in the controller (queued + active) before
  // the release loop holds the rest in the pending queue. 0 = 2 x
  // max_in_flight x shards - deep enough to keep every slot fed, shallow
  // enough that priority reordering happens in the pending queue where it
  // is cheap.
  std::size_t submit_depth = 0;

  // Live stats: every `snapshot_interval` of sim time (0 = off) a
  // ServiceSnapshot is appended to a bounded ring of `snapshot_window`
  // entries and handed to `on_snapshot` (if set) - the feed behind
  // sim_cli --serve and the REST stats document.
  sim::Duration snapshot_interval = 0;
  std::size_t snapshot_window = 64;
  std::function<void(const struct ServiceSnapshot&)> on_snapshot;

  // Test hook: runs against the wired controller before the first arrival
  // (the soak test uses it to pre-exhaust the xid space and force sequence
  // wrap + recycling mid-run).
  std::function<void(controller::ShardCoordinator&)> tune;
};

// Per-class streaming counters.
struct ServiceClassStats {
  std::uint64_t arrivals = 0;
  std::uint64_t accepted = 0;   // entered the pending queue
  std::uint64_t rejected = 0;   // pending queue full
  std::uint64_t submitted = 0;  // released to the controller
  std::uint64_t completed = 0;
  std::uint64_t throttled = 0;  // head-of-line deferrals by the bucket
};

// Streaming service counters - O(classes) memory regardless of run length.
struct ServiceStats {
  std::uint64_t arrivals = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t aborted = 0;
  std::uint64_t throttled = 0;
  std::size_t peak_pending = 0;
  std::size_t peak_controller_depth = 0;  // queued + active high-water
  // Compiled-plan cache counters (all zero when controller.plan_cache is
  // off): compiles = cache misses that built a plan, hits = submissions
  // served from a cached plan, invalidations = cached plans discarded
  // because a fault-driven resync bumped the generation.
  std::uint64_t plan_compiles = 0;
  std::uint64_t plan_hits = 0;
  std::uint64_t plan_invalidations = 0;
  std::vector<ServiceClassStats> by_class;
};

// One live snapshot of the serving system (all cumulative unless noted).
struct ServiceSnapshot {
  sim::SimTime at = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::size_t pending = 0;            // service pending queue, now
  std::size_t controller_depth = 0;   // controller queued + active, now
  std::size_t steady_state_entries = 0;
  // Table-0 version-log entries retained across switches, now (switchsim/
  // history.hpp; 0 without exact traffic). Flat once warm: the logs are
  // pruned behind the oldest unsettled packet read.
  std::size_t version_log_entries = 0;
  // Plan-cache counters, cumulative (see ServiceStats).
  std::uint64_t plan_compiles = 0;
  std::uint64_t plan_hits = 0;
  std::uint64_t plan_invalidations = 0;
  double window_throughput_per_sec = 0;  // completions since last snapshot
  // Cumulative latency quantiles from the streaming histograms.
  double p50_duration_ms = 0;
  double p99_duration_ms = 0;
  double p50_wait_ms = 0;   // admission wait: enqueued -> started
  double p99_wait_ms = 0;
};

struct ServiceResult {
  ServiceStats stats;
  // Lifetime aggregation of every completion (count, aborted, streaming
  // mean/stddev and log-histogram quantiles of duration and admission
  // wait) plus the fixed-size recent window.
  controller::CompletionStats completions;
  std::vector<controller::UpdateMetrics> recent;
  // Consistency oracle over the whole run (empty when !with_traffic).
  dataplane::MonitorReport traffic;
  std::vector<ServiceSnapshot> snapshots;  // last snapshot_window, in order
  // Controller map/queue entries after the drain - the leak detector; a
  // healthy run ends at 0.
  std::size_t steady_state_entries_final = 0;
  std::uint64_t final_state_digest = 0;
  sim::Duration sim_duration = 0;  // first arrival -> last completion
  double wall_ms = 0;
  std::size_t frames_sent = 0;
  // Xid sequence numbers sitting in the per-shard recycle free lists after
  // the drain - nonzero proves updates retired and released their xids.
  std::size_t retired_xids = 0;

  double sustained_per_sec() const noexcept {
    return sim_duration == 0
               ? 0
               : static_cast<double>(stats.completed) * 1e9 /
                     static_cast<double>(sim_duration);
  }
};

// Runs the open-loop service until arrivals stop (horizon / target /
// exhausted trace) and the system drains. Deterministic per seed.
Result<ServiceResult> execute_service(const ServiceConfig& config);

}  // namespace tsu::core
