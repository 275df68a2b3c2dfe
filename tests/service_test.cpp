// Open-loop service mode tests: Poisson and trace arrivals, bounded
// pending queue with load shedding, per-class rate limiting, priority
// admission ordering, live snapshots, and the bounded-memory drain
// contract (steady_state_entries back to zero).
#include <gtest/gtest.h>

#include <algorithm>

#include <cstdlib>
#include <string_view>
#include <vector>

#include "tsu/core/service.hpp"

namespace tsu::core {
namespace {

ServiceConfig small_service() {
  ServiceConfig config;
  config.exec.seed = 42;
  config.exec.with_traffic = false;  // most tests: control plane only
  config.flows = 4;
  config.pool_switches = 24;
  config.exec.controller.max_in_flight = 8;
  config.arrival_rate_per_sec = 20000;
  config.target_completions = 60;
  return config;
}

TEST(ServiceTest, CompletesTargetAndDrainsClean) {
  const Result<ServiceResult> run = execute_service(small_service());
  ASSERT_TRUE(run.ok()) << run.error().to_string();
  const ServiceResult& result = run.value();
  EXPECT_EQ(result.stats.accepted, 60u);
  EXPECT_EQ(result.stats.completed, 60u);
  EXPECT_EQ(result.stats.submitted, result.stats.completed);
  EXPECT_EQ(result.stats.aborted, 0u);
  EXPECT_EQ(result.completions.count, 60u);
  EXPECT_EQ(result.recent.size(), 60u);  // below ring capacity: full history
  // Completion order in the recent window.
  for (std::size_t i = 1; i < result.recent.size(); ++i)
    EXPECT_LE(result.recent[i - 1].finished, result.recent[i].finished);
  // The leak detector: every per-xid / per-update map drained to empty.
  EXPECT_EQ(result.steady_state_entries_final, 0u);
  EXPECT_GT(result.retired_xids, 0u);  // xids were released for reuse
  EXPECT_GT(result.sustained_per_sec(), 0.0);
  // Admission wait covers arrival -> start, so it is >= 0 and was folded
  // into the streaming stats for every completion.
  EXPECT_EQ(result.completions.wait_ms.count(), 60u);
}

TEST(ServiceTest, DeterministicPerSeed) {
  const Result<ServiceResult> a = execute_service(small_service());
  const Result<ServiceResult> b = execute_service(small_service());
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().stats.arrivals, b.value().stats.arrivals);
  EXPECT_EQ(a.value().stats.completed, b.value().stats.completed);
  EXPECT_EQ(a.value().sim_duration, b.value().sim_duration);
  EXPECT_EQ(a.value().final_state_digest, b.value().final_state_digest);
  EXPECT_EQ(a.value().frames_sent, b.value().frames_sent);
}

// The plan cache's transparency contract: a cached submission must be
// BIT-identical to a from-scratch one - same frames on the wire, same
// forwarding state, same makespan, same oracle verdict - across seeds,
// with traffic and sharding mixed in. Any divergence means the compiled
// plan diverged from what the lowering pipeline would have produced.
TEST(ServiceTest, PlanCacheIsBitTransparentAcrossSeeds) {
  // The CI cache-off sweep (TSU_PLAN_CACHE=off) forces both arms of this
  // comparison onto the same path, which would vacuously pass the identity
  // checks and fail the cache-on counter assertions - skip it there; the
  // normal legs run it.
  if (const char* env = std::getenv("TSU_PLAN_CACHE");
      env != nullptr && std::string_view(env) == "off")
    GTEST_SKIP() << "plan cache forced off by environment";
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    ServiceConfig config = small_service();
    config.exec.seed = seed;
    config.target_completions = 30;
    config.exec.with_traffic = (seed % 5 == 0);  // oracle on a fifth of them
    if (seed % 3 == 0) config.exec.controller.shards = 2;
    ServiceConfig off_config = config;
    off_config.exec.controller.plan_cache = false;

    const Result<ServiceResult> on = execute_service(config);
    const Result<ServiceResult> off = execute_service(off_config);
    ASSERT_TRUE(on.ok()) << "seed " << seed << ": " << on.error().to_string();
    ASSERT_TRUE(off.ok()) << "seed " << seed << ": "
                          << off.error().to_string();

    EXPECT_EQ(on.value().final_state_digest, off.value().final_state_digest)
        << "seed " << seed;
    EXPECT_EQ(on.value().frames_sent, off.value().frames_sent)
        << "seed " << seed;
    EXPECT_EQ(on.value().sim_duration, off.value().sim_duration)
        << "seed " << seed;
    EXPECT_EQ(on.value().stats.completed, off.value().stats.completed)
        << "seed " << seed;
    EXPECT_EQ(on.value().traffic.total, off.value().traffic.total)
        << "seed " << seed;
    EXPECT_EQ(on.value().traffic.bypassed, off.value().traffic.bypassed)
        << "seed " << seed;
    EXPECT_EQ(on.value().traffic.looped, off.value().traffic.looped)
        << "seed " << seed;
    EXPECT_EQ(on.value().traffic.blackholed, off.value().traffic.blackholed)
        << "seed " << seed;

    // The cache actually engaged: templates repeat, so most submissions
    // after the first few are hits; cache-off reports all-zero counters.
    EXPECT_GT(on.value().stats.plan_hits, 0u) << "seed " << seed;
    EXPECT_GT(on.value().stats.plan_compiles, 0u) << "seed " << seed;
    EXPECT_EQ(off.value().stats.plan_compiles, 0u) << "seed " << seed;
    EXPECT_EQ(off.value().stats.plan_hits, 0u) << "seed " << seed;
    EXPECT_EQ(off.value().stats.plan_invalidations, 0u) << "seed " << seed;
  }
}

TEST(ServiceTest, TrafficOracleSeesNoViolations) {
  ServiceConfig config = small_service();
  config.exec.with_traffic = true;
  config.target_completions = 24;
  const Result<ServiceResult> run = execute_service(config);
  ASSERT_TRUE(run.ok()) << run.error().to_string();
  const ServiceResult& result = run.value();
  EXPECT_GT(result.traffic.total, 0u);
  EXPECT_EQ(result.traffic.bypassed, 0u);
  EXPECT_EQ(result.traffic.looped, 0u);
  EXPECT_EQ(result.traffic.blackholed, 0u);
  EXPECT_EQ(result.steady_state_entries_final, 0u);
}

TEST(ServiceTest, VersionLogStaysFlatUnderTraffic) {
  // The exact evaluator settles packets at completions and prunes the
  // table-0 version logs behind the oldest unsettled read: after warm-up
  // the retained entries must stop growing however long the run goes.
  ServiceConfig config = small_service();
  config.exec.with_traffic = true;
  config.target_completions = 2000;
  config.snapshot_interval = sim::milliseconds(2);
  std::vector<std::size_t> entries;
  config.on_snapshot = [&](const ServiceSnapshot& s) {
    entries.push_back(s.version_log_entries);
  };
  const Result<ServiceResult> run = execute_service(config);
  ASSERT_TRUE(run.ok()) << run.error().to_string();
  EXPECT_GT(run.value().traffic.total, 0u);
  EXPECT_EQ(run.value().traffic.blackholed, 0u);
  ASSERT_GE(entries.size(), 20u);
  // Warm-up is the first quarter; the high-water mark of the second half
  // must stay at the one the second quarter already reached, give or take
  // where in the settle cadence a snapshot happens to land. An unpruned
  // log would instead grow with every one of the thousands of rule
  // changes the run logs.
  const std::size_t quarter = entries.size() / 4;
  const std::size_t warm = *std::max_element(
      entries.begin() + static_cast<std::ptrdiff_t>(quarter),
      entries.begin() + static_cast<std::ptrdiff_t>(2 * quarter));
  const std::size_t late = *std::max_element(
      entries.begin() + static_cast<std::ptrdiff_t>(2 * quarter),
      entries.end());
  EXPECT_GT(warm, 0u);
  EXPECT_LE(late, warm + warm / 4);
}

TEST(ServiceTest, FullPendingQueueShedsLoad) {
  ServiceConfig config = small_service();
  config.target_completions = 0;
  config.horizon = sim::milliseconds(5);
  config.arrival_rate_per_sec = 1000000;  // far beyond service capacity
  config.max_pending = 8;
  config.submit_depth = 2;
  config.exec.controller.max_in_flight = 1;
  const Result<ServiceResult> run = execute_service(config);
  ASSERT_TRUE(run.ok()) << run.error().to_string();
  const ServiceResult& result = run.value();
  EXPECT_GT(result.stats.rejected, 0u);
  EXPECT_LE(result.stats.peak_pending, 8u);
  EXPECT_EQ(result.stats.accepted + result.stats.rejected,
            result.stats.arrivals);
  // Every accepted request still completed - rejection is the ONLY loss.
  EXPECT_EQ(result.stats.completed, result.stats.accepted);
  EXPECT_EQ(result.steady_state_entries_final, 0u);
}

TEST(ServiceTest, PerClassRateLimitThrottles) {
  ServiceConfig config = small_service();
  config.target_completions = 40;
  config.arrival_rate_per_sec = 100000;
  config.classes = {ServiceClassConfig{/*rate_limit_per_sec=*/20000,
                                       /*burst=*/1, /*weight=*/1}};
  const Result<ServiceResult> run = execute_service(config);
  ASSERT_TRUE(run.ok()) << run.error().to_string();
  const ServiceResult& result = run.value();
  EXPECT_GT(result.stats.throttled, 0u);
  EXPECT_EQ(result.stats.completed, 40u);
  // Arrivals outpace the release rate 5:1, so requests measurably sat in
  // the pending queue: admission wait strictly exceeds queueing delay.
  EXPECT_GT(result.completions.wait_ms.mean(), 0.0);
  EXPECT_EQ(result.steady_state_entries_final, 0u);
}

TEST(ServiceTest, HighPriorityClassWaitsLess) {
  ServiceConfig config = small_service();
  config.exec.seed = 7;
  config.target_completions = 120;
  config.arrival_rate_per_sec = 50000;  // saturating: the queue is never dry
  config.max_pending = 256;
  config.submit_depth = 1;
  config.exec.controller.max_in_flight = 1;
  config.classes = {ServiceClassConfig{0, 1, 1}, ServiceClassConfig{0, 1, 1}};
  const Result<ServiceResult> run = execute_service(config);
  ASSERT_TRUE(run.ok()) << run.error().to_string();
  const ServiceResult& result = run.value();
  ASSERT_EQ(result.stats.by_class.size(), 2u);
  EXPECT_GT(result.stats.by_class[0].completed, 0u);
  EXPECT_GT(result.stats.by_class[1].completed, 0u);
  // All 120 completions fit in the recent ring? No - ring capacity is 256,
  // and 120 < 256, so the window holds every completion with its class.
  double wait0 = 0, wait1 = 0;
  std::size_t n0 = 0, n1 = 0;
  for (const controller::UpdateMetrics& m : result.recent) {
    if (m.priority_class == 0) {
      wait0 += static_cast<double>(m.admission_wait());
      ++n0;
    } else {
      wait1 += static_cast<double>(m.admission_wait());
      ++n1;
    }
  }
  ASSERT_GT(n0, 0u);
  ASSERT_GT(n1, 0u);
  // Class 0 jumps the pending queue, so its mean admission wait must be
  // strictly lower under saturation.
  EXPECT_LT(wait0 / static_cast<double>(n0), wait1 / static_cast<double>(n1));
}

TEST(ServiceTest, SnapshotsStreamAndStayBounded) {
  ServiceConfig config = small_service();
  config.target_completions = 80;
  config.arrival_rate_per_sec = 10000;
  config.snapshot_interval = sim::milliseconds(1);
  config.snapshot_window = 4;
  std::size_t callbacks = 0;
  std::uint64_t last_completed = 0;
  config.on_snapshot = [&](const ServiceSnapshot& s) {
    ++callbacks;
    EXPECT_GE(s.completed, last_completed);  // cumulative counters
    last_completed = s.completed;
  };
  const Result<ServiceResult> run = execute_service(config);
  ASSERT_TRUE(run.ok()) << run.error().to_string();
  const ServiceResult& result = run.value();
  ASSERT_FALSE(result.snapshots.empty());
  EXPECT_LE(result.snapshots.size(), 4u);  // bounded ring
  EXPECT_GE(callbacks, result.snapshots.size());
  for (std::size_t i = 1; i < result.snapshots.size(); ++i)
    EXPECT_LT(result.snapshots[i - 1].at, result.snapshots[i].at);
  // Live stats carried real data.
  EXPECT_GT(result.snapshots.back().completed, 0u);
  EXPECT_GT(result.snapshots.back().p50_duration_ms, 0.0);
}

TEST(ServiceTest, TraceDrivenArrivalsFollowTheTrace) {
  ServiceConfig config = small_service();
  config.target_completions = 0;
  // 30 gaps, no cycling: exactly 30 arrivals, then the trace is exhausted.
  config.trace.assign(30, sim::microseconds(100));
  config.trace_cycle = false;
  const Result<ServiceResult> run = execute_service(config);
  ASSERT_TRUE(run.ok()) << run.error().to_string();
  const ServiceResult& result = run.value();
  EXPECT_EQ(result.stats.arrivals, 30u);
  EXPECT_EQ(result.stats.completed, result.stats.accepted);
  EXPECT_EQ(result.steady_state_entries_final, 0u);
}

TEST(ServiceTest, RejectsUnboundedConfigs) {
  ServiceConfig config = small_service();
  config.target_completions = 0;
  config.horizon = 0;
  EXPECT_FALSE(execute_service(config).ok());  // arrivals would never stop
  config = small_service();
  config.max_pending = 0;
  EXPECT_FALSE(execute_service(config).ok());
  config = small_service();
  config.classes.clear();
  EXPECT_FALSE(execute_service(config).ok());
}

TEST(ServiceTest, ShardedServiceDrainsClean) {
  ServiceConfig config = small_service();
  config.exec.controller.shards = 2;
  config.target_completions = 40;
  const Result<ServiceResult> run = execute_service(config);
  ASSERT_TRUE(run.ok()) << run.error().to_string();
  EXPECT_EQ(run.value().stats.completed, 40u);
  EXPECT_EQ(run.value().steady_state_entries_final, 0u);
}

}  // namespace
}  // namespace tsu::core
