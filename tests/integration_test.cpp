// End-to-end tests: planner -> controller -> channels -> switches ->
// data plane, on the paper's Figure 1 scenario. These are the C++
// equivalent of the demo itself.
#include <gtest/gtest.h>

#include "tsu/core/experiment.hpp"
#include "tsu/core/executor.hpp"
#include "tsu/core/planner.hpp"
#include "tsu/topo/instances.hpp"

namespace tsu::core {
namespace {

ExecutorConfig harsh_async_config(std::uint64_t seed) {
  // Heavy jitter on both the channel and the installs: the conditions under
  // which one-shot updates visibly break.
  ExecutorConfig config;
  config.seed = seed;
  config.channel.latency =
      sim::LatencyModel::uniform(sim::microseconds(100), sim::milliseconds(8));
  config.switch_config.install_latency =
      sim::LatencyModel::lognormal(sim::milliseconds(2), 1.0);
  config.traffic_interarrival =
      sim::LatencyModel::constant(sim::microseconds(100));
  config.link_latency = sim::LatencyModel::constant(sim::microseconds(20));
  return config;
}

TEST(IntegrationTest, WayUpOnFig1NeverBypassesWaypoint) {
  const topo::Fig1 fig = topo::fig1();
  const Result<PlanOutcome> planned =
      plan(fig.instance, Algorithm::kWayUp);
  ASSERT_TRUE(planned.ok());
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const Result<ExecutionResult> result =
        execute(fig.instance, planned.value().schedule,
                harsh_async_config(seed));
    ASSERT_TRUE(result.ok()) << result.error().to_string();
    EXPECT_EQ(result.value().traffic.bypassed, 0u) << "seed " << seed;
    EXPECT_GT(result.value().traffic.delivered, 0u);
  }
}

TEST(IntegrationTest, OneShotOnFig1BypassesUnderAsynchrony) {
  const topo::Fig1 fig = topo::fig1();
  const Result<PlanOutcome> planned =
      plan(fig.instance, Algorithm::kOneShot);
  ASSERT_TRUE(planned.ok());
  std::size_t bypassed_runs = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const Result<ExecutionResult> result =
        execute(fig.instance, planned.value().schedule,
                harsh_async_config(seed));
    ASSERT_TRUE(result.ok());
    if (result.value().traffic.bypassed > 0) ++bypassed_runs;
  }
  // The security violation the paper demos must actually materialize.
  EXPECT_GT(bypassed_runs, 0u);
}

TEST(IntegrationTest, PeacockOnFig1NeverLoops) {
  const topo::Fig1 fig = topo::fig1();
  const Result<PlanOutcome> planned =
      plan(fig.instance, Algorithm::kPeacock);
  ASSERT_TRUE(planned.ok());
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const Result<ExecutionResult> result =
        execute(fig.instance, planned.value().schedule,
                harsh_async_config(seed));
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().traffic.looped, 0u) << "seed " << seed;
    EXPECT_EQ(result.value().traffic.ttl_expired, 0u) << "seed " << seed;
  }
}

TEST(IntegrationTest, UpdateMetricsAreConsistent) {
  const topo::Fig1 fig = topo::fig1();
  const Result<PlanOutcome> planned = plan(fig.instance, Algorithm::kWayUp);
  ASSERT_TRUE(planned.ok());
  const Result<ExecutionResult> result =
      execute(fig.instance, planned.value().schedule, ExecutorConfig{});
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  const ExecutionResult& r = result.value();
  // 4 semantic rounds + cleanup.
  ASSERT_EQ(r.update.rounds.size(), 5u);
  for (std::size_t i = 1; i < r.update.rounds.size(); ++i)
    EXPECT_GE(r.update.rounds[i].started, r.update.rounds[i - 1].finished);
  EXPECT_EQ(r.update.flow_mods_sent, 11u);  // 8 touched + 3 cleanup
  EXPECT_GT(r.update.barriers_sent, 0u);
  EXPECT_GT(r.frames_sent, 0u);
  EXPECT_GT(r.control_bytes, 0u);
  EXPECT_GT(r.update_ms(), 0.0);
}

TEST(IntegrationTest, ExactWindowsSeeWhatSparseSamplingMisses) {
  // One-shot on Fig. 1 under harsh asynchrony opens transient violation
  // windows. They are a property of the control plane alone, so the
  // exact windows come out the same at any injection gap - while a 97 ms
  // gap samples the network once before the update and once long after,
  // and counts nothing.
  const topo::Fig1 fig = topo::fig1();
  const Result<PlanOutcome> oneshot = plan(fig.instance, Algorithm::kOneShot);
  ASSERT_TRUE(oneshot.ok());
  std::size_t seeds_with_windows = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    ExecutorConfig dense = harsh_async_config(seed);
    ExecutorConfig sparse = dense;
    sparse.traffic_interarrival =
        sim::LatencyModel::constant(sim::milliseconds(97));
    const Result<ExecutionResult> a =
        execute(fig.instance, oneshot.value().schedule, dense);
    const Result<ExecutionResult> b =
        execute(fig.instance, oneshot.value().schedule, sparse);
    ASSERT_TRUE(a.ok() && b.ok()) << "seed " << seed;
    const ExecutionResult& sampled = b.value();
    ASSERT_EQ(a.value().windows.size(), sampled.windows.size())
        << "seed " << seed;
    for (std::size_t i = 0; i < sampled.windows.size(); ++i) {
      EXPECT_EQ(a.value().windows[i].outcome, sampled.windows[i].outcome);
      EXPECT_EQ(a.value().windows[i].begin, sampled.windows[i].begin);
      EXPECT_EQ(a.value().windows[i].end, sampled.windows[i].end);
      // Inside the update, and far shorter than the sparse gap.
      EXPECT_GE(sampled.windows[i].begin, sampled.update.started);
      EXPECT_LE(sampled.windows[i].end, sampled.update.finished);
      EXPECT_LT(sampled.windows[i].end - sampled.windows[i].begin,
                sim::milliseconds(97));
    }
    EXPECT_EQ(sampled.traffic.bypassed + sampled.traffic.looped +
                  sampled.traffic.blackholed,
              0u)
        << "seed " << seed;
    if (!sampled.windows.empty()) ++seeds_with_windows;
  }
  EXPECT_GT(seeds_with_windows, 0u);
}

TEST(IntegrationTest, MoreRoundsTakeLonger) {
  const topo::Fig1 fig = topo::fig1();
  ExecutorConfig config;
  config.with_traffic = false;
  const Result<PlanOutcome> oneshot = plan(fig.instance, Algorithm::kOneShot);
  const Result<PlanOutcome> wayup = plan(fig.instance, Algorithm::kWayUp);
  ASSERT_TRUE(oneshot.ok() && wayup.ok());
  const Result<ExecutionResult> fast =
      execute(fig.instance, oneshot.value().schedule, config);
  const Result<ExecutionResult> safe =
      execute(fig.instance, wayup.value().schedule, config);
  ASSERT_TRUE(fast.ok() && safe.ok());
  EXPECT_LT(fast.value().update_ms(), safe.value().update_ms());
}

TEST(IntegrationTest, IntervalStretchesUpdateTime) {
  const topo::Fig1 fig = topo::fig1();
  const Result<PlanOutcome> planned = plan(fig.instance, Algorithm::kWayUp);
  ASSERT_TRUE(planned.ok());
  ExecutorConfig config;
  config.with_traffic = false;
  const Result<ExecutionResult> tight =
      execute(fig.instance, planned.value().schedule, config);
  config.interval = sim::milliseconds(25);
  const Result<ExecutionResult> spaced =
      execute(fig.instance, planned.value().schedule, config);
  ASSERT_TRUE(tight.ok() && spaced.ok());
  // 4 inter-round gaps (incl. before cleanup) of 25 ms each.
  EXPECT_NEAR(spaced.value().update_ms() - tight.value().update_ms(), 100.0,
              1.0);
}

TEST(IntegrationTest, ExecuteQueueSerializes) {
  const topo::Fig1 fig = topo::fig1();
  Rng rng(4242);
  topo::RandomInstanceOptions gen;
  const update::Instance other = topo::random_instance(rng, gen);
  const Result<PlanOutcome> first = plan(fig.instance, Algorithm::kWayUp);
  const Result<PlanOutcome> second = plan(other, Algorithm::kWayUp);
  ASSERT_TRUE(first.ok() && second.ok());

  ExecutorConfig config;
  config.with_traffic = false;
  const Result<std::vector<ExecutionResult>> results = execute_queue(
      {&fig.instance, &other},
      {&first.value().schedule, &second.value().schedule}, config);
  ASSERT_TRUE(results.ok()) << results.error().to_string();
  ASSERT_EQ(results.value().size(), 2u);
  const auto& m1 = results.value()[0].update;
  const auto& m2 = results.value()[1].update;
  EXPECT_GE(m2.started, m1.finished);
  EXPECT_GT(m2.queueing_delay(), 0u);
  EXPECT_EQ(m1.queueing_delay(), 0u);
}

TEST(IntegrationTest, RunExperimentCombinesPlanCheckExecute) {
  const topo::Fig1 fig = topo::fig1();
  const Result<ExperimentResult> result =
      run_experiment(fig.instance, Algorithm::kWayUp);
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  EXPECT_TRUE(result.value().check.ok);
  EXPECT_EQ(result.value().schedule.round_count(), 4u);
  EXPECT_GT(result.value().execution.traffic.total, 0u);
  const std::string line = result.value().summary_line();
  EXPECT_NE(line.find("wayup"), std::string::npos);
  EXPECT_NE(line.find("check=OK"), std::string::npos);
}

TEST(IntegrationTest, SweepSeedsAggregates) {
  const topo::Fig1 fig = topo::fig1();
  const Result<PlanOutcome> planned = plan(fig.instance, Algorithm::kWayUp);
  ASSERT_TRUE(planned.ok());
  const Result<SeedSweep> sweep =
      sweep_seeds(fig.instance, planned.value().schedule, ExecutorConfig{},
                  {1, 2, 3, 4, 5});
  ASSERT_TRUE(sweep.ok());
  EXPECT_EQ(sweep.value().runs, 5u);
  EXPECT_EQ(sweep.value().update_ms.count(), 5u);
  EXPECT_EQ(sweep.value().runs_with_bypass, 0u);
  EXPECT_GT(sweep.value().update_ms.mean(), 0.0);
}

TEST(PlannerTest, AlgorithmNamesRoundTrip) {
  for (const Algorithm algorithm :
       {Algorithm::kOneShot, Algorithm::kTwoPhase, Algorithm::kWayUp,
        Algorithm::kPeacock, Algorithm::kSlfGreedy, Algorithm::kOptimal}) {
    const auto parsed = algorithm_from_string(to_string(algorithm));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, algorithm);
  }
  EXPECT_FALSE(algorithm_from_string("quantum").has_value());
}

TEST(PlannerTest, VerifyOptionAttachesReport) {
  const topo::Fig1 fig = topo::fig1();
  PlannerOptions options;
  options.verify = true;
  const Result<PlanOutcome> outcome =
      plan(fig.instance, Algorithm::kOneShot, options);
  ASSERT_TRUE(outcome.ok());
  ASSERT_TRUE(outcome.value().report.has_value());
  EXPECT_FALSE(outcome.value().report->ok);  // OneShot is insecure on fig1
}

TEST(PlannerTest, DefaultPropertiesPerAlgorithm) {
  EXPECT_EQ(default_property(Algorithm::kWayUp, true), update::kWaypoint);
  EXPECT_EQ(default_property(Algorithm::kPeacock, true),
            update::kPeacockGuarantee);
  EXPECT_EQ(default_property(Algorithm::kOneShot, true),
            update::kTransientlySecure);
  EXPECT_EQ(default_property(Algorithm::kOneShot, false),
            update::kPeacockGuarantee);
}

}  // namespace
}  // namespace tsu::core
