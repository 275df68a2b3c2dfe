// End-to-end tests of the concurrent multi-flow update engine: K in-flight
// updates on one simulated control plane, per-flow traffic observed by the
// consistency monitor, cross-flow frame batching, and determinism.
#include <gtest/gtest.h>

#include <vector>

#include "multiflow_workload.hpp"
#include "tsu/core/executor.hpp"

namespace tsu::core {
namespace {

using testutil::Workload;
using testutil::disjoint_workload;

TEST(MultiFlowExecutionTest, SustainsSixtyFourConcurrentUpdates) {
  const Workload w = disjoint_workload(64);
  ExecutorConfig config;
  config.controller.max_in_flight = 64;
  config.controller.batch_frames = true;
  const Result<MultiFlowExecutionResult> run =
      execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config);
  ASSERT_TRUE(run.ok()) << run.error().to_string();
  const MultiFlowExecutionResult& result = run.value();
  EXPECT_GE(result.max_in_flight_observed, 64u);
  ASSERT_EQ(result.flows.size(), 64u);
  for (const ExecutionResult& flow_result : result.flows) {
    EXPECT_GT(flow_result.update.flow_mods_sent, 0u);
    EXPECT_GT(flow_result.update.finished, flow_result.update.started);
    // Peacock schedules: the monitor saw no transient violation anywhere.
    EXPECT_EQ(flow_result.traffic.bypassed, 0u);
    EXPECT_EQ(flow_result.traffic.looped, 0u);
    EXPECT_EQ(flow_result.traffic.blackholed, 0u);
    EXPECT_GT(flow_result.traffic.total, 0u);
  }
  EXPECT_GT(result.aggregate.total, 0u);
  EXPECT_EQ(result.aggregate.bypassed + result.aggregate.looped +
                result.aggregate.blackholed,
            0u);
  // Batching actually coalesced: fewer frames than logical messages.
  EXPECT_LT(result.frames_sent, result.messages_sent);
}

TEST(MultiFlowExecutionTest, ConcurrencyBeatsSerialMakespan) {
  const Workload w = disjoint_workload(8);
  ExecutorConfig serial_config;
  ExecutorConfig concurrent_config;
  concurrent_config.controller.max_in_flight = 8;
  const Result<std::vector<ExecutionResult>> serial =
      execute_queue(w.instance_ptrs, w.schedule_ptrs, serial_config);
  const Result<MultiFlowExecutionResult> concurrent =
      execute_multiflow(w.instance_ptrs, w.schedule_ptrs, concurrent_config);
  ASSERT_TRUE(serial.ok()) << serial.error().to_string();
  ASSERT_TRUE(concurrent.ok()) << concurrent.error().to_string();
  const sim::Duration serial_makespan =
      serial.value().back().update.finished -
      serial.value().front().update.started;
  EXPECT_LT(concurrent.value().makespan, serial_makespan);
}

TEST(MultiFlowExecutionTest, BatchedMatchesSerialViolationsWithFewerFrames) {
  const Workload w = disjoint_workload(8);
  ExecutorConfig serial_config;  // K = 1, no batching
  ExecutorConfig batched_config;
  batched_config.controller.max_in_flight = 8;
  batched_config.controller.batch_frames = true;
  const Result<std::vector<ExecutionResult>> serial =
      execute_queue(w.instance_ptrs, w.schedule_ptrs, serial_config);
  const Result<MultiFlowExecutionResult> batched =
      execute_multiflow(w.instance_ptrs, w.schedule_ptrs, batched_config);
  ASSERT_TRUE(serial.ok()) << serial.error().to_string();
  ASSERT_TRUE(batched.ok()) << batched.error().to_string();
  ASSERT_EQ(batched.value().flows.size(), serial.value().size());
  for (std::size_t i = 0; i < serial.value().size(); ++i) {
    const dataplane::MonitorReport& s = serial.value()[i].traffic;
    const dataplane::MonitorReport& b = batched.value().flows[i].traffic;
    // Same per-flow violation counts (zero: the schedules are consistent).
    EXPECT_EQ(b.bypassed, s.bypassed) << "flow " << i;
    EXPECT_EQ(b.looped, s.looped) << "flow " << i;
    EXPECT_EQ(b.blackholed, s.blackholed) << "flow " << i;
    // Identical logical control-plane work per flow.
    EXPECT_EQ(batched.value().flows[i].update.flow_mods_sent,
              serial.value()[i].update.flow_mods_sent);
    EXPECT_EQ(batched.value().flows[i].update.barriers_sent,
              serial.value()[i].update.barriers_sent);
  }
  // Strictly fewer control frames in batched mode.
  EXPECT_LT(batched.value().frames_sent, serial.value().front().frames_sent);
}

TEST(MultiFlowExecutionTest, ResultsIndexedBySubmissionOrder) {
  const Workload w = disjoint_workload(4);
  ExecutorConfig config;
  config.controller.max_in_flight = 4;
  const Result<MultiFlowExecutionResult> run =
      execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config);
  ASSERT_TRUE(run.ok());
  for (std::size_t i = 0; i < run.value().flows.size(); ++i)
    EXPECT_EQ(run.value().flows[i].update.flow, config.flow + i);
}

TEST(MultiFlowExecutionTest, RejectsZeroTrafficInterarrival) {
  // The programmatic twin of the config parser's check: a zero gap would
  // spin at one instant forever.
  const Workload w = disjoint_workload(2);
  ExecutorConfig config;
  config.traffic_interarrival = sim::LatencyModel::constant(0);
  const Result<MultiFlowExecutionResult> run =
      execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.error().code, Errc::kOutOfRange);
  config.with_traffic = false;  // no traffic, nothing to spin
  EXPECT_TRUE(execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config).ok());
}

TEST(MultiFlowExecutionTest, RejectsMismatchedInputs) {
  const Workload w = disjoint_workload(2);
  std::vector<const update::Schedule*> one{w.schedule_ptrs[0]};
  EXPECT_FALSE(execute_multiflow(w.instance_ptrs, one, {}).ok());
  EXPECT_FALSE(execute_multiflow({}, {}, {}).ok());
}

}  // namespace
}  // namespace tsu::core
