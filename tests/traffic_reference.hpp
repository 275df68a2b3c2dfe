// Shared by the exactness suites: the exact data-plane evaluator
// (dataplane/traffic.hpp) against its reference, the per-packet path.
//
// Degenerate uniform models (lo == hi) sample exactly the constant, so a
// config rewritten by per_packet_reference() keeps every packet's timing
// but takes one event per injection and per hop. Whatever the evaluator
// counts arithmetically must then match packet for packet: per-flow
// reports, timelines and injection counts.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "tsu/core/executor.hpp"

namespace tsu::core {

inline sim::LatencyModel degenerate_uniform(const sim::LatencyModel& model) {
  const auto value = static_cast<sim::Duration>(model.a);
  return sim::LatencyModel::uniform(value, value);
}

inline ExecutorConfig per_packet_reference(ExecutorConfig config) {
  config.traffic_interarrival = degenerate_uniform(config.traffic_interarrival);
  config.link_latency = degenerate_uniform(config.link_latency);
  return config;
}

inline void expect_same_report(const dataplane::MonitorReport& got,
                               const dataplane::MonitorReport& want,
                               const std::string& where) {
  EXPECT_EQ(got.total, want.total) << where;
  EXPECT_EQ(got.delivered, want.delivered) << where;
  EXPECT_EQ(got.bypassed, want.bypassed) << where;
  EXPECT_EQ(got.looped, want.looped) << where;
  EXPECT_EQ(got.blackholed, want.blackholed) << where;
  EXPECT_EQ(got.ttl_expired, want.ttl_expired) << where;
  EXPECT_EQ(got.fault_dropped, want.fault_dropped) << where;
}

inline void expect_same_timeline(
    const std::vector<dataplane::ConsistencyMonitor::Bucket>& got,
    const std::vector<dataplane::ConsistencyMonitor::Bucket>& want,
    const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t b = 0; b < got.size(); ++b) {
    EXPECT_EQ(got[b].delivered, want[b].delivered) << where << " bucket " << b;
    EXPECT_EQ(got[b].bypassed, want[b].bypassed) << where << " bucket " << b;
    EXPECT_EQ(got[b].looped, want[b].looped) << where << " bucket " << b;
    EXPECT_EQ(got[b].blackholed, want[b].blackholed)
        << where << " bucket " << b;
  }
}

// Per-flow traffic of an exact run equals its per-packet reference.
inline void expect_same_traffic(const std::vector<ExecutionResult>& exact,
                                const std::vector<ExecutionResult>& reference,
                                const std::string& where) {
  ASSERT_EQ(exact.size(), reference.size()) << where;
  for (std::size_t i = 0; i < exact.size(); ++i) {
    const std::string flow = where + " flow " + std::to_string(i);
    expect_same_report(exact[i].traffic, reference[i].traffic, flow);
    expect_same_timeline(exact[i].timeline, reference[i].timeline, flow);
    EXPECT_EQ(exact[i].packets_injected, reference[i].packets_injected)
        << flow;
  }
}

}  // namespace tsu::core
