#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "tsu/dataplane/monitor.hpp"
#include "tsu/dataplane/traffic.hpp"
#include "tsu/proto/messages.hpp"
#include "tsu/topo/instances.hpp"

namespace tsu::dataplane {
namespace {

struct Plane {
  sim::Simulator sim;
  std::vector<std::unique_ptr<switchsim::SimSwitch>> storage;
  std::vector<switchsim::SimSwitch*> switches;

  explicit Plane(std::size_t nodes, switchsim::SwitchConfig config = {})
      : switches(nodes, nullptr) {
    for (NodeId v = 0; v < nodes; ++v) {
      storage.push_back(std::make_unique<switchsim::SimSwitch>(
          sim, v, v, config, Rng(v + 1)));
      switches[v] = storage.back().get();
    }
  }

  // Directly installs a forwarding rule (bypassing the control channel).
  void rule(NodeId at, FlowId flow, flow::Action action) {
    switches[at]->table().add(
        flow::FlowRule{flow::Match::exact_flow(flow), action, 100, 0});
  }

  // Delivers a FlowMod rewriting flow 1's action at `at` to the switch at
  // time `when`, from inside an event: it lands one install latency later,
  // from a completion event scheduled at `when`.
  void mod_at(sim::SimTime when, NodeId at, flow::Action action) {
    sim.schedule_at(when, [this, at, action]() {
      proto::FlowMod mod;
      mod.command = proto::FlowModCommand::kModify;
      mod.match = flow::Match::exact_flow(1);
      mod.action = action;
      switches[at]->receive(proto::make_flow_mod(0, mod));
    });
  }
};

TrafficConfig config_for(NodeId ingress, NodeId egress,
                         std::optional<NodeId> waypoint,
                         sim::SimTime stop = sim::milliseconds(10)) {
  TrafficConfig config;
  config.flow = 1;
  config.ingress = ingress;
  config.egress = egress;
  config.waypoint = waypoint;
  config.interarrival = sim::LatencyModel::constant(sim::milliseconds(1));
  config.link_latency = sim::LatencyModel::constant(sim::microseconds(10));
  config.stop = stop;
  return config;
}

TEST(TrafficTest, DeliversAlongStablePath) {
  Plane plane(4);
  plane.rule(0, 1, flow::Action::forward(1));
  plane.rule(1, 1, flow::Action::forward(2));
  plane.rule(2, 1, flow::Action::forward(3));
  plane.rule(3, 1, flow::Action::deliver());
  ConsistencyMonitor monitor;
  TrafficSource source(plane.sim, plane.switches,
                       config_for(0, 3, std::nullopt), Rng(9), monitor);
  source.start();
  plane.sim.run();
  EXPECT_EQ(source.injected(), 10u);  // 1/ms for 10 ms, starting at t=0
  EXPECT_EQ(monitor.report().delivered, 10u);
  EXPECT_EQ(monitor.report().total, 10u);
  EXPECT_EQ(source.in_flight(), 0u);
}

TEST(TrafficTest, WaypointCrossingRecognized) {
  Plane plane(3);
  plane.rule(0, 1, flow::Action::forward(1));
  plane.rule(1, 1, flow::Action::forward(2));
  plane.rule(2, 1, flow::Action::deliver());
  ConsistencyMonitor monitor;
  TrafficSource source(plane.sim, plane.switches,
                       config_for(0, 2, NodeId{1}), Rng(9), monitor);
  source.start();
  plane.sim.run();
  EXPECT_EQ(monitor.report().delivered, monitor.report().total);
  EXPECT_EQ(monitor.report().bypassed, 0u);
}

TEST(TrafficTest, WaypointBypassFlagged) {
  Plane plane(3);
  // Route skips switch 1 (the "firewall").
  plane.rule(0, 1, flow::Action::forward(2));
  plane.rule(2, 1, flow::Action::deliver());
  ConsistencyMonitor monitor;
  TrafficSource source(plane.sim, plane.switches,
                       config_for(0, 2, NodeId{1}), Rng(9), monitor);
  source.start();
  plane.sim.run();
  EXPECT_EQ(monitor.report().bypassed, monitor.report().total);
  EXPECT_EQ(monitor.report().delivered, 0u);
  EXPECT_GT(monitor.report().bypass_rate(), 0.99);
}

TEST(TrafficTest, LoopDetectedOnRevisit) {
  Plane plane(3);
  plane.rule(0, 1, flow::Action::forward(1));
  plane.rule(1, 1, flow::Action::forward(2));
  plane.rule(2, 1, flow::Action::forward(1));  // 1 <-> 2 loop
  ConsistencyMonitor monitor;
  // ingress == egress: switch 0 has no deliver rule, so packets forward
  // into the loop and must be classified as looped on the revisit of 1.
  const TrafficConfig config =
      config_for(0, 0, std::nullopt, sim::milliseconds(3));
  TrafficSource source(plane.sim, plane.switches, config, Rng(9), monitor);
  source.start();
  plane.sim.run();
  EXPECT_GT(monitor.report().total, 0u);
  EXPECT_EQ(monitor.report().looped, monitor.report().total);
}

TEST(TrafficTest, BlackholeOnMissingRule) {
  Plane plane(3);
  plane.rule(0, 1, flow::Action::forward(1));  // 1 has no rule
  ConsistencyMonitor monitor;
  TrafficSource source(plane.sim, plane.switches,
                       config_for(0, 2, std::nullopt, sim::milliseconds(3)),
                       Rng(9), monitor);
  source.start();
  plane.sim.run();
  EXPECT_EQ(monitor.report().blackholed, monitor.report().total);
}

TEST(TrafficTest, ExplicitDropCountsAsBlackhole) {
  Plane plane(2);
  plane.rule(0, 1, flow::Action::drop());
  ConsistencyMonitor monitor;
  TrafficSource source(plane.sim, plane.switches,
                       config_for(0, 1, std::nullopt, sim::milliseconds(2)),
                       Rng(9), monitor);
  source.start();
  plane.sim.run();
  EXPECT_EQ(monitor.report().blackholed, monitor.report().total);
}

TEST(TrafficTest, TtlExpiryOnLongDetour) {
  // A forward chain longer than the TTL: no revisit, but the packet dies.
  constexpr std::size_t kNodes = 40;
  Plane plane(kNodes);
  for (NodeId v = 0; v + 1 < kNodes; ++v)
    plane.rule(v, 1, flow::Action::forward(v + 1));
  plane.rule(kNodes - 1, 1, flow::Action::deliver());
  ConsistencyMonitor monitor;
  TrafficConfig config = config_for(0, kNodes - 1, std::nullopt,
                                    sim::milliseconds(2));
  config.ttl = 10;
  TrafficSource source(plane.sim, plane.switches, config, Rng(9), monitor);
  source.start();
  plane.sim.run();
  EXPECT_EQ(monitor.report().ttl_expired, monitor.report().total);
}

TEST(TrafficTest, RulesChangingMidFlightAffectPackets) {
  Plane plane(4);
  plane.rule(0, 1, flow::Action::forward(1));
  plane.rule(1, 1, flow::Action::forward(2));
  plane.rule(2, 1, flow::Action::forward(3));
  plane.rule(3, 1, flow::Action::deliver());
  ConsistencyMonitor monitor;
  TrafficConfig config = config_for(0, 3, std::nullopt,
                                    sim::milliseconds(10));
  config.link_latency = sim::LatencyModel::constant(sim::milliseconds(1));
  TrafficSource source(plane.sim, plane.switches, config, Rng(9), monitor);
  source.start();
  // While packets are in flight, break the path at switch 2.
  plane.sim.schedule(sim::milliseconds(5), [&plane]() {
    plane.switches[2]->table().clear();
  });
  plane.sim.run();
  EXPECT_GT(monitor.report().delivered, 0u);
  EXPECT_GT(monitor.report().blackholed, 0u);
  EXPECT_EQ(monitor.report().delivered + monitor.report().blackholed,
            monitor.report().total);
}

// ------------------------------------------------- exact vs per-packet --
// Every scenario below runs twice on fresh planes: constant models, which
// take the exact evaluator, and degenerate uniform ones (lo == hi), which
// keep the timing but take the per-packet path - the reference. Counts,
// timeline and injections must match packet for packet.

struct Observed {
  MonitorReport report;
  std::vector<ConsistencyMonitor::Bucket> timeline;
  std::size_t injected = 0;
  std::vector<ConsistencyMonitor::Window> windows;
};

// `before` runs before the source starts, `after` right after.
using Scenario = std::function<void(Plane&)>;

sim::LatencyModel degenerate(const sim::LatencyModel& model) {
  const auto value = static_cast<sim::Duration>(model.a);
  return sim::LatencyModel::uniform(value, value);
}

Observed observe(std::size_t nodes, TrafficConfig config, bool exact,
                 const switchsim::SwitchConfig& sw, const Scenario& before,
                 const Scenario& after) {
  Plane plane(nodes, sw);
  if (before) before(plane);
  if (!exact) {
    config.interarrival = degenerate(config.interarrival);
    config.link_latency = degenerate(config.link_latency);
  }
  ConsistencyMonitor monitor;
  TrafficSource source(plane.sim, plane.switches, config, Rng(9), monitor);
  EXPECT_EQ(source.exact(), exact);
  source.start();
  if (after) after(plane);
  plane.sim.run();
  EXPECT_EQ(source.in_flight(), 0u);
  return Observed{monitor.report(), monitor.timeline(), source.injected(),
                  monitor.windows()};
}

// Runs both paths and checks they agree; returns the exact run.
Observed expect_exact(std::size_t nodes, const TrafficConfig& config,
                      const Scenario& before, const Scenario& after = {},
                      const switchsim::SwitchConfig& sw = {}) {
  const Observed got = observe(nodes, config, true, sw, before, after);
  const Observed want = observe(nodes, config, false, sw, before, after);
  EXPECT_EQ(got.report.total, want.report.total);
  EXPECT_EQ(got.report.delivered, want.report.delivered);
  EXPECT_EQ(got.report.bypassed, want.report.bypassed);
  EXPECT_EQ(got.report.looped, want.report.looped);
  EXPECT_EQ(got.report.blackholed, want.report.blackholed);
  EXPECT_EQ(got.report.ttl_expired, want.report.ttl_expired);
  EXPECT_EQ(got.report.fault_dropped, want.report.fault_dropped);
  EXPECT_EQ(got.injected, want.injected);
  EXPECT_TRUE(want.windows.empty());  // the per-packet path keeps none
  EXPECT_EQ(got.timeline.size(), want.timeline.size());
  for (std::size_t b = 0; b < std::min(got.timeline.size(),
                                       want.timeline.size());
       ++b) {
    EXPECT_EQ(got.timeline[b].delivered, want.timeline[b].delivered) << b;
    EXPECT_EQ(got.timeline[b].bypassed, want.timeline[b].bypassed) << b;
    EXPECT_EQ(got.timeline[b].looped, want.timeline[b].looped) << b;
    EXPECT_EQ(got.timeline[b].blackholed, want.timeline[b].blackholed) << b;
  }
  return got;
}

switchsim::SwitchConfig install_in(sim::Duration latency) {
  switchsim::SwitchConfig config;
  config.install_latency = sim::LatencyModel::constant(latency);
  return config;
}

// 0 -> 1 -> 2 -> 3 delivers, I = 1 ms, L = 100 us, ten packets.
void chain(Plane& plane) {
  plane.rule(0, 1, flow::Action::forward(1));
  plane.rule(1, 1, flow::Action::forward(2));
  plane.rule(2, 1, flow::Action::forward(3));
  plane.rule(3, 1, flow::Action::deliver());
}

TrafficConfig chain_config() {
  TrafficConfig config = config_for(0, 3, std::nullopt);
  config.link_latency = sim::LatencyModel::constant(sim::microseconds(100));
  return config;
}

TEST(ExactTrafficTest, TieWithShortInstallReadsTheOldRule) {
  // Switch 2 starts dropping exactly when packet 5 reads it (5 ms + 2L).
  // The install (50 us) was scheduled after the hop event (L = 100 us
  // earlier), so the FIFO tie-break runs the hop first: packet 5 still
  // sees the forwarding rule.
  const Observed got = expect_exact(
      4, chain_config(),
      [](Plane& plane) {
        chain(plane);
        plane.mod_at(sim::microseconds(5150), 2, flow::Action::drop());
      },
      {}, install_in(sim::microseconds(50)));
  EXPECT_EQ(got.report.delivered, 6u);
  EXPECT_EQ(got.report.blackholed, 4u);
}

TEST(ExactTrafficTest, TieWithLongInstallReadsTheNewRule) {
  // The same landing instant from a 150 us install, scheduled before the
  // hop event: the change fires first and packet 5 is dropped.
  const Observed got = expect_exact(
      4, chain_config(),
      [](Plane& plane) {
        chain(plane);
        plane.mod_at(sim::microseconds(5050), 2, flow::Action::drop());
      },
      {}, install_in(sim::microseconds(150)));
  EXPECT_EQ(got.report.delivered, 5u);
  EXPECT_EQ(got.report.blackholed, 5u);
}

TEST(ExactTrafficTest, TieAtIngressFollowsTheInjectionEvent) {
  // The ingress read happens inside the injection event, scheduled one
  // interarrival (1 ms) earlier: a 500 us install landing at 5 ms was
  // scheduled later and loses the tie, a 1.5 ms one wins it.
  const Observed late = expect_exact(
      4, chain_config(),
      [](Plane& plane) {
        chain(plane);
        plane.mod_at(sim::microseconds(4500), 0, flow::Action::drop());
      },
      {}, install_in(sim::microseconds(500)));
  EXPECT_EQ(late.report.delivered, 6u);
  const Observed early = expect_exact(
      4, chain_config(),
      [](Plane& plane) {
        chain(plane);
        plane.mod_at(sim::microseconds(3500), 0, flow::Action::drop());
      },
      {}, install_in(sim::microseconds(1500)));
  EXPECT_EQ(early.report.delivered, 5u);
}

TEST(ExactTrafficTest, TieWithTheFirstInjectionFollowsSetUpOrder) {
  // A set-up event at t = 0 scheduled before start() fires before the
  // first injection; one scheduled after it fires after.
  const auto wipe = [](Plane& plane) {
    plane.sim.schedule_at(0, [&plane]() { plane.switches[0]->table().clear(); });
  };
  const Observed before = expect_exact(
      4, chain_config(),
      [&](Plane& plane) {
        chain(plane);
        wipe(plane);
      });
  EXPECT_EQ(before.report.delivered, 0u);
  const Observed after = expect_exact(4, chain_config(), chain, wipe);
  EXPECT_EQ(after.report.delivered, 1u);
}

TEST(ExactTrafficTest, DetourAcrossBucketEdgesMatchesTimeline) {
  // I = 300 us and L = 170 us put finish times all over the 1 ms buckets;
  // a detour through 4 and 5 from 3.3 ms to 7.7 ms shifts them by 2L.
  TrafficConfig config = config_for(0, 3, std::nullopt);
  config.interarrival = sim::LatencyModel::constant(sim::microseconds(300));
  config.link_latency = sim::LatencyModel::constant(sim::microseconds(170));
  const Observed got = expect_exact(
      6, config,
      [](Plane& plane) {
        chain(plane);
        plane.rule(4, 1, flow::Action::forward(5));
        plane.rule(5, 1, flow::Action::forward(2));
        plane.mod_at(sim::microseconds(3300), 1, flow::Action::forward(4));
        plane.mod_at(sim::microseconds(7700), 1, flow::Action::forward(2));
      },
      {}, install_in(sim::microseconds(30)));
  EXPECT_EQ(got.report.delivered, got.report.total);
  EXPECT_EQ(got.report.total, 34u);
}

TEST(ExactTrafficTest, LoopAndTtlWalksMatch) {
  // 2 bounces back to 1 between 3 and 6 ms (loop); then 1 detours down a
  // chain longer than the TTL between 7 and 9 ms.
  TrafficConfig config = chain_config();
  config.ttl = 6;
  const Observed got = expect_exact(
      12, config,
      [](Plane& plane) {
        chain(plane);
        for (NodeId v = 4; v < 11; ++v)
          plane.rule(v, 1, flow::Action::forward(v + 1));
        plane.rule(11, 1, flow::Action::forward(3));
        plane.mod_at(sim::microseconds(3000), 2, flow::Action::forward(1));
        plane.mod_at(sim::microseconds(6000), 2, flow::Action::forward(3));
        plane.mod_at(sim::microseconds(7000), 1, flow::Action::forward(4));
        plane.mod_at(sim::microseconds(9000), 1, flow::Action::forward(2));
      },
      {}, install_in(sim::microseconds(40)));
  EXPECT_GT(got.report.looped, 0u);
  EXPECT_GT(got.report.ttl_expired, 0u);
  EXPECT_GT(got.report.delivered, 0u);
}

TEST(ExactTrafficTest, CrashWindowsWithAndWithoutTcamLoss) {
  // Switch 2 crashes exactly when packet 3 reads it (3 ms + 2L) and comes
  // back into service at 6 ms; with TCAM loss its rule is reinstalled on
  // the way back. Reads inside the window are fault-dropped either way.
  for (const bool lose_state : {false, true}) {
    const Observed got = expect_exact(4, chain_config(), [&](Plane& plane) {
      chain(plane);
      plane.sim.schedule_at(sim::microseconds(3200), [&plane, lose_state]() {
        plane.switches[2]->crash(lose_state);
      });
      plane.sim.schedule_at(sim::milliseconds(6), [&plane, lose_state]() {
        if (lose_state) plane.rule(2, 1, flow::Action::forward(3));
        plane.switches[2]->restart();
        plane.switches[2]->set_serving(true);
      });
    });
    EXPECT_EQ(got.report.fault_dropped, 3u) << lose_state;
    EXPECT_EQ(got.report.delivered, 7u) << lose_state;
  }
}

TEST(ExactTrafficTest, StopMidIntervalCountsOnlyEarlierInjections) {
  // A stop between grid points and one exactly on a grid point.
  for (const sim::SimTime stop :
       {sim::microseconds(7350), sim::microseconds(8000)}) {
    TrafficConfig config = chain_config();
    config.stop = stop;
    const Observed got = expect_exact(4, config, [](Plane& plane) {
      chain(plane);
      plane.mod_at(sim::microseconds(4000), 2, flow::Action::drop());
    });
    EXPECT_EQ(got.injected, stop / sim::milliseconds(1) +
                                (stop % sim::milliseconds(1) != 0 ? 1 : 0));
  }
}

TEST(ExactTrafficTest, LargeTopologiesMatch) {
  // Beyond the visited set's inline 512 bits: a chain through high node
  // ids that later loops among them.
  constexpr NodeId kNodes = 600;
  TrafficConfig config = config_for(0, kNodes - 1, std::nullopt);
  const Observed got = expect_exact(
      kNodes, config,
      [](Plane& plane) {
        plane.rule(0, 1, flow::Action::forward(550));
        plane.rule(550, 1, flow::Action::forward(580));
        plane.rule(580, 1, flow::Action::forward(kNodes - 1));
        plane.rule(kNodes - 1, 1, flow::Action::deliver());
        plane.mod_at(sim::microseconds(4000), 580, flow::Action::forward(550));
      },
      {}, install_in(sim::microseconds(10)));
  EXPECT_EQ(got.report.delivered, 4u);
  EXPECT_EQ(got.report.looped, 6u);
}

TEST(ExactTrafficTest, WindowShorterThanTheInjectionGapIsStillExact) {
  // A deliberately unsafe rule sequence: the ingress skips the waypoint
  // (0 -> 2 instead of 0 -> 1 -> 2) from 5.3 ms to 5.6 ms - shorter than
  // the 1 ms injection gap and between two injections. The sampled counts
  // see nothing; the exact window is [5.3 ms, 5.6 ms).
  const sim::SimTime open = sim::microseconds(5300);
  const sim::SimTime close = sim::microseconds(5600);
  const auto unsafe = [&](Plane& plane) {
    plane.rule(0, 1, flow::Action::forward(1));
    plane.rule(1, 1, flow::Action::forward(2));
    plane.rule(2, 1, flow::Action::deliver());
    plane.sim.schedule_at(open, [&plane]() {
      plane.rule(0, 1, flow::Action::forward(2));
    });
    plane.sim.schedule_at(close, [&plane]() {
      plane.rule(0, 1, flow::Action::forward(1));
    });
  };
  const Observed got =
      expect_exact(3, config_for(0, 2, NodeId{1}), unsafe);
  EXPECT_EQ(got.report.bypassed, 0u);
  EXPECT_EQ(got.report.delivered, got.report.total);
  ASSERT_EQ(got.windows.size(), 1u);
  EXPECT_EQ(got.windows[0].outcome, PacketOutcome::kBypassedWaypoint);
  EXPECT_EQ(got.windows[0].begin, open);
  EXPECT_EQ(got.windows[0].end, close);
  // The bounds are tight: single per-packet probes injected just inside
  // the window bypass, just outside it do not.
  const auto probe = [&](sim::SimTime at) {
    TrafficConfig config = config_for(0, 2, NodeId{1}, at + 1);
    config.start = at;
    return observe(3, config, false, {}, unsafe, {}).report;
  };
  EXPECT_EQ(probe(open - 1).bypassed, 0u);
  EXPECT_EQ(probe(open).bypassed, 1u);
  EXPECT_EQ(probe(close - 1).bypassed, 1u);
  EXPECT_EQ(probe(close).bypassed, 0u);
}

// ---------------------------------------------------------------- monitor --

TEST(MonitorTest, ReportAggregates) {
  ConsistencyMonitor monitor;
  monitor.record(0, PacketOutcome::kDelivered);
  monitor.record(sim::milliseconds(1), PacketOutcome::kBypassedWaypoint);
  monitor.record(sim::milliseconds(2), PacketOutcome::kLooped);
  monitor.record(sim::milliseconds(2), PacketOutcome::kBlackholed);
  monitor.record(sim::milliseconds(3), PacketOutcome::kTtlExpired);
  const MonitorReport& report = monitor.report();
  EXPECT_EQ(report.total, 5u);
  EXPECT_EQ(report.delivered, 1u);
  EXPECT_EQ(report.bypassed, 1u);
  EXPECT_DOUBLE_EQ(report.violation_rate(), 0.8);
  EXPECT_DOUBLE_EQ(report.bypass_rate(), 0.2);
}

TEST(MonitorTest, TimelineBucketsByTime) {
  ConsistencyMonitor monitor(sim::milliseconds(1));
  monitor.record(sim::microseconds(100), PacketOutcome::kDelivered);
  monitor.record(sim::microseconds(900), PacketOutcome::kDelivered);
  monitor.record(sim::milliseconds(2) + 1, PacketOutcome::kBypassedWaypoint);
  const auto& timeline = monitor.timeline();
  ASSERT_EQ(timeline.size(), 3u);
  EXPECT_EQ(timeline[0].delivered, 2u);
  EXPECT_EQ(timeline[1].delivered, 0u);
  EXPECT_EQ(timeline[2].bypassed, 1u);
  EXPECT_NE(monitor.timeline_to_string().find("BYPASSED"), std::string::npos);
}

TEST(MonitorTest, BulkRecordMatchesSingleRecords) {
  // n packets spaced evenly, recorded at once, land in the same buckets
  // as n single records - for spacings below, at and above the bucket
  // width, and for a run starting mid-bucket.
  for (const sim::Duration spacing :
       {sim::Duration{0}, sim::microseconds(1), sim::microseconds(300),
        sim::microseconds(999), sim::milliseconds(1), sim::microseconds(2500)}) {
    for (const sim::SimTime at : {sim::SimTime{0}, sim::microseconds(730)}) {
      ConsistencyMonitor bulk;
      ConsistencyMonitor single;
      constexpr std::size_t kPackets = 1234;
      bulk.record(at, PacketOutcome::kLooped, kPackets, spacing);
      for (std::size_t i = 0; i < kPackets; ++i)
        single.record(at + i * spacing, PacketOutcome::kLooped);
      EXPECT_EQ(bulk.report().looped, kPackets);
      ASSERT_EQ(bulk.timeline().size(), single.timeline().size()) << spacing;
      for (std::size_t b = 0; b < bulk.timeline().size(); ++b)
        EXPECT_EQ(bulk.timeline()[b].looped, single.timeline()[b].looped)
            << "spacing " << spacing << " at " << at << " bucket " << b;
    }
  }
}

TEST(MonitorTest, OutcomeNames) {
  EXPECT_STREQ(to_string(PacketOutcome::kBypassedWaypoint),
               "bypassed-waypoint");
  EXPECT_STREQ(to_string(PacketOutcome::kTtlExpired), "ttl-expired");
}

TEST(MonitorTest, EmptyReportRatesAreZero) {
  const MonitorReport report;
  EXPECT_DOUBLE_EQ(report.violation_rate(), 0.0);
  EXPECT_DOUBLE_EQ(report.bypass_rate(), 0.0);
}

}  // namespace
}  // namespace tsu::dataplane
