// Zero-allocation regression tests for the hot path. The global
// operator-new hooks (util/alloc_hooks.hpp - included in THIS translation
// unit only) count every heap allocation in the process; each scenario
// warms the relevant pools to their high-water mark, opens a measurement
// window, drives the steady-state loop, and asserts the window saw ZERO
// allocations:
//
//   - EventQueue push/pop churn over a warm slot arena (the "1000-flow
//     pool" hot loop),
//   - a full channel round-trip (pooled frame -> codec -> delivery event),
//   - data-plane packet hops across live flow tables (the per-packet path
//     a stochastic link latency takes),
//   - the exact data-plane evaluator's steady state: rule churn logged,
//     walks settled and the version log pruned with its capacity reused,
//   - ShardedSim::run_parallel epochs with cross-shard ring posts.
//
// Any new per-event allocation anywhere on these paths turns a green test
// red with an exact count - the same counter the bench JSON publishes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "tsu/channel/channel.hpp"
#include "tsu/controller/admission.hpp"
#include "tsu/core/service.hpp"
#include "tsu/dataplane/monitor.hpp"
#include "tsu/dataplane/traffic.hpp"
#include "tsu/flow/table.hpp"
#include "tsu/proto/apply.hpp"
#include "tsu/proto/messages.hpp"
#include "tsu/sim/event_queue.hpp"
#include "tsu/sim/sharded.hpp"
#include "tsu/sim/simulator.hpp"
#include "tsu/sim/thread_pool.hpp"
#include "tsu/switchsim/switch.hpp"
#include "tsu/util/alloc_hooks.hpp"
#include "tsu/util/rng.hpp"

namespace tsu {
namespace {

std::uint64_t allocs() { return alloc_hooks::allocations(); }

TEST(HotPathAllocTest, EventQueuePoolHotLoopAllocatesNothing) {
  // The 1000-flow pool hot loop: 1000 events concurrently pending (one
  // per in-flight flow), each pop immediately replaced by a push. After
  // one warmup lap over the full pattern, 100k further cycles must touch
  // the allocator zero times - push recycles retired slots, the heap
  // vectors live off their high-water capacity.
  sim::EventQueue q;
  std::uint64_t fired = 0;
  sim::SimTime t = 0;
  auto cycle = [&]() {
    auto event = q.pop();
    event.fn();
    q.push(++t, [&fired]() { ++fired; });
  };
  for (int i = 0; i < 1000; ++i) q.push(++t, [&fired]() { ++fired; });
  // Warmup lap: the same loop body, plus cancel churn so the free list
  // reaches its high-water capacity too.
  for (int i = 0; i < 1000; ++i) {
    cycle();
    q.cancel(q.push(t + 500000, []() {}));
  }
  const std::uint64_t before = allocs();
  for (int i = 0; i < 100000; ++i) cycle();
  const std::uint64_t during = allocs() - before;
  EXPECT_EQ(during, 0u) << "steady-state push/pop hit the allocator";

  // Cancel churn stays free as well once warm.
  const std::uint64_t before_cancel = allocs();
  for (int i = 0; i < 1000; ++i) q.cancel(q.push(t + 500000, []() {}));
  EXPECT_EQ(allocs() - before_cancel, 0u)
      << "cancel/retire cycled slots through the allocator";

  // 1000 seeded + 1000 warmup cycles + 100k measured cycles all fire;
  // the cancelled probes never do.
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, 102000u);
}

TEST(HotPathAllocTest, ChannelRoundTripAllocatesNothingOnceWarm) {
  // Send -> pooled frame -> codec encode_into -> delivery event -> decode
  // -> receiver, repeatedly. After the frame pool and event arena warm up,
  // a barrier round-trip is allocation-free end to end.
  sim::Simulator sim;
  channel::ChannelConfig config;
  channel::ControlChannel ch(sim, config, Rng(7));
  std::uint64_t received = 0;
  ch.set_receiver([&](const proto::Message& message) {
    if (message.type() == proto::MsgType::kBarrierRequest) ++received;
  });
  for (std::uint32_t i = 0; i < 64; ++i) {
    ch.send(proto::make_barrier_request(i));
    sim.run();
  }
  ASSERT_EQ(received, 64u);
  const std::uint64_t before = allocs();
  for (std::uint32_t i = 0; i < 1000; ++i) {
    ch.send(proto::make_barrier_request(i));
    sim.run();
  }
  const std::uint64_t during = allocs() - before;
  EXPECT_EQ(during, 0u) << "channel round-trip hit the allocator";
  EXPECT_EQ(received, 1064u);
}

TEST(HotPathAllocTest, PacketHopsAllocateNothingOnceWarm) {
  // A packet forwarding down a 4-switch chain: every hop is a pooled
  // event whose closure (LivePacket included) must stay inline, every
  // table lookup pure value work. The jittered link latency keeps the
  // source on the per-packet path. The monitor's bucket width is huge so
  // its timeline never grows mid-run; the measurement window is bracketed
  // by two probe events inside the simulation itself.
  sim::Simulator sim;
  switchsim::SwitchConfig sw_config;
  std::vector<std::unique_ptr<switchsim::SimSwitch>> storage;
  std::vector<switchsim::SimSwitch*> switches(4, nullptr);
  for (NodeId v = 0; v < 4; ++v) {
    storage.push_back(std::make_unique<switchsim::SimSwitch>(
        sim, v, v, sw_config, Rng(v + 1)));
    switches[v] = storage.back().get();
  }
  auto rule = [&](NodeId at, flow::Action action) {
    switches[at]->table().add(
        flow::FlowRule{flow::Match::exact_flow(1), action, 100, 0});
  };
  rule(0, flow::Action::forward(1));
  rule(1, flow::Action::forward(2));
  rule(2, flow::Action::forward(3));
  rule(3, flow::Action::deliver());

  dataplane::ConsistencyMonitor monitor(sim::milliseconds(1000000));
  dataplane::TrafficConfig config;
  config.flow = 1;
  config.ingress = 0;
  config.egress = 3;
  config.interarrival = sim::LatencyModel::constant(sim::milliseconds(1));
  config.link_latency =
      sim::LatencyModel::uniform(sim::microseconds(5), sim::microseconds(15));
  config.stop = sim::milliseconds(50);
  dataplane::TrafficSource source(sim, switches, config, Rng(9), monitor);
  ASSERT_FALSE(source.exact());

  std::uint64_t window_start = 0;
  std::uint64_t window_end = 0;
  // 10ms of traffic warms the arena and the monitor; 10..45ms is measured.
  sim.schedule_at(sim::milliseconds(10), [&]() { window_start = allocs(); });
  sim.schedule_at(sim::milliseconds(45), [&]() { window_end = allocs(); });
  source.start();
  sim.run();

  EXPECT_EQ(source.in_flight(), 0u);
  EXPECT_GE(monitor.report().delivered, 45u);
  EXPECT_EQ(window_end - window_start, 0u)
      << "packet injection/hops hit the allocator mid-run";
}

TEST(HotPathAllocTest, ExactEvaluatorSteadyStateAllocatesNothing) {
  // The exact evaluator under rule churn: switch 1 flips between two
  // delivering paths every 500 us (each flip logs a record in the version
  // log), and every millisecond a sync event settles the source and
  // prunes the logs behind it - what the service executor does at
  // completions. Once the log's vectors reach their high-water capacity,
  // logging, walking, counting and pruning must not allocate.
  sim::Simulator sim;
  switchsim::SwitchConfig sw_config;
  std::vector<std::unique_ptr<switchsim::SimSwitch>> storage;
  std::vector<switchsim::SimSwitch*> switches(5, nullptr);
  for (NodeId v = 0; v < 5; ++v) {
    storage.push_back(std::make_unique<switchsim::SimSwitch>(
        sim, v, v, sw_config, Rng(v + 1)));
    switches[v] = storage.back().get();
  }
  auto rule = [&](NodeId at, flow::Action action) {
    switches[at]->table().add(
        flow::FlowRule{flow::Match::exact_flow(1), action, 100, 0});
  };
  rule(0, flow::Action::forward(1));
  rule(1, flow::Action::forward(2));
  rule(2, flow::Action::forward(3));
  rule(4, flow::Action::forward(2));
  rule(3, flow::Action::deliver());

  dataplane::ConsistencyMonitor monitor(sim::milliseconds(1000000));
  dataplane::TrafficConfig config;
  config.flow = 1;
  config.ingress = 0;
  config.egress = 3;
  config.interarrival = sim::LatencyModel::constant(sim::microseconds(100));
  config.link_latency = sim::LatencyModel::constant(sim::microseconds(10));
  config.stop = sim::milliseconds(100);
  dataplane::TrafficSource source(sim, switches, config, Rng(9), monitor);
  ASSERT_TRUE(source.exact());

  constexpr int kFlips = 180;  // every 500 us up to 90 ms
  for (int i = 1; i <= kFlips; ++i)
    sim.schedule_at(sim::microseconds(500) * i, [&, i]() {
      rule(1, flow::Action::forward(i % 2 == 0 ? 2 : 4));
    });
  std::size_t peak_log = 0;
  for (int ms = 1; ms < 95; ++ms)
    sim.schedule_at(sim::milliseconds(ms) + 1, [&]() {
      source.settle(sim.now());
      for (switchsim::SimSwitch* sw : switches) {
        sw->history().prune(source.settled());
        peak_log = std::max(peak_log, sw->history().size());
      }
    });
  std::uint64_t window_start = 0;
  std::uint64_t window_end = 0;
  sim.schedule_at(sim::milliseconds(20) + 2, [&]() { window_start = allocs(); });
  sim.schedule_at(sim::milliseconds(90) + 2, [&]() { window_end = allocs(); });
  source.start();
  sim.run();

  EXPECT_EQ(monitor.report().delivered, 1000u);
  EXPECT_EQ(monitor.report().total, 1000u);
  EXPECT_LE(peak_log, 8u);  // pruned down to a handful of records
  EXPECT_EQ(window_end - window_start, 0u)
      << "the exact evaluator's steady state hit the allocator";
}

TEST(HotPathAllocTest, SetupWatermarkFreezesTheSetupCount) {
  // The setup watermark splits the process-global allocation count into a
  // paid-once setup figure and the steady state: mark_setup_complete()
  // snapshots the counter, and later allocations move allocations() but
  // never the frozen setup_allocations() figure (the split the bench JSON
  // publishes as setup_allocs vs steady_allocs).
  auto warm = std::make_unique<int>(1);
  alloc_hooks::mark_setup_complete();
  const std::uint64_t mark = alloc_hooks::setup_allocations();
  EXPECT_GE(mark, 1u);
  auto extra = std::make_unique<int>(2);
  auto more = std::make_unique<int>(3);
  EXPECT_EQ(alloc_hooks::setup_allocations(), mark)
      << "the watermark moved after mark_setup_complete()";
  EXPECT_GT(allocs(), mark);
  // Re-marking captures the new count - each measurement phase can reset
  // its own baseline.
  alloc_hooks::mark_setup_complete();
  EXPECT_GT(alloc_hooks::setup_allocations(), mark);
}

// Self-perpetuating shard-local work: one event chain per shard keeps both
// shards eligible so run_parallel uses the worker pool.
struct Ticker {
  sim::Simulator* shard = nullptr;
  std::uint64_t remaining = 0;
  std::uint64_t fired = 0;

  void tick() {
    ++fired;
    if (remaining == 0) return;
    --remaining;
    shard->schedule(7, [this]() { tick(); }, sim::EventScope::kLocal);
  }
};

// A packet-like hand-off bouncing between two shards through the SPSC
// mailbox rings.
struct Bouncer {
  sim::ShardedSim* group = nullptr;
  std::uint64_t remaining = 0;
  std::uint64_t bounces = 0;

  void bounce(std::size_t at) {
    ++bounces;
    if (remaining == 0) return;
    --remaining;
    const std::size_t to = 1 - at;
    group->post(to, at, group->shard(at).now() + 10,
                [this, to]() { bounce(to); });
  }
};

TEST(HotPathAllocTest, ParallelEpochsAllocateNothingOnceWarm) {
  // run_parallel steady state: horizon computation, pool dispatch, epoch
  // stepping, ring posts and sync-point drains - all off warm pools. The
  // warmup run pays every first-touch allocation (pool lanes, epoch
  // counters, drain scratch, event arenas); the measured run must be free.
  sim::ShardedSim group(2);
  sim::ThreadPool pool(2);
  const sim::Duration lookahead = 10;  // lower-bounds the bounce post delay

  Ticker tickers[2] = {{&group.shard(0), 2000}, {&group.shard(1), 2000}};
  Bouncer bouncer{&group, 500};
  group.schedule_on(0, 5, [&]() { tickers[0].tick(); },
                    sim::EventScope::kLocal);
  group.schedule_on(1, 5, [&]() { tickers[1].tick(); },
                    sim::EventScope::kLocal);
  group.schedule_on(0, 5, [&]() { bouncer.bounce(0); },
                    sim::EventScope::kLocal);
  group.run_parallel(pool, lookahead);
  ASSERT_EQ(tickers[0].fired, 2001u);
  ASSERT_EQ(bouncer.bounces, 501u);
  ASSERT_GT(group.parallel_epochs(), 0u);

  // Identical workload again, this time under measurement. The kick
  // events are pushed BEFORE the window opens.
  tickers[0].remaining = 2000;
  tickers[1].remaining = 2000;
  bouncer.remaining = 500;
  group.schedule_on(0, 5, [&]() { tickers[0].tick(); },
                    sim::EventScope::kLocal);
  group.schedule_on(1, 5, [&]() { tickers[1].tick(); },
                    sim::EventScope::kLocal);
  group.schedule_on(0, 5, [&]() { bouncer.bounce(0); },
                    sim::EventScope::kLocal);
  const std::uint64_t before = allocs();
  group.run_parallel(pool, lookahead);
  const std::uint64_t during = allocs() - before;
  EXPECT_EQ(during, 0u) << "parallel epochs hit the allocator";
  EXPECT_EQ(tickers[0].fired, 4002u);
  EXPECT_EQ(bouncer.bounces, 1002u);
  EXPECT_EQ(group.overflow_posts(), 0u)
      << "the bounce stream should fit the SPSC rings";
}

TEST(HotPathAllocTest, LargeTableChurnAllocatesNothingOnceWarm) {
  // A shared switch's table at rollout scale: 3000 resident exact-flow
  // rules, churned through the FlowMod apply path - strict delete and
  // re-add (a fresh insertion sequence each time), modify in place, and
  // now and then a rule in a second priority band that forms and empties
  // its own group. Past one warmup lap every slot, group and index bucket
  // is reused.
  std::map<std::uint8_t, flow::FlowTable> tables;
  constexpr FlowId kRules = 3000;
  const auto mod = [](proto::FlowModCommand command, FlowId flow,
                      std::uint16_t priority, NodeId next) {
    proto::FlowMod m;
    m.command = command;
    m.priority = priority;
    m.match = flow::Match::exact_flow(flow);
    m.action = flow::Action::forward(next);
    return m;
  };
  for (FlowId f = 0; f < kRules; ++f)
    proto::apply_flow_mod(tables, mod(proto::FlowModCommand::kAdd, f, 100, 1));
  const auto cycle = [&](std::uint64_t i) {
    const FlowId f = (i * 7919) % kRules;
    const auto next = static_cast<NodeId>(i % 16);
    proto::apply_flow_mod(
        tables, mod(proto::FlowModCommand::kDeleteStrict, f, 100, 0));
    proto::apply_flow_mod(tables,
                          mod(proto::FlowModCommand::kAdd, f, 100, next));
    proto::apply_flow_mod(
        tables, mod(proto::FlowModCommand::kModify, f, 100, next + 1));
    if (i % 10 == 0)
      proto::apply_flow_mod(tables,
                            mod(proto::FlowModCommand::kAdd, f, 200, next));
    if (i % 10 == 5)
      proto::apply_flow_mod(
          tables, mod(proto::FlowModCommand::kDeleteStrict,
                      (i - 5) * 7919 % kRules, 200, 0));
  };
  for (std::uint64_t i = 0; i < kRules; ++i) cycle(i);
  const std::uint64_t before = allocs();
  for (std::uint64_t i = kRules; i < 4 * kRules; ++i) cycle(i);
  EXPECT_EQ(allocs() - before, 0u) << "large-table churn hit the allocator";
  EXPECT_EQ(tables[0].size(), kRules);
}

TEST(HotPathAllocTest, AdmissionAtThreeThousandLiveAllocatesNothing) {
  // Conflict-aware admission with 3000 live requests, each touching eight
  // of 30 switches: the oldest releases (part of its footprint first, as
  // round release does) and a new request arrives, FIFO. Every fourth
  // request shares its flow with the one before, so edges come and go too.
  // One warmup lap fills the entry pool, the posting slots, the list slots
  // and the index; the measured laps reuse them.
  constexpr std::size_t kLive = 3000;
  constexpr std::size_t kTemplates = 2 * kLive;
  std::vector<controller::Footprint> footprints(kTemplates);
  std::vector<std::vector<controller::RuleRef>> first_rounds(kTemplates);
  for (std::size_t t = 0; t < kTemplates; ++t) {
    const FlowId flow = t % 4 == 3 ? t - 1 : t;
    for (std::size_t k = 0; k < 8; ++k) {
      controller::RuleRef rule;
      rule.node = static_cast<NodeId>((flow + 4 * k) % 30);
      rule.match = flow::Match::exact_flow(flow);
      footprints[t].add(rule);
      if (k < 2) first_rounds[t].push_back(rule);
    }
  }
  controller::AdmissionQueue q(controller::AdmissionPolicy::kConflictAware);
  std::uint64_t next = 0;
  std::uint64_t oldest = 0;
  const auto submit = [&]() {
    q.submit(next, footprints[next % kTemplates]);
    ++next;
  };
  const auto cycle = [&]() {
    q.release_rules(oldest, first_rounds[oldest % kTemplates]);
    q.release(oldest);
    ++oldest;
    submit();
  };
  while (next < kLive) submit();
  for (std::size_t i = 0; i < kTemplates; ++i) cycle();
  const std::uint64_t before = allocs();
  for (std::size_t i = 0; i < 2 * kTemplates; ++i) cycle();
  EXPECT_EQ(allocs() - before, 0u) << "admission churn hit the allocator";
  EXPECT_EQ(q.live(), kLive);
  EXPECT_GT(q.conflict_edges(), 0u);
  while (oldest < next) q.release(oldest++);
  EXPECT_EQ(q.index_rules(), 0u);
  EXPECT_EQ(q.index_switches(), 0u);
}

TEST(HotPathAllocTest, WarmCacheSubmissionWindowAllocatesNothing) {
  // The compiled-plan cache's whole point: after the first submission of
  // each (template, direction) pair compiled its plan, every further
  // submission through execute_service is allocation-free end to end -
  // cache lookup, submit_plan, xid-patched pre-encoded sends, barrier
  // replies, completion recording, admission release, and the pending-ring
  // arrival path all run off warm pools. The window opens via the snapshot
  // feed once the run is unambiguously warm (every template submitted both
  // directions many times over, the 256-entry completion ring wrapped, all
  // pools at high-water) and closes before the drain.
  core::ServiceConfig config;
  config.exec.seed = 17;
  config.exec.with_traffic = false;
  config.flows = 4;
  config.pool_switches = 24;
  config.arrival_rate_per_sec = 20000;
  config.target_completions = 1200;
  config.snapshot_interval = sim::milliseconds(1);
  config.snapshot_window = 8;

  std::uint64_t window_start = 0;
  std::uint64_t window_end = 0;
  std::uint64_t in_window_completions = 0;
  std::uint64_t window_opened_at = 0;
  config.on_snapshot = [&](const core::ServiceSnapshot& snapshot) {
    if (window_start == 0 && snapshot.completed >= 400) {
      window_start = allocs();
      window_opened_at = snapshot.completed;
    } else if (window_start != 0 && window_end == 0 &&
               snapshot.completed >= 1000) {
      window_end = allocs();
      in_window_completions = snapshot.completed - window_opened_at;
    }
  };

  const Result<core::ServiceResult> run = core::execute_service(config);
  ASSERT_TRUE(run.ok()) << run.error().to_string();
  const core::ServiceResult& result = run.value();

  ASSERT_NE(window_start, 0u) << "warm window never opened";
  ASSERT_NE(window_end, 0u) << "warm window never closed";
  EXPECT_GE(in_window_completions, 400u);
  EXPECT_EQ(window_end - window_start, 0u)
      << "warm-cache submissions hit the allocator";

  // One compile per (template, direction), everything else a hit; a
  // fault-free run never invalidates. The drain leaves no residue.
  EXPECT_EQ(result.stats.plan_compiles, 8u);
  EXPECT_EQ(result.stats.plan_hits, result.stats.submitted - 8u);
  EXPECT_EQ(result.stats.plan_invalidations, 0u);
  EXPECT_EQ(result.stats.completed, 1200u);
  EXPECT_EQ(result.steady_state_entries_final, 0u);
}

}  // namespace
}  // namespace tsu
