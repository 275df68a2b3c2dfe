#include "tsu/core/executor.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string_view>
#include <unordered_map>

#include "tsu/controller/plan_cache.hpp"
#include "tsu/core/service.hpp"
#include "tsu/sim/sharded.hpp"
#include "tsu/sim/simulator.hpp"
#include "tsu/sim/thread_pool.hpp"
#include "tsu/topo/instances.hpp"
#include "tsu/topo/partition.hpp"
#include "tsu/update/schedulers.hpp"
#include "tsu/util/arena.hpp"
#include "tsu/util/log.hpp"

namespace tsu::core {

namespace {

flow::FlowRule rule_from_mod(const proto::FlowMod& mod) {
  return flow::FlowRule{mod.match, mod.action, mod.priority, mod.cookie};
}

// Everything one simulated run needs, wired together. The switches are
// partitioned across config.controller.shards controller shards; each
// switch, its duplex channel and its owning shard live on that shard's
// event queue of the sharded logical clock.
struct Harness {
  sim::ShardedSim sim;
  Rng rng;
  topo::SwitchPartition partition;
  // Per-shard setup arenas own every switch and channel (util/arena.hpp):
  // setup allocates per chunk instead of per object, each shard's objects
  // sit contiguous, and teardown is wholesale. Declared before ctrl so the
  // coordinator (whose send closures point into the arenas) dies first.
  std::vector<std::unique_ptr<util::SetupArena>> arenas;  // by shard
  std::vector<switchsim::SimSwitch*> switches;            // by NodeId
  std::vector<channel::DuplexChannel*> channels;          // creation order
  std::vector<channel::DuplexChannel*> duplex_by_node;    // fault injection
  std::unique_ptr<controller::ShardCoordinator> ctrl;
  // controller.speculate: switch->controller deliveries become shard-local
  // (see add_switch). Captured from the ADJUSTED controller config the
  // coordinator runs with, not the caller's original.
  bool speculate = false;

  Harness(const ExecutorConfig& config,
          const controller::ControllerConfig& controller_config,
          topo::SwitchPartition switch_partition)
      : sim(switch_partition.shards()),
        rng(config.seed),
        partition(std::move(switch_partition)),
        speculate(controller_config.speculate) {
    sim.set_steal(controller_config.steal);
    arenas.reserve(sim.shard_count());
    for (std::size_t s = 0; s < sim.shard_count(); ++s)
      arenas.push_back(std::make_unique<util::SetupArena>());
    ctrl = std::make_unique<controller::ShardCoordinator>(sim, partition,
                                                          controller_config);
  }

  // The event queue everything owned by `node`'s shard schedules on.
  sim::Simulator& sim_of(NodeId node) {
    return sim.shard(partition.shard_of(node));
  }

  void add_switch(NodeId node, const ExecutorConfig& config) {
    if (node < switches.size() && switches[node] != nullptr) return;
    if (switches.size() <= node) {
      switches.resize(node + 1, nullptr);
      duplex_by_node.resize(node + 1, nullptr);
    }

    sim::Simulator& shard_sim = sim_of(node);
    util::SetupArena& arena = *arenas[partition.shard_of(node)];
    switchsim::SimSwitch* sw_ptr = arena.make<switchsim::SimSwitch>(
        shard_sim, node, static_cast<DatapathId>(node), config.switch_config,
        rng.fork());
    channel::DuplexChannel* duplex_ptr =
        arena.make<channel::DuplexChannel>(shard_sim, config.channel, rng);
    controller::ShardCoordinator* ctrl_ptr = ctrl.get();

    // Controller->switch deliveries stay on the switch's own shard and
    // only touch its state: safe inside parallel epochs. The reply
    // direction keeps the kShared default - reply processing can complete
    // updates and cross shards through the coordinator - UNLESS the
    // controller speculates: then the engine defers round/resync
    // completion to the next sync point (controller.cpp), every other
    // effect of a reply is provably shard-local, and replies may process
    // mid-epoch too, eliminating the biggest class of horizon stalls.
    duplex_ptr->to_switch.set_delivery_scope(sim::EventScope::kLocal);
    if (speculate)
      duplex_ptr->to_controller.set_delivery_scope(sim::EventScope::kLocal);
    duplex_ptr->to_switch.set_receiver(
        [sw_ptr](const proto::Message& m) { sw_ptr->receive(m); });
    duplex_ptr->to_controller.set_receiver(
        [ctrl_ptr, node](const proto::Message& m) {
          ctrl_ptr->on_message(node, m);
        });
    sw_ptr->set_controller_link([duplex_ptr](const proto::Message& m) {
      duplex_ptr->to_controller.send(m);
    });
    ctrl->attach_switch(node, [duplex_ptr](const proto::Message& m) {
      duplex_ptr->to_switch.send(m);
    });
    // Zero-encode fast path for compiled-plan submissions: the controller
    // hands the channel a pre-encoded frame plus the xid to patch into it,
    // skipping make_flow_mod/encode entirely (channel.hpp send_encoded).
    ctrl->attach_switch_encoded(
        node, [duplex_ptr](std::span<const std::byte> bytes, Xid xid) {
          duplex_ptr->to_switch.send_encoded(bytes, xid);
        });

    switches[node] = sw_ptr;
    duplex_by_node[node] = duplex_ptr;
    channels.push_back(duplex_ptr);
  }

  void install_initial(const update::Instance& inst, FlowId flow,
                       std::uint16_t priority) {
    for (const controller::RoundOp& op :
         controller::initial_rules(inst, flow, priority)) {
      switches[op.node]->table().add(rule_from_mod(op.mod));
      // Mirror the out-of-band install into the controller's shadow tables
      // (a no-op unless fault tolerance is on) so a crash resync can
      // reconstruct pre-update state too.
      ctrl->seed_shadow(op.node, op.mod);
    }
  }

  std::size_t total_frames() const {
    std::size_t frames = 0;
    for (const auto& duplex : channels)
      frames += duplex->to_switch.frames_sent() +
                duplex->to_controller.frames_sent();
    return frames;
  }

  std::size_t total_bytes() const {
    std::size_t bytes = 0;
    for (const auto& duplex : channels)
      bytes += duplex->to_switch.bytes_sent() +
               duplex->to_controller.bytes_sent();
    return bytes;
  }

  std::size_t total_messages() const {
    std::size_t messages = 0;
    for (const auto& duplex : channels)
      messages += duplex->to_switch.messages_sent() +
                  duplex->to_controller.messages_sent();
    return messages;
  }
};

// FNV-1a mixing of one 64-bit word into a running digest.
std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    h ^= (v >> shift) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t rule_hash(const flow::FlowRule& rule) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix_optional = [&h](const auto& field) {
    h = mix(h, field.has_value() ? 1 : 0);
    h = mix(h, field.has_value() ? static_cast<std::uint64_t>(*field) : 0);
  };
  mix_optional(rule.match.flow);
  mix_optional(rule.match.src_host);
  mix_optional(rule.match.dst_host);
  mix_optional(rule.match.in_port);
  h = mix(h, static_cast<std::uint64_t>(rule.action.kind));
  h = mix(h, rule.action.port);
  h = mix(h, rule.priority);
  h = mix(h, rule.cookie);
  return h;
}

// Digest of every switch's final forwarding state. Within one table the
// per-rule hashes combine commutatively (wrapping sum): rules from
// independent flows may be installed in any interleaving, and the same rule
// SET must digest identically whatever order batching delivered it in.
std::uint64_t final_state_digest(const Harness& harness) {
  std::uint64_t h = 1469598103934665603ull;
  for (NodeId node = 0; node < harness.switches.size(); ++node) {
    const switchsim::SimSwitch* sw = harness.switches[node];
    if (sw == nullptr) continue;
    h = mix(h, node);
    for (const auto& [table_id, table] : sw->tables()) {
      // Emptied tables stay resident for capacity reuse (proto/apply.cpp);
      // logically they are state never touched, so they digest as absent.
      if (table.empty()) continue;
      h = mix(h, table_id);
      h = mix(h, table.size());
      std::uint64_t rules = 0;
      for (const flow::FlowRule& rule : table.rules())
        rules += rule_hash(rule);
      h = mix(h, rules);
    }
  }
  return h;
}

void add_instance_switches(Harness& harness, const update::Instance& inst,
                           const ExecutorConfig& config) {
  for (NodeId v = 0; v < inst.node_count(); ++v)
    if (inst.on_old(v) || inst.on_new(v)) harness.add_switch(v, config);
}

// Per-flow traffic sources feeding one MultiFlowMonitor; flow i of the run
// is config.flow + i.
std::vector<std::unique_ptr<dataplane::TrafficSource>> make_sources(
    Harness& harness, dataplane::MultiFlowMonitor& monitors,
    const std::vector<const update::Instance*>& instances,
    const ExecutorConfig& config) {
  std::vector<std::unique_ptr<dataplane::TrafficSource>> sources;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const FlowId flow = config.flow + i;
    dataplane::ConsistencyMonitor& monitor = monitors.monitor(flow);
    if (!config.with_traffic) continue;
    const update::Instance& inst = *instances[i];
    dataplane::TrafficConfig traffic;
    traffic.flow = flow;
    traffic.ingress = inst.source();
    traffic.egress = inst.destination();
    traffic.waypoint = inst.waypoint();
    traffic.interarrival = config.traffic_interarrival;
    traffic.link_latency = config.link_latency;
    traffic.ttl = config.ttl;
    traffic.start = 0;
    traffic.stop = std::numeric_limits<sim::SimTime>::max();
    // A flow's injection lives on its ingress switch's shard queue; on the
    // per-packet path hops then follow the packet onto whichever shard
    // owns each switch, with cross-shard hand-offs through the group
    // mailboxes (traffic.hpp). The source's Rng is forked either way, so
    // every later stream is the same on both paths.
    sources.push_back(std::make_unique<dataplane::TrafficSource>(
        harness.sim, harness.partition, harness.switches, traffic,
        harness.rng.fork(), monitor));
  }
  return sources;
}

// The shared engine behind every execute_* entry point: wire the control
// plane, run per-policy traffic, submit every prepared request at the end
// of the warmup, and route completed metrics back by key flow. A request
// may cover one policy (execute_queue / execute_multiflow) or several (a
// merged multi-policy request); either way it goes through the controller's
// admission path, so merged and independent requests compose.
struct EngineRequest {
  controller::UpdateRequest request;
  std::vector<std::size_t> policies;  // instance indexes this request updates
};

struct EngineOutput {
  std::vector<controller::UpdateMetrics> updates;  // per request, input order
  dataplane::MonitorReport aggregate;
  std::vector<dataplane::MonitorReport> traffic;   // per policy
  std::vector<std::vector<dataplane::ConsistencyMonitor::Bucket>> timelines;
  sim::Duration timeline_bucket = 0;
  std::vector<std::size_t> packets_injected;       // per policy
  std::vector<std::vector<dataplane::ConsistencyMonitor::Window>> windows;
  std::size_t frames_sent = 0;
  std::size_t control_bytes = 0;
  std::size_t messages_sent = 0;
  std::size_t max_in_flight_observed = 0;
  std::uint64_t conflict_edges = 0;
  std::uint64_t blocked_submissions = 0;
  BatchingStats batching;
  ShardStats sharding;
  sim::FaultStats faults;
  std::uint64_t state_digest = 0;
  std::uint64_t initial_digest = 0;
  sim::Duration makespan = 0;
};

// The workload's switch co-occurrence graph: one weighted edge per switch
// pair some instance touches together. Input of the greedy-cut partitioner
// and of the cut-size accounting in ShardStats.
std::vector<topo::SwitchAffinity> affinity_edges(
    const std::vector<const update::Instance*>& instances) {
  std::unordered_map<std::uint64_t, std::size_t> weights;
  for (const update::Instance* inst : instances) {
    std::vector<NodeId> touched;
    for (NodeId v = 0; v < inst->node_count(); ++v)
      if (inst->on_old(v) || inst->on_new(v)) touched.push_back(v);
    for (std::size_t i = 0; i < touched.size(); ++i)
      for (std::size_t j = i + 1; j < touched.size(); ++j) {
        const NodeId lo = std::min(touched[i], touched[j]);
        const NodeId hi = std::max(touched[i], touched[j]);
        ++weights[(static_cast<std::uint64_t>(lo) << 32) | hi];
      }
  }
  std::vector<topo::SwitchAffinity> edges;
  edges.reserve(weights.size());
  for (const auto& [key, weight] : weights)
    edges.push_back(topo::SwitchAffinity{
        static_cast<NodeId>(key >> 32),
        static_cast<NodeId>(key & 0xffffffffull), weight});
  // The map iterates in hash order; sort so the partitioner's input - and
  // with it the partition itself - is deterministic.
  std::sort(edges.begin(), edges.end(),
            [](const topo::SwitchAffinity& a, const topo::SwitchAffinity& b) {
              if (a.a != b.a) return a.a < b.a;
              return a.b < b.b;
            });
  return edges;
}

// The lower bound on any cross-shard interaction a kLocal event can
// create: switch replies mature one channel latency after the send, and a
// packet's next hop one link latency after the current one. The exact
// traffic evaluator schedules no hops, so there the link term is only
// conservative - kept because it measured fewer horizon stalls in
// bench_multi_policy than the wider channel-only bound. The parallel
// stepper widens its epochs to exactly this bound (sim/sharded.hpp);
// unbounded-below latency models collapse it to 0, which degenerates to
// sequential stepping - correct, just not concurrent.
sim::Duration cross_shard_lookahead(const ExecutorConfig& config) {
  sim::Duration lookahead = config.channel.latency.min_delay();
  if (config.with_traffic)
    lookahead = std::min(lookahead, config.link_latency.min_delay());
  return lookahead;
}

// Injection at +0 forever never lets simulated time advance.
Status check_traffic(const ExecutorConfig& config) {
  if (config.with_traffic && !(config.traffic_interarrival.mean() >= 1))
    return make_error(Errc::kOutOfRange,
                      "traffic interarrival must be at least 1 ns");
  return {};
}

// Settles every exact traffic source up to `horizon` (a sync point: no
// shard mid-epoch), then drops the version-log entries no unsettled read
// can see any more.
void settle_traffic(
    Harness& harness,
    const std::vector<std::unique_ptr<dataplane::TrafficSource>>& sources,
    sim::SimTime horizon) {
  sim::SimTime oldest = horizon;
  for (const auto& source : sources) {
    source->settle(horizon);
    if (source->exact()) oldest = std::min(oldest, source->settled());
  }
  for (switchsim::SimSwitch* sw : harness.switches)
    if (sw != nullptr) sw->history().prune(oldest);
}

Result<EngineOutput> run_engine(
    const std::vector<const update::Instance*>& instances,
    std::vector<EngineRequest> requests, const ExecutorConfig& config,
    const controller::ControllerConfig& base_controller_config) {
  if (instances.empty() || requests.empty())
    return make_error(Errc::kInvalidArgument,
                      "need non-empty instance and request lists");
  if (base_controller_config.shards > proto::kMaxXidShards)
    return make_error(Errc::kOutOfRange, "shards must be in [1, 256]");
  if (Status traffic_ok = check_traffic(config); !traffic_ok.ok())
    return traffic_ok.error();

  // A non-empty fault schedule needs detection to be on, or a crashed
  // switch's lost barrier would stall its update forever and the run could
  // never drain. 25 ms comfortably exceeds a healthy barrier round-trip
  // under the default channel latencies.
  controller::ControllerConfig controller_config = base_controller_config;
  if (!config.faults.empty() && controller_config.liveness_timeout == 0)
    controller_config.liveness_timeout = sim::milliseconds(25);

  // The block partitioner carves contiguous NodeId ranges, so it needs the
  // extent of the id space the instances use.
  std::size_t node_count = 0;
  for (const update::Instance* inst : instances)
    node_count = std::max(node_count, inst->node_count());

  const std::size_t shard_count =
      controller_config.shards == 0 ? 1 : controller_config.shards;
  const std::vector<topo::SwitchAffinity> affinity =
      affinity_edges(instances);
  topo::SwitchPartition partition =
      controller_config.partition == topo::PartitionScheme::kGreedyCut
          ? topo::make_greedy_cut_partition(shard_count, node_count, affinity)
          : topo::SwitchPartition(shard_count, controller_config.partition,
                                  node_count);

  Harness harness(config, controller_config, std::move(partition));
  for (const update::Instance* inst : instances)
    add_instance_switches(harness, *inst, config);
  for (std::size_t i = 0; i < instances.size(); ++i)
    harness.install_initial(*instances[i], config.flow + i, config.priority);
  const std::uint64_t initial_digest = final_state_digest(harness);

  // Fault injection (sim/faults.hpp): each scheduled fault becomes events
  // on the target switch's shard. A crash (optionally retaining the TCAM)
  // takes the switch and both control-channel directions down, then brings
  // them back `down_for` later and the switch announces a fresh session; a
  // link outage does the same to the channels only; a blackhole silently
  // eats the next frames towards the switch. Every fault schedules its own
  // recovery, so runs always drain. An empty schedule adds NO events and
  // keeps every digest bit-identical.
  sim::FaultStats fault_stats;
  std::vector<sim::SimTime> down_at(harness.switches.size(), 0);
  // uint8_t, not bool: neighbouring vector<bool> bits share a byte, which
  // TSan would flag if fault handlers ever ran on different shards' lanes.
  std::vector<std::uint8_t> is_down(harness.switches.size(), 0);
  if (!config.faults.empty()) {
    for (const sim::FaultEvent& e : config.faults.events())
      if (e.node >= harness.switches.size() ||
          harness.switches[e.node] == nullptr)
        return make_error(Errc::kInvalidArgument,
                          "fault schedule targets an unknown switch");
    // A barrier-confirmed resync returns the switch to service (its tables
    // provably match the shadow again) and clocks the recovery.
    harness.ctrl->set_on_switch_resynced([&](NodeId node) {
      harness.switches[node]->set_serving(true);
      if (is_down[node]) {
        is_down[node] = false;
        fault_stats.recovery_ms.push_back(
            sim::to_ms(harness.sim_of(node).now() - down_at[node]));
      }
    });
    for (const sim::FaultEvent& e : config.faults.events()) {
      const std::size_t shard = harness.partition.shard_of(e.node);
      channel::DuplexChannel* duplex = harness.duplex_by_node[e.node];
      switchsim::SimSwitch* sw = harness.switches[e.node];
      switch (e.kind) {
        case sim::FaultKind::kSwitchCrash:
          harness.sim.schedule_on(shard, e.at, [&, duplex, sw, e]() {
            ++fault_stats.crashes;
            down_at[e.node] = harness.sim_of(e.node).now();
            is_down[e.node] = true;
            duplex->to_switch.set_down(true);
            duplex->to_controller.set_down(true);
            sw->crash(e.lose_state);
          });
          harness.sim.schedule_on(shard, e.at + e.down_for,
                                  [duplex, sw]() {
                                    duplex->to_switch.set_down(false);
                                    duplex->to_controller.set_down(false);
                                    sw->restart();
                                  });
          break;
        case sim::FaultKind::kLinkDown:
          harness.sim.schedule_on(shard, e.at, [&, duplex, e]() {
            ++fault_stats.link_downs;
            down_at[e.node] = harness.sim_of(e.node).now();
            is_down[e.node] = true;
            duplex->to_switch.set_down(true);
            duplex->to_controller.set_down(true);
          });
          // The switch itself never died (its tables still forward; it
          // stays in service), but in-flight acks are gone - announcing a
          // fresh session makes the controller re-fence the uncertainty.
          harness.sim.schedule_on(shard, e.at + e.down_for,
                                  [duplex, sw]() {
                                    duplex->to_switch.set_down(false);
                                    duplex->to_controller.set_down(false);
                                    sw->announce();
                                  });
          break;
        case sim::FaultKind::kBlackhole:
          harness.sim.schedule_on(shard, e.at, [&, duplex, e]() {
            ++fault_stats.blackholes;
            duplex->to_switch.drop_next(e.frames);
          });
          break;
      }
    }
  }

  dataplane::MultiFlowMonitor monitors;
  std::vector<std::unique_ptr<dataplane::TrafficSource>> sources =
      make_sources(harness, monitors, instances, config);

  // Requests are identified in the completed list by their key flow (a
  // request's `flow` is the first flow it updates; each policy belongs to
  // exactly one request, so key flows are unique).
  std::vector<FlowId> key_flows;
  key_flows.reserve(requests.size());
  for (const EngineRequest& r : requests)
    key_flows.push_back(r.request.flow);

  // Collect completions as they happen (the controller's own retained
  // window is a bounded ring, so a closed-loop run with more requests than
  // the ring capacity must not read results back from it), and stop
  // injecting `drain` after the last update completes.
  std::vector<controller::UpdateMetrics> done_metrics;
  done_metrics.reserve(requests.size());
  harness.ctrl->set_on_update_done(
      [&](const controller::UpdateMetrics& metrics) {
        done_metrics.push_back(metrics);
        if (done_metrics.size() != requests.size()) return;
        // Give in-flight packets and the monitor a drain window.
        // (set_stop is monotone: injection checks the new bound.)
        for (auto& source : sources)
          if (source) source->set_stop(harness.sim.now() + config.drain);
      });

  for (auto& source : sources)
    if (source) source->start();

  // Submit all requests at the end of the warmup (the paper's queue: they
  // arrive together; how many progress at once is the controller's
  // max_in_flight under its admission policy). Each request's submission
  // event lands on its HOME shard - the lowest shard its FlowMods touch -
  // so warmup submissions no longer serialize through shard 0's queue;
  // merged order at the shared warmup instant stays deterministic (shard
  // ascending, then input order within a shard). Submission events are
  // kShared: submitting reaches the coordinator and can start work on
  // several shards at once.
  std::vector<std::vector<std::size_t>> by_home(harness.sim.shard_count());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    std::size_t home = harness.sim.shard_count();
    for (const std::vector<controller::RoundOp>& round :
         requests[i].request.rounds)
      for (const controller::RoundOp& op : round)
        home = std::min(home, harness.partition.shard_of(op.node));
    by_home[home == harness.sim.shard_count() ? 0 : home].push_back(i);
  }
  for (std::size_t s = 0; s < by_home.size(); ++s) {
    if (by_home[s].empty()) continue;
    harness.sim.schedule_on(s, config.warmup, [&, s]() {
      for (const std::size_t i : by_home[s])
        harness.ctrl->submit(std::move(requests[i].request));
    });
  }

  const bool parallel =
      controller_config.exec == sim::ExecMode::kParallel;
  // An epoch dispatches exactly shard_count tasks, so more lanes than
  // shards would only sleep; the clamp also keeps a typo'd `threads`
  // from asking the OS for an absurd thread count.
  const std::size_t pool_threads =
      !parallel ? 1
      : controller_config.threads != 0
          ? std::min(controller_config.threads, harness.sim.shard_count())
          : std::min(harness.sim.shard_count(),
                     sim::ThreadPool::hardware_threads());
  const auto wall_start = std::chrono::steady_clock::now();
  if (parallel) {
    sim::ThreadPool pool(pool_threads);
    harness.sim.run_parallel(pool, cross_shard_lookahead(config));
  } else {
    harness.sim.run();
  }
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - wall_start)
          .count();

  if (!harness.ctrl->idle() || done_metrics.size() != requests.size())
    return make_error(Errc::kFailedPrecondition,
                      "simulation drained before all updates completed");
  // Every table change is logged now: count every packet.
  for (auto& source : sources) source->settle(dataplane::TrafficSource::kNever);

  // Completion order need not match submission order when updates run
  // concurrently; route metrics back to their request by key flow.
  std::unordered_map<FlowId, const controller::UpdateMetrics*> by_flow;
  for (const controller::UpdateMetrics& m : done_metrics)
    by_flow[m.flow] = &m;

  EngineOutput out;
  out.frames_sent = harness.total_frames();
  out.control_bytes = harness.total_bytes();
  out.messages_sent = harness.total_messages();
  out.max_in_flight_observed = harness.ctrl->max_in_flight_observed();
  out.conflict_edges = harness.ctrl->conflict_edges();
  out.blocked_submissions = harness.ctrl->blocked_submissions();
  out.batching.batches_sent = harness.ctrl->batches_sent();
  out.batching.messages_coalesced = harness.ctrl->messages_coalesced();
  out.batching.timer_flushes = harness.ctrl->timer_flushes();
  out.batching.budget_flushes = harness.ctrl->budget_flushes();
  out.batching.flush_timers_cancelled = harness.ctrl->flush_timers_cancelled();
  out.batching.max_hold = harness.ctrl->max_hold();
  out.sharding.shards = harness.ctrl->shard_count();
  out.sharding.exec = controller_config.exec;
  out.sharding.threads = pool_threads;
  out.sharding.cross_shard_updates = harness.ctrl->cross_shard_updates();
  out.sharding.rounds_synced = harness.ctrl->rounds_synced();
  out.sharding.sync_overhead = harness.ctrl->sync_overhead();
  out.sharding.parallel_epochs = harness.sim.parallel_epochs();
  out.sharding.horizon_stalls = harness.sim.horizon_stalls();
  out.sharding.speculative_releases = harness.ctrl->speculative_releases();
  out.sharding.steals = harness.sim.steals();
  out.sharding.overflow_posts = harness.sim.overflow_posts();
  out.sharding.events_per_shard = harness.sim.events_per_shard();
  out.sharding.partition_cut_weight = harness.partition.cut_weight(affinity);
  out.sharding.wall_ms = wall_ms;
  out.faults = std::move(fault_stats);
  out.faults.timeouts = harness.ctrl->timeouts();
  out.faults.resyncs = harness.ctrl->resyncs();
  out.faults.resync_frames = harness.ctrl->resync_frames();
  out.faults.rollbacks = harness.ctrl->rollbacks();
  out.faults.retries = harness.ctrl->retries();
  out.faults.resubmissions = harness.ctrl->resubmissions();
  for (const auto& duplex : harness.channels)
    out.faults.frames_lost += duplex->to_switch.frames_dropped() +
                              duplex->to_controller.frames_dropped();
  for (const switchsim::SimSwitch* sw : harness.switches)
    if (sw != nullptr) out.faults.frames_lost += sw->frames_dropped();
  out.state_digest = final_state_digest(harness);
  out.initial_digest = initial_digest;
  out.aggregate = monitors.aggregate();

  sim::SimTime first_start = std::numeric_limits<sim::SimTime>::max();
  sim::SimTime last_finish = 0;
  out.updates.reserve(requests.size());
  for (const FlowId key : key_flows) {
    const auto it = by_flow.find(key);
    if (it == by_flow.end())
      return make_error(Errc::kFailedPrecondition,
                        "no completed update for request");
    out.updates.push_back(*it->second);
    first_start = std::min(first_start, it->second->started);
    last_finish = std::max(last_finish, it->second->finished);
  }
  out.makespan = last_finish - first_start;

  out.traffic.resize(instances.size());
  out.timelines.resize(instances.size());
  out.packets_injected.assign(instances.size(), 0);
  out.windows.resize(instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    dataplane::ConsistencyMonitor& monitor = monitors.monitor(config.flow + i);
    out.traffic[i] = monitor.report();
    out.timelines[i] = monitor.take_timeline();
    out.windows[i] = monitor.windows();
    out.timeline_bucket = monitor.bucket_width();
    if (config.with_traffic && i < sources.size() && sources[i])
      out.packets_injected[i] = sources[i]->injected();
  }
  return out;
}

// One request per policy, flows numbered config.flow + i.
std::vector<EngineRequest> per_policy_requests(
    const std::vector<const update::Instance*>& instances,
    const std::vector<const update::Schedule*>& schedules,
    const ExecutorConfig& config) {
  std::vector<EngineRequest> requests;
  requests.reserve(instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    EngineRequest r;
    r.request = controller::request_from_schedule(
        *instances[i], *schedules[i], config.flow + i, config.priority,
        config.interval);
    r.policies = {i};
    requests.push_back(std::move(r));
  }
  return requests;
}

// Per-policy ExecutionResults assembled from an engine run where request i
// covers exactly policy i. Moves the per-flow timelines and windows out.
std::vector<ExecutionResult> per_policy_results(EngineOutput& out) {
  std::vector<ExecutionResult> flows(out.updates.size());
  for (std::size_t i = 0; i < out.updates.size(); ++i) {
    ExecutionResult& result = flows[i];
    result.update = out.updates[i];
    result.traffic = out.traffic[i];
    result.timeline = std::move(out.timelines[i]);
    result.timeline_bucket = out.timeline_bucket;
    result.frames_sent = out.frames_sent;
    result.control_bytes = out.control_bytes;
    result.packets_injected = out.packets_injected[i];
    result.windows = std::move(out.windows[i]);
  }
  return flows;
}

}  // namespace

Result<ExecutionResult> execute(const update::Instance& inst,
                                const update::Schedule& schedule,
                                const ExecutorConfig& config) {
  std::vector<const update::Instance*> instances{&inst};
  std::vector<const update::Schedule*> schedules{&schedule};
  Result<std::vector<ExecutionResult>> results =
      execute_queue(instances, schedules, config);
  if (!results.ok()) return results.error();
  TSU_ASSERT(results.value().size() == 1);
  return std::move(results).value()[0];
}

Result<std::vector<ExecutionResult>> execute_queue(
    const std::vector<const update::Instance*>& instances,
    const std::vector<const update::Schedule*>& schedules,
    const ExecutorConfig& config) {
  if (instances.size() != schedules.size() || instances.empty())
    return make_error(Errc::kInvalidArgument,
                      "need matching, non-empty instance/schedule lists");
  // The paper's strictly serializing message queue.
  controller::ControllerConfig serialized = config.controller;
  serialized.max_in_flight = 1;
  Result<EngineOutput> out =
      run_engine(instances, per_policy_requests(instances, schedules, config),
                 config, serialized);
  if (!out.ok()) return out.error();
  return per_policy_results(out.value());
}

Result<MultiFlowExecutionResult> execute_multiflow(
    const std::vector<const update::Instance*>& instances,
    const std::vector<const update::Schedule*>& schedules,
    const ExecutorConfig& config) {
  if (instances.size() != schedules.size() || instances.empty())
    return make_error(Errc::kInvalidArgument,
                      "need matching, non-empty instance/schedule lists");
  Result<EngineOutput> out =
      run_engine(instances, per_policy_requests(instances, schedules, config),
                 config, config.controller);
  if (!out.ok()) return out.error();
  MultiFlowExecutionResult result;
  result.flows = per_policy_results(out.value());
  result.aggregate = out.value().aggregate;
  result.frames_sent = out.value().frames_sent;
  result.control_bytes = out.value().control_bytes;
  result.messages_sent = out.value().messages_sent;
  result.max_in_flight_observed = out.value().max_in_flight_observed;
  result.conflict_edges = out.value().conflict_edges;
  result.blocked_submissions = out.value().blocked_submissions;
  result.batching = out.value().batching;
  result.sharding = out.value().sharding;
  result.faults = out.value().faults;
  result.final_state_digest = out.value().state_digest;
  result.initial_state_digest = out.value().initial_digest;
  result.makespan = out.value().makespan;
  return result;
}

Result<MergedExecutionResult> execute_merged(
    const std::vector<const update::Instance*>& instances,
    const std::vector<const update::Schedule*>& schedules,
    const ExecutorConfig& config) {
  if (instances.size() != schedules.size() || instances.empty())
    return make_error(Errc::kInvalidArgument,
                      "need matching, non-empty instance/schedule lists");
  std::vector<std::size_t> all(instances.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  Result<MixedExecutionResult> mixed =
      execute_mixed(instances, schedules, {all}, config);
  if (!mixed.ok()) return mixed.error();

  MergedExecutionResult result;
  result.update = std::move(mixed.value().updates.front());
  result.traffic = std::move(mixed.value().traffic);
  result.frames_sent = mixed.value().frames_sent;
  return result;
}

Result<MixedExecutionResult> execute_mixed(
    const std::vector<const update::Instance*>& instances,
    const std::vector<const update::Schedule*>& schedules,
    const std::vector<std::vector<std::size_t>>& groups,
    const ExecutorConfig& config) {
  if (instances.size() != schedules.size() || instances.empty())
    return make_error(Errc::kInvalidArgument,
                      "need matching, non-empty instance/schedule lists");
  if (groups.empty())
    return make_error(Errc::kInvalidArgument, "need at least one group");

  // Groups must partition the policy indexes.
  std::vector<bool> seen(instances.size(), false);
  for (const std::vector<std::size_t>& group : groups) {
    if (group.empty())
      return make_error(Errc::kInvalidArgument, "empty group");
    for (const std::size_t i : group) {
      if (i >= instances.size() || seen[i])
        return make_error(Errc::kInvalidArgument,
                          "groups must partition the policy indexes");
      seen[i] = true;
    }
  }
  for (const bool covered : seen)
    if (!covered)
      return make_error(Errc::kInvalidArgument,
                        "groups must cover every policy");

  std::vector<EngineRequest> requests;
  requests.reserve(groups.size());
  for (const std::vector<std::size_t>& group : groups) {
    EngineRequest r;
    r.policies = group;
    if (group.size() == 1) {
      const std::size_t i = group.front();
      r.request = controller::request_from_schedule(
          *instances[i], *schedules[i], config.flow + i, config.priority,
          config.interval);
    } else {
      std::vector<const update::Instance*> members;
      std::vector<const update::Schedule*> member_schedules;
      std::vector<FlowId> flows;
      for (const std::size_t i : group) {
        members.push_back(instances[i]);
        member_schedules.push_back(schedules[i]);
        flows.push_back(config.flow + i);
      }
      Result<update::MergedSchedule> merged =
          update::merge_policies(members, member_schedules);
      if (!merged.ok()) return merged.error();
      r.request = controller::request_from_merged(
          members, member_schedules, merged.value(), flows, config.priority,
          config.interval);
    }
    requests.push_back(std::move(r));
  }

  Result<EngineOutput> out =
      run_engine(instances, std::move(requests), config, config.controller);
  if (!out.ok()) return out.error();

  MixedExecutionResult result;
  result.updates = std::move(out.value().updates);
  result.traffic = std::move(out.value().traffic);
  result.aggregate = out.value().aggregate;
  result.frames_sent = out.value().frames_sent;
  result.max_in_flight_observed = out.value().max_in_flight_observed;
  result.conflict_edges = out.value().conflict_edges;
  result.blocked_submissions = out.value().blocked_submissions;
  result.batching = out.value().batching;
  result.sharding = out.value().sharding;
  result.faults = out.value().faults;
  result.final_state_digest = out.value().state_digest;
  result.initial_state_digest = out.value().initial_digest;
  result.makespan = out.value().makespan;
  return result;
}

Result<ServiceResult> execute_service(const ServiceConfig& config) {
  ExecutorConfig exec = config.exec;
  // Consecutive updates of one template share a rule footprint and MUST
  // serialize, or a later submission races the earlier one's rounds and
  // leaves the data plane inconsistent (the reverse direction assumes the
  // forward update's end state). Blind admission cannot give that
  // guarantee, so service mode upgrades it to the conflict DAG.
  if (exec.controller.admission == controller::AdmissionPolicy::kBlind)
    exec.controller.admission = controller::AdmissionPolicy::kConflictAware;
  // CI kill switch: TSU_PLAN_CACHE=off forces every service run onto the
  // compile-per-submission path, so the sanitizer jobs can sweep the whole
  // service/soak suite with the cache inert and prove the transparent-
  // optimization claim under ASan without duplicating the tests.
  if (const char* env = std::getenv("TSU_PLAN_CACHE");
      env != nullptr && std::string_view(env) == "off")
    exec.controller.plan_cache = false;
  if (config.flows == 0)
    return make_error(Errc::kInvalidArgument, "need at least one template");
  if (config.classes.empty() || config.classes.size() > 256)
    return make_error(Errc::kInvalidArgument,
                      "priority class count must be in [1, 256]");
  if (config.max_pending == 0)
    return make_error(Errc::kInvalidArgument,
                      "max_pending must be at least 1");
  const bool bounded_trace = !config.trace.empty() && !config.trace_cycle;
  if (config.horizon == 0 && config.target_completions == 0 && !bounded_trace)
    return make_error(Errc::kInvalidArgument,
                      "service needs a horizon, a completion target, or a "
                      "non-cycling trace - arrivals would never stop");
  if (config.trace.empty() && !(config.arrival_rate_per_sec > 0))
    return make_error(Errc::kInvalidArgument,
                      "arrival rate must be positive");
  if (!exec.faults.empty())
    return make_error(Errc::kInvalidArgument,
                      "fault injection is not supported in service mode");
  if (Status traffic_ok = check_traffic(exec); !traffic_ok.ok())
    return traffic_ok.error();
  if (exec.controller.shards > proto::kMaxXidShards)
    return make_error(Errc::kOutOfRange, "shards must be in [1, 256]");
  double total_weight = 0;
  for (const ServiceClassConfig& cls : config.classes)
    total_weight += std::max(0.0, cls.weight);
  if (!(total_weight > 0))
    return make_error(Errc::kInvalidArgument,
                      "class weights must sum to a positive value");

  topo::ArrivalProcess arrivals =
      !config.trace.empty()
          ? topo::ArrivalProcess::trace(config.trace, config.trace_cycle)
          : topo::ArrivalProcess::poisson(config.arrival_rate_per_sec);

  // Template pool: forward (old -> new) schedules, plus the reverse
  // direction planned once up front when alternation is on. Submission
  // flips per template, and same-template requests share a rule footprint,
  // so admission serializes them in arrival order - the data plane always
  // transitions from the state the submitted direction assumes.
  Result<topo::PlannedPoolWorkload> pool_result =
      topo::planned_pool_workload(config.flows, config.pool_switches);
  if (!pool_result.ok()) return pool_result.error();
  topo::PlannedPoolWorkload pool = std::move(pool_result).value();

  std::vector<update::Instance> rev_instances;
  std::vector<update::Schedule> rev_schedules;
  if (config.alternate_directions) {
    rev_instances.reserve(pool.instances.size());
    rev_schedules.reserve(pool.instances.size());
    for (const update::Instance& inst : pool.instances) {
      Result<update::Instance> rev = update::Instance::make(
          inst.new_path(), inst.old_path(), inst.waypoint());
      if (!rev.ok()) return rev.error();
      Result<update::Schedule> sched = update::plan_peacock(rev.value());
      if (!sched.ok()) return sched.error();
      rev_instances.push_back(std::move(rev).value());
      rev_schedules.push_back(std::move(sched).value());
    }
  }

  std::size_t node_count = 0;
  for (const update::Instance* inst : pool.instance_ptrs)
    node_count = std::max(node_count, inst->node_count());
  const std::size_t shard_count =
      exec.controller.shards == 0 ? 1 : exec.controller.shards;
  const std::vector<topo::SwitchAffinity> affinity =
      affinity_edges(pool.instance_ptrs);
  topo::SwitchPartition partition =
      exec.controller.partition == topo::PartitionScheme::kGreedyCut
          ? topo::make_greedy_cut_partition(shard_count, node_count, affinity)
          : topo::SwitchPartition(shard_count, exec.controller.partition,
                                  node_count);

  Harness harness(exec, exec.controller, std::move(partition));
  for (const update::Instance* inst : pool.instance_ptrs)
    add_instance_switches(harness, *inst, exec);
  for (std::size_t i = 0; i < pool.instances.size(); ++i)
    harness.install_initial(pool.instances[i], exec.flow + i, exec.priority);

  // bucket_width 0: aggregate outcome counts only. An open-loop horizon is
  // unbounded, so the per-bucket timeline must stay disabled.
  dataplane::MultiFlowMonitor monitors(0);
  std::vector<std::unique_ptr<dataplane::TrafficSource>> sources =
      make_sources(harness, monitors, pool.instance_ptrs, exec);

  // Forked AFTER every per-switch/per-source fork so the control-plane
  // streams match a run with different service parameters.
  Rng service_rng = harness.rng.fork();

  const std::size_t class_count = config.classes.size();
  struct PendingRequest {
    std::size_t tmpl = 0;
    sim::SimTime arrived = 0;
  };
  // Per-class FIFO as a flat ring rather than std::deque: libstdc++'s deque
  // allocates a fresh ~512-byte chunk every ~32 pushes even at constant
  // depth, which would show up as steady-state allocations on the
  // submission path. Capacity starts at min(max_pending, 1024) - since
  // per-class depth is bounded by the shared max_pending admission check,
  // the default configuration never grows after construction.
  struct PendingRing {
    std::vector<PendingRequest> slots;
    std::size_t head = 0;
    std::size_t count = 0;

    bool empty() const noexcept { return count == 0; }
    const PendingRequest& front() const noexcept { return slots[head]; }
    void pop_front() noexcept {
      head = head + 1 == slots.size() ? 0 : head + 1;
      --count;
    }
    void push_back(const PendingRequest& r) {
      if (count == slots.size()) grow();
      std::size_t tail = head + count;
      if (tail >= slots.size()) tail -= slots.size();
      slots[tail] = r;
      ++count;
    }
    void grow() {
      std::vector<PendingRequest> next(std::max<std::size_t>(
          std::size_t{8}, slots.size() * 2));
      for (std::size_t i = 0; i < count; ++i)
        next[i] = slots[(head + i) % (slots.empty() ? 1 : slots.size())];
      slots = std::move(next);
      head = 0;
    }
  };
  std::vector<PendingRing> pending(class_count);
  for (PendingRing& ring : pending)
    ring.slots.resize(std::min<std::size_t>(config.max_pending, 1024));
  std::size_t pending_total = 0;
  std::vector<double> tokens(class_count);
  std::vector<sim::SimTime> refilled(class_count, 0);
  for (std::size_t c = 0; c < class_count; ++c)
    tokens[c] = std::max(1.0, config.classes[c].burst);
  std::vector<std::uint64_t> flip(config.flows, 0);

  // Compiled-plan cache (controller/plan_cache.hpp). Keys are derived once
  // per (template, direction) from the instance's identity digest - the
  // forward and reverse instances of one template digest differently (the
  // paths swap), but mix in a direction tag anyway so the key's meaning
  // never rests on that accident. Submissions below consult the cache with
  // the coordinator's current resync generation: any fault-driven shadow
  // rewrite bumps it and stale pre-encoded frames are recompiled, never
  // served.
  const bool plan_cache_on = exec.controller.plan_cache;
  controller::PlanCache plan_cache;
  std::vector<std::uint64_t> fwd_keys;
  std::vector<std::uint64_t> rev_keys;
  if (plan_cache_on) {
    constexpr std::uint64_t kReverseTag = 0x9e3779b97f4a7c15ULL;
    fwd_keys.reserve(pool.instances.size());
    for (const update::Instance& inst : pool.instances)
      fwd_keys.push_back(inst.identity_digest());
    rev_keys.reserve(rev_instances.size());
    for (const update::Instance& inst : rev_instances)
      rev_keys.push_back(inst.identity_digest() ^ kReverseTag);
  }

  ServiceStats stats;
  stats.by_class.resize(class_count);
  sim::SimTime last_completion = 0;
  bool arrivals_done = false;
  bool pump_timer = false;
  bool pumping = false;

  std::size_t depth_limit = config.submit_depth;
  if (depth_limit == 0) {
    const std::size_t mif =
        exec.controller.max_in_flight == 0 ? 1 : exec.controller.max_in_flight;
    depth_limit = mif > (std::size_t{1} << 20)
                      ? (std::size_t{1} << 20)
                      : 2 * mif * shard_count;
  }

  const auto controller_depth = [&]() {
    return harness.ctrl->queued() + harness.ctrl->in_flight();
  };

  const auto pick_class = [&]() -> std::uint8_t {
    if (class_count == 1) return 0;
    double r = service_rng.uniform01() * total_weight;
    for (std::size_t c = 0; c < class_count; ++c) {
      r -= std::max(0.0, config.classes[c].weight);
      if (r < 0) return static_cast<std::uint8_t>(c);
    }
    return static_cast<std::uint8_t>(class_count - 1);
  };

  const auto submit_one = [&](std::size_t cls) {
    const PendingRequest p = pending[cls].front();
    pending[cls].pop_front();
    --pending_total;
    const bool reverse = config.alternate_directions && (flip[p.tmpl] & 1);
    ++flip[p.tmpl];
    const update::Instance& inst =
        reverse ? rev_instances[p.tmpl] : pool.instances[p.tmpl];
    const update::Schedule& sched =
        reverse ? rev_schedules[p.tmpl] : pool.schedules[p.tmpl];
    if (plan_cache_on) {
      // Warm path: reuse the compiled plan - no request materialization, no
      // re-encoding; the controller patches xids into the cached frames.
      // Cold path: build the CANONICAL request (exactly what the cache-off
      // branch below submits, before the per-submission class/enqueued
      // stamps) and compile it once.
      const std::uint64_t key =
          reverse ? rev_keys[p.tmpl] : fwd_keys[p.tmpl];
      const std::uint64_t generation = harness.ctrl->resync_generation();
      std::shared_ptr<const controller::CompiledPlan> plan =
          plan_cache.lookup(key, generation);
      if (plan == nullptr) {
        controller::UpdateRequest req = controller::request_from_schedule(
            inst, sched, static_cast<FlowId>(exec.flow + p.tmpl),
            exec.priority, exec.interval);
        plan = controller::compile_plan(std::move(req), generation);
        plan_cache.store(key, plan);
      }
      harness.ctrl->submit_plan(std::move(plan),
                                static_cast<std::uint8_t>(cls), p.arrived);
    } else {
      controller::UpdateRequest req = controller::request_from_schedule(
          inst, sched, static_cast<FlowId>(exec.flow + p.tmpl), exec.priority,
          exec.interval);
      req.priority_class = static_cast<std::uint8_t>(cls);
      req.enqueued = p.arrived;
      harness.ctrl->submit(std::move(req));
    }
    ++stats.submitted;
    ++stats.by_class[cls].submitted;
  };

  // Releases pending requests into the controller: strict priority (class
  // 0 first, FIFO within a class) up to depth_limit, honouring each
  // class's token bucket. A throttled class defers its head-of-line
  // request and the scan moves on, so rate-limited high-priority traffic
  // never starves unlimited lower classes.
  std::function<void()> pump_fn;
  const auto schedule_pump = [&](sim::Duration delay) {
    if (pump_timer) return;
    pump_timer = true;
    harness.sim.schedule_on(0, delay, [&]() {
      pump_timer = false;
      pump_fn();
    });
  };
  pump_fn = [&]() {
    if (pumping) return;  // submit can complete and re-enter synchronously
    pumping = true;
    const sim::SimTime now = harness.sim.now();
    bool want_timer = false;
    sim::Duration timer_delay = 0;
    bool progress = true;
    while (progress && pending_total > 0 && controller_depth() < depth_limit) {
      progress = false;
      for (std::size_t c = 0; c < class_count; ++c) {
        if (pending[c].empty()) continue;
        const ServiceClassConfig& cls = config.classes[c];
        if (cls.rate_limit_per_sec > 0) {
          const double cap = std::max(1.0, cls.burst);
          tokens[c] = std::min(
              cap, tokens[c] + static_cast<double>(now - refilled[c]) *
                                   cls.rate_limit_per_sec / 1e9);
          refilled[c] = now;
          if (tokens[c] < 1) {
            ++stats.throttled;
            ++stats.by_class[c].throttled;
            const sim::Duration wait =
                static_cast<sim::Duration>((1 - tokens[c]) * 1e9 /
                                           cls.rate_limit_per_sec) +
                1;
            if (!want_timer || wait < timer_delay) {
              want_timer = true;
              timer_delay = wait;
            }
            continue;
          }
          tokens[c] -= 1;
        }
        submit_one(c);
        progress = true;
        break;  // restart from class 0: strict priority
      }
    }
    stats.peak_controller_depth =
        std::max(stats.peak_controller_depth, controller_depth());
    if (want_timer && pending_total > 0) schedule_pump(timer_delay);
    pumping = false;
  };

  // Once arrivals have stopped and every accepted request completed, give
  // in-flight packets a drain window; with traffic off the event queue
  // simply empties.
  const auto maybe_finish = [&]() {
    if (!arrivals_done || pending_total != 0 ||
        stats.submitted != stats.completed)
      return;
    for (auto& source : sources)
      if (source) source->set_stop(harness.sim.now() + exec.drain);
  };
  const auto finish_arrivals = [&]() {
    arrivals_done = true;
    maybe_finish();
  };

  std::function<void()> arrival_fn;
  const auto schedule_next_arrival = [&]() {
    if (config.target_completions != 0 &&
        stats.accepted >= config.target_completions) {
      finish_arrivals();
      return;
    }
    if (arrivals.exhausted()) {
      finish_arrivals();
      return;
    }
    const sim::Duration gap = arrivals.next_gap(service_rng);
    if (config.horizon != 0 && harness.sim.now() + gap > config.horizon) {
      finish_arrivals();
      return;
    }
    harness.sim.schedule_on(0, gap, [&]() { arrival_fn(); });
  };
  arrival_fn = [&]() {
    const std::uint8_t cls = pick_class();
    ++stats.arrivals;
    ++stats.by_class[cls].arrivals;
    if (pending_total >= config.max_pending) {
      // Load shedding: a full pending queue rejects, never buffers - the
      // bound that keeps overload memory flat.
      ++stats.rejected;
      ++stats.by_class[cls].rejected;
    } else {
      pending[cls].push_back(
          PendingRequest{service_rng.index(config.flows), harness.sim.now()});
      ++pending_total;
      ++stats.accepted;
      ++stats.by_class[cls].accepted;
      stats.peak_pending = std::max(stats.peak_pending, pending_total);
    }
    pump_fn();
    schedule_next_arrival();
  };

  // Exact traffic is counted as the run goes, at completions (sync points,
  // see settle_traffic) at most once per kSettleEvery of simulated time,
  // so the version logs stay bounded over an unbounded horizon.
  constexpr sim::Duration kSettleEvery = sim::milliseconds(1);
  sim::SimTime last_settle = 0;
  harness.ctrl->set_on_update_done(
      [&](const controller::UpdateMetrics& metrics) {
        ++stats.completed;
        if (metrics.aborted) ++stats.aborted;
        if (metrics.priority_class < class_count)
          ++stats.by_class[metrics.priority_class].completed;
        last_completion = std::max(last_completion, metrics.finished);
        pump_fn();
        maybe_finish();
        if (harness.sim.now() - last_settle >= kSettleEvery) {
          last_settle = harness.sim.now();
          settle_traffic(harness, sources, last_settle);
        }
      });

  // Live snapshot feed: a bounded ring of the last snapshot_window
  // snapshots; the event stops rescheduling itself once the run is done,
  // so it never keeps the simulation alive.
  std::vector<ServiceSnapshot> snap_ring;
  std::size_t snap_next = 0;
  std::uint64_t snap_prev_completed = 0;
  std::function<void()> snapshot_fn;
  if (config.snapshot_interval > 0 && config.snapshot_window > 0) {
    snap_ring.reserve(config.snapshot_window);
    snapshot_fn = [&]() {
      ServiceSnapshot s;
      s.at = harness.sim.now();
      s.arrivals = stats.arrivals;
      s.accepted = stats.accepted;
      s.rejected = stats.rejected;
      s.submitted = stats.submitted;
      s.completed = stats.completed;
      s.pending = pending_total;
      s.controller_depth = controller_depth();
      s.steady_state_entries = harness.ctrl->steady_state_entries();
      for (const switchsim::SimSwitch* sw : harness.switches)
        if (sw != nullptr) s.version_log_entries += sw->history().size();
      s.plan_compiles = plan_cache.compiles();
      s.plan_hits = plan_cache.hits();
      s.plan_invalidations = plan_cache.invalidations();
      s.window_throughput_per_sec =
          static_cast<double>(stats.completed - snap_prev_completed) * 1e9 /
          static_cast<double>(config.snapshot_interval);
      snap_prev_completed = stats.completed;
      const controller::CompletionStats& cs =
          harness.ctrl->completions().stats();
      if (cs.count > 0) {
        s.p50_duration_ms = cs.duration_ns.quantile(0.5) / 1e6;
        s.p99_duration_ms = cs.duration_ns.quantile(0.99) / 1e6;
        s.p50_wait_ms = cs.wait_ns.quantile(0.5) / 1e6;
        s.p99_wait_ms = cs.wait_ns.quantile(0.99) / 1e6;
      }
      if (snap_ring.size() < config.snapshot_window) {
        snap_ring.push_back(s);
      } else {
        snap_ring[snap_next] = s;
        snap_next = (snap_next + 1) % config.snapshot_window;
      }
      if (config.on_snapshot) config.on_snapshot(s);
      if (!(arrivals_done && pending_total == 0 &&
            stats.submitted == stats.completed))
        harness.sim.schedule_on(0, config.snapshot_interval,
                                [&]() { snapshot_fn(); });
    };
    harness.sim.schedule_on(0, config.snapshot_interval,
                            [&]() { snapshot_fn(); });
  }

  if (config.tune) config.tune(*harness.ctrl);

  for (auto& source : sources)
    if (source) source->start();
  schedule_next_arrival();

  const bool parallel = exec.controller.exec == sim::ExecMode::kParallel;
  const std::size_t pool_threads =
      !parallel ? 1
      : exec.controller.threads != 0
          ? std::min(exec.controller.threads, harness.sim.shard_count())
          : std::min(harness.sim.shard_count(),
                     sim::ThreadPool::hardware_threads());
  const auto wall_start = std::chrono::steady_clock::now();
  if (parallel) {
    sim::ThreadPool thread_pool(pool_threads);
    harness.sim.run_parallel(thread_pool, cross_shard_lookahead(exec));
  } else {
    harness.sim.run();
  }
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - wall_start)
          .count();

  if (!harness.ctrl->idle() || stats.submitted != stats.completed ||
      pending_total != 0)
    return make_error(Errc::kFailedPrecondition,
                      "service drained with work outstanding");
  if (config.exec.with_traffic)
    settle_traffic(harness, sources, dataplane::TrafficSource::kNever);

  ServiceResult result;
  const controller::CompletionLog& log = harness.ctrl->completions();
  result.completions = log.stats();
  if (!log.recent().empty()) {
    result.recent.reserve(log.recent().size());
    for (std::size_t i = log.recent().size(); i-- > 0;)
      result.recent.push_back(log.recent_back(i));  // oldest -> newest
  }
  result.traffic = monitors.aggregate();
  if (!snap_ring.empty()) {
    result.snapshots.reserve(snap_ring.size());
    for (std::size_t i = 0; i < snap_ring.size(); ++i)
      result.snapshots.push_back(
          snap_ring[(snap_next + i) % snap_ring.size()]);
  }
  result.steady_state_entries_final = harness.ctrl->steady_state_entries();
  result.final_state_digest = final_state_digest(harness);
  result.sim_duration = last_completion;
  result.wall_ms = wall_ms;
  result.frames_sent = harness.total_frames();
  for (std::size_t s = 0; s < harness.ctrl->shard_count(); ++s)
    result.retired_xids += harness.ctrl->shard(s).engine().retired_xids();
  stats.plan_compiles = plan_cache.compiles();
  stats.plan_hits = plan_cache.hits();
  stats.plan_invalidations = plan_cache.invalidations();
  result.stats = std::move(stats);
  return result;
}

}  // namespace tsu::core
