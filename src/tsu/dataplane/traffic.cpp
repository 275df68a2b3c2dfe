#include "tsu/dataplane/traffic.hpp"

#include <algorithm>

#include "tsu/util/log.hpp"

namespace tsu::dataplane {

namespace {

using switchsim::Stamp;
using switchsim::TableHistory;

// Lookup order of two table-0 records: the FlowTable's own sort (priority
// desc, specificity desc, insertion order).
bool looks_up_before(const TableHistory::Record& a,
                     const TableHistory::Record& b) noexcept {
  if (a.rule.priority != b.rule.priority)
    return a.rule.priority > b.rule.priority;
  const int spec_a = a.rule.match.specificity();
  const int spec_b = b.rule.match.specificity();
  if (spec_a != spec_b) return spec_a > spec_b;
  return a.seq < b.seq;
}

// Whether native event `a` (lineage links from `i` on) was pushed before
// native event `b` (links from `k` on), both on one queue: push instants
// decide link by link; at equal instants, two pushes made outside any
// event go by sequence, one made outside precedes one made inside, and
// two made inside go by which of their pushers fired first - the next
// link. A chain tying beyond the recorded depth resolves as `a` first.
bool pushed_before(const sim::Lineage& a, std::uint8_t i,
                   const sim::Lineage& b, std::uint8_t k) noexcept {
  for (; i < sim::Lineage::kDepth && k < sim::Lineage::kDepth; ++i, ++k) {
    if (a.at[i] != b.at[k]) return a.at[i] < b.at[k];
    const bool a_outside = a.outside == i;
    const bool b_outside = b.outside == k;
    if (a_outside && b_outside) return a.outside_seq < b.outside_seq;
    if (a_outside != b_outside) return a_outside;
  }
  return true;
}

std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) noexcept {
  return a / b + (a % b != 0 ? 1 : 0);
}

}  // namespace

TrafficSource::TrafficSource(sim::Simulator& simulator,
                             std::vector<switchsim::SimSwitch*> switches,
                             TrafficConfig config, Rng rng,
                             ConsistencyMonitor& monitor)
    : home_sim_(&simulator), switches_(std::move(switches)), config_(config),
      rng_(rng), monitor_(monitor) {
  TSU_ASSERT(config_.ingress < switches_.size() &&
             switches_[config_.ingress] != nullptr);
  TSU_ASSERT(config_.egress < switches_.size() &&
             switches_[config_.egress] != nullptr);
  // The latency models alone pick the path (see the file comment).
  exact_ = config_.interarrival.kind == sim::LatencyKind::kConstant &&
           config_.link_latency.kind == sim::LatencyKind::kConstant;
  if (exact_) {
    gap_ = config_.interarrival.min_delay();
    link_ = config_.link_latency.min_delay();
    // Injection at +0 forever would never advance time (the executor and
    // the config parser reject it before it gets here).
    TSU_ASSERT_MSG(gap_ > 0, "constant traffic interarrival must be > 0");
    hop_remote_.assign(static_cast<std::size_t>(std::max(config_.ttl, 1)), 0);
    // Any switch may end up on a walk once rules go astray.
    for (switchsim::SimSwitch* sw : switches_)
      if (sw != nullptr) sw->record_history();
  }
}

TrafficSource::TrafficSource(sim::ShardedSim& group,
                             const topo::SwitchPartition& partition,
                             std::vector<switchsim::SimSwitch*> switches,
                             TrafficConfig config, Rng rng,
                             ConsistencyMonitor& monitor)
    : TrafficSource(group.shard(partition.shard_of(config.ingress)),
                    std::move(switches), config, rng, monitor) {
  group_ = &group;
  partition_ = &partition;
}

std::size_t TrafficSource::shard_of(NodeId node) const noexcept {
  return partition_ == nullptr ? 0 : partition_->shard_of(node);
}

sim::Simulator& TrafficSource::sim_of(NodeId node) {
  return group_ == nullptr ? *home_sim_ : group_->shard(shard_of(node));
}

void TrafficSource::start() {
  if (exact_) {
    cursor_ = config_.start;
    start_lineage_ = home_sim_->next_lineage();
    if (config_.stop == kNever) return;
    // Strictly after the last read of the last packet (injected before
    // stop, read at most ttl - 1 hops in): every change it could see has
    // happened by then.
    const sim::SimTime done =
        config_.stop +
        static_cast<sim::Duration>(std::max(config_.ttl, 1)) * link_;
    home_sim_->schedule_at(std::max(done, home_sim_->now()),
                           [this]() { settle(home_sim_->now()); });
    return;
  }
  // kLocal: injection reads source-local state and starts the packet on
  // the ingress switch, which lives on this very shard.
  home_sim_->schedule_at(config_.start, [this]() { inject(); },
                         sim::EventScope::kLocal);
}

void TrafficSource::set_stop(sim::SimTime stop) noexcept {
  config_.stop = stop;
  // A stop set at the very instant of an injection: the per-packet path
  // injected that packet iff its injection event fired first - by lineage
  // when this queue runs the current event, else by shard order (the
  // merger runs a lower shard's same-instant events first).
  if (!exact_ || stop != home_sim_->now() || stop < config_.start ||
      (stop - config_.start) % gap_ != 0)
    return;
  const std::uint64_t n = (stop - config_.start) / gap_;
  bool fired = false;
  if (const sim::Lineage* current = home_sim_->lineage()) {
    fired = !change_precedes(*current, n, 0);
  } else if (group_ != nullptr) {
    for (std::size_t s = 0; s < group_->shard_count(); ++s)
      if (group_->shard(s).lineage() != nullptr)
        fired = shard_of(config_.ingress) < s;
  }
  if (fired) config_.stop = stop + 1;
}

void TrafficSource::reset(Walker& walker) const {
  walker.packet = flow::Packet{};
  walker.packet.flow = config_.flow;
  walker.packet.src_host = config_.ingress;
  walker.packet.dst_host = config_.egress;
  walker.packet.ttl = config_.ttl;
  walker.visited.reset(switches_.size());
  walker.crossed_waypoint = false;
}

std::optional<PacketOutcome> TrafficSource::step(Walker& walker, NodeId at,
                                                 bool serving,
                                                 const flow::FlowRule* rule,
                                                 NodeId& next) const {
  if (config_.waypoint.has_value() && at == *config_.waypoint)
    walker.crossed_waypoint = true;

  // A crashed switch forwards nothing until its controller resync restores
  // it to service; traffic hitting it is outage loss, kept apart from the
  // consistency verdicts (fault injection only; always serving otherwise).
  if (!serving) return PacketOutcome::kFaultDropped;

  if (rule == nullptr || rule->action.kind == flow::ActionKind::kDrop)
    return PacketOutcome::kBlackholed;
  if (rule->action.kind == flow::ActionKind::kDeliver) {
    // Delivered to the wrong host: treat as a drop.
    if (at != config_.egress) return PacketOutcome::kBlackholed;
    return config_.waypoint.has_value() && !walker.crossed_waypoint
               ? PacketOutcome::kBypassedWaypoint
               : PacketOutcome::kDelivered;
  }

  // Forwarding.
  if (walker.visited.test(at)) return PacketOutcome::kLooped;
  walker.visited.set(at);
  if (--walker.packet.ttl <= 0) return PacketOutcome::kTtlExpired;
  next = rule->action.port;
  if (next >= switches_.size() || switches_[next] == nullptr)
    return PacketOutcome::kBlackholed;
  walker.packet.in_port = at;
  return std::nullopt;
}

// ------------------------------------------------------- per-packet path --

void TrafficSource::inject() {
  if (home_sim_->now() >= config_.stop) return;

  // Fork in injection order: the packet's latency stream is deterministic
  // however its hops later interleave with other packets'.
  LivePacket live(rng_.fork());
  reset(live.walker);
  ++injected_;
  in_flight_.fetch_add(1, std::memory_order_relaxed);
  hop(std::move(live), config_.ingress);

  home_sim_->schedule(config_.interarrival.sample(rng_),
                      [this]() { inject(); }, sim::EventScope::kLocal);
}

void TrafficSource::hop(LivePacket live, NodeId at) {
  TSU_ASSERT(at < switches_.size() && switches_[at] != nullptr);
  sim::Simulator& here = sim_of(at);

  // Look up the live flow table *now*; the rule may have changed since the
  // previous hop - that is the whole point of the experiment.
  const switchsim::SimSwitch& sw = *switches_[at];
  std::optional<flow::FlowRule> rule;
  if (sw.serving()) rule = sw.table().lookup(live.walker.packet);
  NodeId next = kInvalidNode;
  if (const std::optional<PacketOutcome> outcome =
          step(live.walker, at, sw.serving(), rule ? &*rule : nullptr, next)) {
    finish(*outcome, here.now());
    return;
  }

  const sim::Duration latency = config_.link_latency.sample(live.rng);
  const std::size_t here_shard = shard_of(at);
  const std::size_t next_shard = shard_of(next);
  auto next_hop = [this, live = std::move(live), next]() mutable {
    hop(std::move(live), next);
  };
  // The hop closure is THE hot-path event: it must stay within the event
  // fabric's inline buffer or every forwarded packet allocates again.
  static_assert(sim::EventFn::fits_inline<decltype(next_hop)>(),
                "hop closure outgrew the inline event buffer");
  if (group_ == nullptr || next_shard == here_shard) {
    // kLocal: the hop reads only `next`'s tables, owned by this shard.
    here.schedule(latency, std::move(next_hop), sim::EventScope::kLocal);
  } else {
    // Cross-shard hand-off: into the owner's mailbox, never into its
    // queue mid-step (see sim/sharded.hpp).
    group_->post(next_shard, here_shard, here.now() + latency,
                 std::move(next_hop));
  }
}

void TrafficSource::finish(PacketOutcome outcome, sim::SimTime at) {
  in_flight_.fetch_sub(1, std::memory_order_relaxed);
  monitor_.record(at, outcome);
}

// ------------------------------------------------------ exact evaluator --

bool TrafficSource::change_precedes(const sim::Lineage& change,
                                    std::uint64_t grid,
                                    std::size_t hop) const {
  // The read is a virtual event: hop event V_hop (hop >= 1), pushed by
  // V_hop-1 one link latency earlier, down to the injection event I_grid
  // that performs the ingress read and pushes V_1; I_p is pushed by I_p-1
  // one interarrival earlier, and I_0 by start(). Walk the change's
  // lineage against that chain link by link.
  const sim::SimTime injected = injection_at(grid);
  std::uint8_t link = 0;
  for (;; ++link) {
    sim::SimTime pushed;
    if (hop >= 1) {
      // The remote band fires after every native event of its instant.
      if (hop_remote_[hop] != 0) return true;
      pushed = injected + (hop - 1) * link_;
      --hop;
    } else {
      if (grid == 0) return pushed_before(change, link, start_lineage_, 0);
      pushed = injection_at(grid - 1);
      --grid;
    }
    if (link >= sim::Lineage::kDepth) return true;
    if (change.at[link] != pushed) return change.at[link] < pushed;
    // Pushed at the same instant: from outside any event, the change came
    // first; otherwise its pusher and the read's race one link further.
    if (change.outside == link) return true;
  }
}

bool TrafficSource::sees(const Stamp& change, sim::SimTime read,
                         const std::uint64_t* grid, std::size_t hop) const {
  if (change.at != read) return change.at < read;
  if (grid == nullptr || !change.in_event) return true;
  return change_precedes(change.lineage, *grid, hop);
}

TrafficSource::Walk TrafficSource::walk(sim::SimTime t,
                                        const std::uint64_t* grid) {
  Walker& walker = scratch_;
  reset(walker);
  Walk result;
  // Track the earliest change after a read, as an injection instant.
  const auto bound_by = [&](sim::SimTime change, sim::SimTime read,
                            sim::Duration offset) {
    if (grid == nullptr && change > read)
      result.bound = std::min(result.bound, change - offset);
  };
  NodeId at = config_.ingress;
  for (std::size_t k = 0;; ++k) {
    const sim::Duration offset = k * link_;
    const sim::SimTime read = t + offset;
    hop_remote_[k] = k > 0 && shard_of(at) != shard_of(walker.packet.in_port);
    const TableHistory& history = switches_[at]->history();

    bool serving = history.serving_before();
    for (const TableHistory::ServingChange& change :
         history.serving_changes()) {
      if (!sees(change.stamp, read, grid, k)) {
        bound_by(change.stamp.at, read, offset);
        break;
      }
      serving = change.serving;
    }

    const TableHistory::Record* best = nullptr;
    const auto consider = [&](const std::vector<TableHistory::Record>& all) {
      for (const TableHistory::Record& record : all) {
        bound_by(record.born.at, read, offset);
        if (record.died.at != Stamp::kNever)
          bound_by(record.died.at, read, offset);
        if (!sees(record.born, read, grid, k) ||
            sees(record.died, read, grid, k))
          continue;
        if (!record.rule.match.matches(walker.packet)) continue;
        if (best == nullptr || looks_up_before(record, *best)) best = &record;
      }
    };
    if (const auto* own = history.flow_records(config_.flow)) consider(*own);
    consider(history.any_flow_records());

    NodeId next = kInvalidNode;
    if (const std::optional<PacketOutcome> outcome =
            step(walker, at, serving, best ? &best->rule : nullptr, next)) {
      result.outcome = *outcome;
      result.last_hop = k;
      return result;
    }
    at = next;
  }
}

std::uint64_t TrafficSource::first_injection_from(
    sim::SimTime t) const noexcept {
  return t <= config_.start ? 0 : ceil_div(t - config_.start, gap_);
}

void TrafficSource::count(PacketOutcome outcome, std::size_t last_hop,
                          std::uint64_t n0, std::uint64_t n1) {
  if (n1 <= n0) return;
  injected_ += n1 - n0;
  // Finish times step by I from the first packet's.
  monitor_.record(injection_at(n0) + last_hop * link_, outcome, n1 - n0,
                  gap_);
}

void TrafficSource::settle(sim::SimTime horizon) {
  if (!exact_) return;
  TSU_ASSERT_MSG(horizon != kNever || config_.stop != kNever,
                 "settling everything needs a stop time");
  while (cursor_ < config_.stop && cursor_ < horizon) {
    // One segment: every injection in [cursor_, end) walks the same path
    // through the same versions, except that an injection exactly at
    // cursor_ may tie with the change that opened the segment.
    const Walk segment = walk(cursor_, nullptr);
    const sim::Duration span = segment.last_hop * link_;
    if (span >= horizon - cursor_) break;  // its last read is not final yet
    const sim::SimTime end =
        std::min({segment.bound, config_.stop, horizon - span});
    std::uint64_t n = first_injection_from(cursor_);
    if (injection_at(n) == cursor_) {
      const Walk tie = walk(cursor_, &n);
      if (tie.last_hop * link_ >= horizon - cursor_) break;
      count(tie.outcome, tie.last_hop, n, n + 1);
      ++n;
    }
    count(segment.outcome, segment.last_hop, n, first_injection_from(end));
    if (segment.outcome != PacketOutcome::kDelivered &&
        segment.outcome != PacketOutcome::kFaultDropped)
      monitor_.add_window(segment.outcome, cursor_, end);
    cursor_ = end;
  }
}

}  // namespace tsu::dataplane
