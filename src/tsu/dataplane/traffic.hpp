// Data-plane traffic: a host injects packets while the update is running;
// each packet walks switch-to-switch against the *live* flow tables (which
// mutate underneath it as FlowMods complete), so transient inconsistencies
// show up exactly as they would in the Mininet demo: loops, drops, and
// packets that slip past the waypoint.
//
// A packet injected at t reads switch k of its walk at t + k*L. The latency
// models alone decide how walks are run - there is no other switch:
//
// * EXACT EVALUATOR - interarrival I and link latency L both constant
//   (every experiment, test and bench in the tree). No event is scheduled
//   per packet. Table 0 and serving() change only at logged instants
//   (switchsim/history.hpp), so a walk's outcome is constant in t between
//   breakpoints c - k*L. settle() sweeps injection time segment by
//   segment, walks once per segment against the version logs, and counts
//   the segment's injections and their per-bucket finish times into the
//   monitor arithmetically. The same sweep yields the exact violation
//   windows over continuous injection time (ConsistencyMonitor::windows()),
//   which the I-spaced injections can miss.
// * PER-PACKET PATH - any other model. One event per injection and per hop;
//   each packet carries its own forked Rng for link-latency sampling, so
//   samples depend only on the packet's own hop sequence, never on how
//   concurrently flying packets interleave (parallel runs stay
//   bit-identical to sequential ones). It is also the reference the
//   equivalence tests hold the evaluator to: degenerate uniform models
//   (lo == hi) take it with constant timing.
//
// Both paths run the same walk step (step()). The evaluator reproduces the
// per-packet path's same-instant visibility rule: a read at the instant of
// a table or serving change sees the change iff the change's event fires
// before the hop event under the event queue's FIFO tie-break. That is
// decided from the change's scheduling lineage against the hop's
// (sim/event_queue.hpp Lineage): a hop scheduled by the previous hop L
// earlier, the ingress read inside the injection event scheduled I earlier.
// A hop onto a switch of another shard arrives through the remote band and
// sees every same-instant change.
//
// SHARDED OPERATION (per-packet path). Constructed over a ShardedSim +
// SwitchPartition, every hop event executes on the event queue of the
// shard OWNING the switch it reads, so a hop only ever touches shard-local
// flow tables - the invariant that lets parallel epochs run hops
// concurrently. A hop whose next switch lives on a foreign shard hands the
// packet off through the group's per-shard mailbox (ShardedSim::post). The
// evaluator posts nothing: it reads every switch's log at sync points.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <vector>

#include "tsu/dataplane/monitor.hpp"
#include "tsu/flow/match.hpp"
#include "tsu/sim/distributions.hpp"
#include "tsu/sim/sharded.hpp"
#include "tsu/sim/simulator.hpp"
#include "tsu/switchsim/switch.hpp"
#include "tsu/topo/partition.hpp"
#include "tsu/util/ids.hpp"
#include "tsu/util/rng.hpp"

namespace tsu::dataplane {

struct TrafficConfig {
  FlowId flow = 1;
  NodeId ingress = kInvalidNode;       // switch attached to the source host
  NodeId egress = kInvalidNode;        // switch attached to the dest host
  std::optional<NodeId> waypoint;      // security middlebox to enforce
  sim::LatencyModel interarrival =
      sim::LatencyModel::constant(sim::microseconds(200));
  sim::LatencyModel link_latency =
      sim::LatencyModel::constant(sim::microseconds(50));
  int ttl = 64;
  sim::SimTime start = 0;
  sim::SimTime stop = 0;  // no packet injected at/after this time
};

class TrafficSource {
 public:
  static constexpr sim::SimTime kNever =
      std::numeric_limits<sim::SimTime>::max();

  // Single-queue operation: everything runs on `simulator`.
  // `switches` is indexed by NodeId; entries may be null for non-switch ids.
  TrafficSource(sim::Simulator& simulator,
                std::vector<switchsim::SimSwitch*> switches,
                TrafficConfig config, Rng rng, ConsistencyMonitor& monitor);

  // Sharded operation (see the file comment): injection lives on the
  // ingress switch's shard; hops follow the packet across shard queues.
  // `partition` must outlive the source.
  TrafficSource(sim::ShardedSim& group, const topo::SwitchPartition& partition,
                std::vector<switchsim::SimSwitch*> switches,
                TrafficConfig config, Rng rng, ConsistencyMonitor& monitor);

  // Per-packet path: schedules the first injection; the source then
  // self-perpetuates until `config.stop`. Exact evaluator: marks the start
  // of injection and, when `config.stop` is already known, schedules one
  // event after the last packet's last hop that settles everything.
  void start();

  // Exact evaluator: counts every injection not counted yet whose walk
  // read its last switch before `horizon`. Call only where no shard is
  // mid-epoch (it reads every switch's version log); with horizon kNever
  // the stop time must be known. No-op on the per-packet path.
  void settle(sim::SimTime horizon);
  // Injection instant from which nothing is settled yet: no read by a
  // packet still to be counted happens before it (the version logs'
  // prune horizon).
  sim::SimTime settled() const noexcept { return cursor_; }
  bool exact() const noexcept { return exact_; }

  // Packets injected (exact evaluator: counted by settle()).
  std::size_t injected() const noexcept { return injected_; }
  // Packets still traversing the network (always 0 for the evaluator).
  std::size_t in_flight() const noexcept {
    return in_flight_.load(std::memory_order_relaxed);
  }

  // Moves the injection stop time (e.g. once the update under observation
  // has completed and the drain window is known). Only safe at a sync
  // point (the executor calls it from update-completion handlers, which
  // are kShared events): injection reads it from inside parallel epochs.
  void set_stop(sim::SimTime stop) noexcept;

 private:
  // Loop-detection bitmap sized by switch count. Topologies up to
  // kInlineBits switches (every current experiment) live entirely inline,
  // so a LivePacket - and the hop closure carrying it - needs no heap at
  // all; larger topologies fall back to one vector per packet (the
  // evaluator reuses one set, so it never allocates per walk).
  class VisitedSet {
   public:
    static constexpr std::size_t kInlineBits = 512;

    void reset(std::size_t size) {
      if (size > kInlineBits) {
        overflow_.assign((size + 63) / 64, 0);
      } else {
        overflow_.clear();
        bits_.fill(0);
      }
    }
    bool test(std::size_t i) const noexcept {
      return (words()[i >> 6] >> (i & 63) & 1) != 0;
    }
    void set(std::size_t i) noexcept {
      words()[i >> 6] |= std::uint64_t{1} << (i & 63);
    }

   private:
    const std::uint64_t* words() const noexcept {
      return overflow_.empty() ? bits_.data() : overflow_.data();
    }
    std::uint64_t* words() noexcept {
      return overflow_.empty() ? bits_.data() : overflow_.data();
    }
    std::array<std::uint64_t, kInlineBits / 64> bits_{};
    std::vector<std::uint64_t> overflow_;
  };

  // What a packet carries from switch to switch, on either path.
  struct Walker {
    flow::Packet packet;
    VisitedSet visited;
    bool crossed_waypoint = false;
  };

  struct LivePacket {
    Walker walker;
    // Per-packet latency stream (see the file comment).
    Rng rng;
    explicit LivePacket(Rng packet_rng) : rng(packet_rng) {}
  };

  // One evaluated walk: its outcome, the index of the switch it ended at,
  // and (for a walk without a grid index) the first later injection
  // instant whose walk may read a different version somewhere.
  struct Walk {
    PacketOutcome outcome = PacketOutcome::kDelivered;
    std::size_t last_hop = 0;
    sim::SimTime bound = kNever;
  };

  // The event queue owning switch `node` (home_sim_ when unsharded).
  sim::Simulator& sim_of(NodeId node);
  std::size_t shard_of(NodeId node) const noexcept;

  void reset(Walker& walker) const;
  // The walk step both paths share: what switch `at` does with the
  // packet, given whether it serves and the table-0 rule the packet
  // matched there (null on a miss). Returns the packet's outcome, or
  // nullopt with `next` set when the packet is forwarded on.
  std::optional<PacketOutcome> step(Walker& walker, NodeId at, bool serving,
                                    const flow::FlowRule* rule,
                                    NodeId& next) const;

  // Per-packet path.
  void inject();
  // Runs on the queue of `at`'s owning shard.
  void hop(LivePacket live, NodeId at);
  void finish(PacketOutcome outcome, sim::SimTime at);

  // Exact evaluator. `grid` null: the walk of an injection at `t` that
  // sees every change at or before each read instant, plus its bound.
  // `grid` set: the walk of injection number *grid (t == its instant)
  // under the FIFO same-instant rule.
  Walk walk(sim::SimTime t, const std::uint64_t* grid);
  bool sees(const switchsim::Stamp& change, sim::SimTime read,
            const std::uint64_t* grid, std::size_t hop) const;
  bool change_precedes(const sim::Lineage& change, std::uint64_t grid,
                       std::size_t hop) const;
  sim::SimTime injection_at(std::uint64_t n) const noexcept {
    return config_.start + n * gap_;
  }
  std::uint64_t first_injection_from(sim::SimTime t) const noexcept;
  // Counts injections [n0, n1), all ending `last_hop` hops in with
  // `outcome`, into the monitor.
  void count(PacketOutcome outcome, std::size_t last_hop, std::uint64_t n0,
             std::uint64_t n1);

  sim::Simulator* home_sim_;                       // ingress shard's queue
  sim::ShardedSim* group_ = nullptr;               // null when unsharded
  const topo::SwitchPartition* partition_ = nullptr;
  std::vector<switchsim::SimSwitch*> switches_;
  TrafficConfig config_;
  Rng rng_;
  ConsistencyMonitor& monitor_;
  std::size_t injected_ = 0;
  // Decremented by whichever shard finishes the packet.
  std::atomic<std::size_t> in_flight_{0};

  // Exact evaluator state.
  bool exact_ = false;
  sim::Duration gap_ = 0;   // I
  sim::Duration link_ = 0;  // L
  sim::SimTime cursor_ = 0;
  // The lineage the first injection event would have carried.
  sim::Lineage start_lineage_;
  Walker scratch_;
  // hop_remote_[k]: hop k of the walk being evaluated crossed shards.
  std::vector<std::uint8_t> hop_remote_;
};

}  // namespace tsu::dataplane
