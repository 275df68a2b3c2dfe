// Consistency monitor: classifies every data-plane packet that traversed
// the network during an update and aggregates violations over time.
//
// The security property of the paper is judged here: a packet that reaches
// the destination host without having crossed the waypoint switch is a
// *waypoint bypass* - the event WayUp exists to prevent.
//
// Counts come from two recorders (dataplane/traffic.hpp): the exact
// evaluator records whole runs of packets per call at sync points, and
// the per-packet path records one packet per finished walk - from several
// shard workers at once under the parallel engine, which is what the
// mutex is for. The exact evaluator also reports violation WINDOWS: the
// half-open spans of injection time whose packets would bypass, loop or
// blackhole, over continuous time rather than the injection grid.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "tsu/sim/time.hpp"
#include "tsu/util/ids.hpp"

namespace tsu::dataplane {

enum class PacketOutcome : unsigned char {
  kDelivered,         // reached destination, waypoint ok (or no waypoint)
  kBypassedWaypoint,  // reached destination *around* the waypoint
  kLooped,            // revisited a switch
  kBlackholed,        // no matching rule / explicit drop
  kTtlExpired,        // ran out of TTL without revisiting (long detour)
  kFaultDropped,      // arrived at a switch taken down by fault injection
};

const char* to_string(PacketOutcome outcome) noexcept;

struct MonitorReport {
  std::size_t total = 0;
  std::size_t delivered = 0;
  std::size_t bypassed = 0;
  std::size_t looped = 0;
  std::size_t blackholed = 0;
  std::size_t ttl_expired = 0;
  // Packets that hit a crashed (non-serving) switch. Deliberately excluded
  // from violation_rate(): losing traffic at a dead switch is outage, not
  // an inconsistency - a correct fault run keeps blackholed == 0 while
  // fault_dropped counts the crash's collateral.
  std::size_t fault_dropped = 0;

  // Fraction of packets violating any transient property.
  double violation_rate() const noexcept;
  // Fraction of packets violating the *security* property (bypass).
  double bypass_rate() const noexcept;
  std::string to_string() const;
};

class ConsistencyMonitor {
 public:
  // bucket_width = 0 disables the per-bucket timeline (aggregate counts
  // only) - required for open-loop runs whose timeline would otherwise
  // grow with the sim horizon.
  explicit ConsistencyMonitor(sim::Duration bucket_width =
                                  sim::milliseconds(1))
      : bucket_width_(bucket_width) {}

  // Records `n` packets with `outcome` finishing at `at`, at + spacing,
  // at + 2 * spacing, ... (all at `at` when spacing is 0). Thread-safe and
  // commutative: on the per-packet path under the parallel sharded engine
  // a flow's packets finish on whichever shard owns their last switch, so
  // concurrent epochs may record from several workers. Every count and
  // timeline bucket is a pure accumulator keyed by the simulation
  // timestamp, so the final report is independent of record() call order -
  // which is what keeps parallel runs bit-identical to sequential ones.
  void record(sim::SimTime at, PacketOutcome outcome, std::size_t n = 1,
              sim::Duration spacing = 0);

  // Injection times [begin, end) whose packets violate a property:
  // outcome is kBypassedWaypoint, kLooped or kBlackholed (TTL expiry
  // counts as a blackhole, as in the timeline). Kept like the timeline -
  // only when bucket_width > 0 - and only the exact evaluator adds them.
  struct Window {
    PacketOutcome outcome = PacketOutcome::kBlackholed;
    sim::SimTime begin = 0;
    sim::SimTime end = 0;
  };
  // Appends a window, merging it into the last one when they touch and
  // agree. Called in injection-time order per monitor.
  void add_window(PacketOutcome outcome, sim::SimTime begin, sim::SimTime end);
  const std::vector<Window>& windows() const noexcept { return windows_; }

  // Readers are only safe once the simulation has quiesced (the executor
  // reads after run()); they are not synchronized against record().
  const MonitorReport& report() const noexcept { return report_; }

  struct Bucket {
    std::size_t delivered = 0;
    std::size_t bypassed = 0;
    std::size_t looped = 0;
    std::size_t blackholed = 0;
  };
  // Outcome counts per bucket_width window since t=0 (index = t / width).
  const std::vector<Bucket>& timeline() const noexcept { return timeline_; }
  // Hands the timeline over (the monitor keeps an empty one): how a
  // finished run moves it into its result without a copy.
  std::vector<Bucket> take_timeline() noexcept { return std::move(timeline_); }
  sim::Duration bucket_width() const noexcept { return bucket_width_; }

  // Renders the per-bucket bypass/loop counts as a compact text timeline.
  std::string timeline_to_string() const;

 private:
  sim::Duration bucket_width_;
  std::mutex mutex_;  // guards record() against concurrent shard workers
  MonitorReport report_;
  std::vector<Bucket> timeline_;
  std::vector<Window> windows_;
};

// Per-flow consistency monitors for a concurrent multi-flow run: every
// in-flight update gets its own ConsistencyMonitor (stable references, so
// traffic sources can hold them across the run) plus an aggregate view over
// all flows observed simultaneously.
class MultiFlowMonitor {
 public:
  explicit MultiFlowMonitor(sim::Duration bucket_width =
                                sim::milliseconds(1))
      : bucket_width_(bucket_width) {}

  // The monitor watching `flow`; created on first use.
  ConsistencyMonitor& monitor(FlowId flow);
  const ConsistencyMonitor* find(FlowId flow) const noexcept;

  const std::map<FlowId, ConsistencyMonitor>& flows() const noexcept {
    return flows_;
  }
  std::size_t flow_count() const noexcept { return flows_.size(); }

  // Outcome counts summed across every flow.
  MonitorReport aggregate() const;

 private:
  sim::Duration bucket_width_;
  std::map<FlowId, ConsistencyMonitor> flows_;
};

}  // namespace tsu::dataplane
