#include "tsu/dataplane/monitor.hpp"

#include <algorithm>
#include <sstream>

namespace tsu::dataplane {

const char* to_string(PacketOutcome outcome) noexcept {
  switch (outcome) {
    case PacketOutcome::kDelivered: return "delivered";
    case PacketOutcome::kBypassedWaypoint: return "bypassed-waypoint";
    case PacketOutcome::kLooped: return "looped";
    case PacketOutcome::kBlackholed: return "blackholed";
    case PacketOutcome::kTtlExpired: return "ttl-expired";
    case PacketOutcome::kFaultDropped: return "fault-dropped";
  }
  return "?";
}

double MonitorReport::violation_rate() const noexcept {
  if (total == 0) return 0;
  return static_cast<double>(bypassed + looped + blackholed + ttl_expired) /
         static_cast<double>(total);
}

double MonitorReport::bypass_rate() const noexcept {
  if (total == 0) return 0;
  return static_cast<double>(bypassed) / static_cast<double>(total);
}

std::string MonitorReport::to_string() const {
  std::ostringstream out;
  out << "packets=" << total << " delivered=" << delivered
      << " bypassed=" << bypassed << " looped=" << looped
      << " blackholed=" << blackholed << " ttl-expired=" << ttl_expired;
  if (fault_dropped != 0) out << " fault-dropped=" << fault_dropped;
  return out.str();
}

void ConsistencyMonitor::record(sim::SimTime at, PacketOutcome outcome,
                                std::size_t n, sim::Duration spacing) {
  if (n == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  report_.total += n;
  switch (outcome) {
    case PacketOutcome::kDelivered: report_.delivered += n; break;
    case PacketOutcome::kBypassedWaypoint: report_.bypassed += n; break;
    case PacketOutcome::kLooped: report_.looped += n; break;
    case PacketOutcome::kBlackholed: report_.blackholed += n; break;
    case PacketOutcome::kTtlExpired: report_.ttl_expired += n; break;
    case PacketOutcome::kFaultDropped: report_.fault_dropped += n; break;
  }
  // bucket_width == 0 disables the timeline: the open-loop service mode
  // runs unbounded sim horizons where a per-bucket vector would grow
  // without limit (and at / 0 would fault).
  if (bucket_width_ == 0) return;
  const sim::SimTime last = at + (n - 1) * spacing;
  const std::size_t last_bucket = static_cast<std::size_t>(last / bucket_width_);
  if (last_bucket >= timeline_.size()) timeline_.resize(last_bucket + 1);
  // Fault drops are outage, not a violation: no timeline column.
  if (outcome == PacketOutcome::kFaultDropped) return;
  std::size_t Bucket::*column = &Bucket::blackholed;
  switch (outcome) {
    case PacketOutcome::kDelivered: column = &Bucket::delivered; break;
    case PacketOutcome::kBypassedWaypoint: column = &Bucket::bypassed; break;
    case PacketOutcome::kLooped: column = &Bucket::looped; break;
    default: break;
  }
  const sim::Duration width = bucket_width_;
  if (spacing == 0) {
    timeline_[static_cast<std::size_t>(at / width)].*column += n;
    return;
  }
  if (spacing >= width) {
    // At most one packet per bucket: place each.
    for (std::size_t i = 0; i < n; ++i)
      timeline_[static_cast<std::size_t>((at + i * spacing) / width)].*
          column += 1;
    return;
  }
  // Several packets per bucket: each bucket's share at once, without a
  // division per bucket. With width = q * spacing + r and the bucket's
  // first packet `offset` into it (offset < spacing after the first
  // bucket), a full bucket holds q packets, plus one when offset < r.
  const sim::Duration q = width / spacing;
  const sim::Duration r = width % spacing;
  std::size_t bucket = static_cast<std::size_t>(at / width);
  sim::Duration offset = at - bucket * width;
  std::size_t share = static_cast<std::size_t>(
      (width - offset + spacing - 1) / spacing);
  for (std::size_t done = 0; done < n; ++bucket) {
    share = std::min(share, n - done);
    timeline_[bucket].*column += share;
    done += share;
    offset = offset + share * spacing - width;
    share = static_cast<std::size_t>(q + (offset < r ? 1 : 0));
  }
}

void ConsistencyMonitor::add_window(PacketOutcome outcome, sim::SimTime begin,
                                    sim::SimTime end) {
  if (bucket_width_ == 0 || begin >= end) return;
  if (outcome == PacketOutcome::kTtlExpired) outcome = PacketOutcome::kBlackholed;
  std::lock_guard<std::mutex> lock(mutex_);
  if (!windows_.empty() && windows_.back().outcome == outcome &&
      windows_.back().end == begin) {
    windows_.back().end = end;
    return;
  }
  windows_.push_back(Window{outcome, begin, end});
}

ConsistencyMonitor& MultiFlowMonitor::monitor(FlowId flow) {
  const auto it = flows_.find(flow);
  if (it != flows_.end()) return it->second;
  // try_emplace: ConsistencyMonitor owns a mutex and cannot be moved.
  return flows_.try_emplace(flow, bucket_width_).first->second;
}

const ConsistencyMonitor* MultiFlowMonitor::find(FlowId flow) const noexcept {
  const auto it = flows_.find(flow);
  return it == flows_.end() ? nullptr : &it->second;
}

MonitorReport MultiFlowMonitor::aggregate() const {
  MonitorReport sum;
  for (const auto& [flow, monitor] : flows_) {
    const MonitorReport& r = monitor.report();
    sum.total += r.total;
    sum.delivered += r.delivered;
    sum.bypassed += r.bypassed;
    sum.looped += r.looped;
    sum.blackholed += r.blackholed;
    sum.ttl_expired += r.ttl_expired;
    sum.fault_dropped += r.fault_dropped;
  }
  return sum;
}

std::string ConsistencyMonitor::timeline_to_string() const {
  std::ostringstream out;
  for (std::size_t i = 0; i < timeline_.size(); ++i) {
    const Bucket& b = timeline_[i];
    out << "[" << i << "] delivered=" << b.delivered;
    if (b.bypassed != 0) out << " BYPASSED=" << b.bypassed;
    if (b.looped != 0) out << " looped=" << b.looped;
    if (b.blackholed != 0) out << " dropped=" << b.blackholed;
    out << "\n";
  }
  return out.str();
}

}  // namespace tsu::dataplane
