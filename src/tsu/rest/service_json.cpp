#include "tsu/rest/service_json.hpp"

#include "tsu/json/json.hpp"

namespace tsu::rest {

namespace {

json::Value count(std::uint64_t n) {
  return json::Value(static_cast<std::int64_t>(n));
}

json::Value class_stats(const core::ServiceClassStats& stats) {
  json::Object obj;
  obj.set("arrivals", count(stats.arrivals));
  obj.set("accepted", count(stats.accepted));
  obj.set("rejected", count(stats.rejected));
  obj.set("submitted", count(stats.submitted));
  obj.set("completed", count(stats.completed));
  obj.set("throttled", count(stats.throttled));
  return json::Value(std::move(obj));
}

}  // namespace

std::string to_json(const core::ServiceSnapshot& snapshot) {
  json::Object root;
  root.set("at_ms", json::Value(static_cast<double>(snapshot.at) / 1e6));
  root.set("arrivals", count(snapshot.arrivals));
  root.set("accepted", count(snapshot.accepted));
  root.set("rejected", count(snapshot.rejected));
  root.set("submitted", count(snapshot.submitted));
  root.set("completed", count(snapshot.completed));
  root.set("pending", count(snapshot.pending));
  root.set("controller_depth", count(snapshot.controller_depth));
  root.set("steady_state_entries", count(snapshot.steady_state_entries));
  root.set("version_log_entries", count(snapshot.version_log_entries));
  root.set("plan_compiles", count(snapshot.plan_compiles));
  root.set("plan_hits", count(snapshot.plan_hits));
  root.set("plan_invalidations", count(snapshot.plan_invalidations));
  root.set("window_throughput_per_sec",
           json::Value(snapshot.window_throughput_per_sec));
  root.set("p50_duration_ms", json::Value(snapshot.p50_duration_ms));
  root.set("p99_duration_ms", json::Value(snapshot.p99_duration_ms));
  root.set("p50_wait_ms", json::Value(snapshot.p50_wait_ms));
  root.set("p99_wait_ms", json::Value(snapshot.p99_wait_ms));
  return json::write(json::Value(std::move(root)));
}

std::string to_json(const core::ServiceResult& result) {
  json::Object root;
  root.set("arrivals", count(result.stats.arrivals));
  root.set("accepted", count(result.stats.accepted));
  root.set("rejected", count(result.stats.rejected));
  root.set("submitted", count(result.stats.submitted));
  root.set("completed", count(result.stats.completed));
  root.set("aborted", count(result.stats.aborted));
  root.set("throttled", count(result.stats.throttled));
  root.set("peak_pending", count(result.stats.peak_pending));
  root.set("peak_controller_depth",
           count(result.stats.peak_controller_depth));
  root.set("plan_compiles", count(result.stats.plan_compiles));
  root.set("plan_hits", count(result.stats.plan_hits));
  root.set("plan_invalidations", count(result.stats.plan_invalidations));

  json::Array classes;
  for (const core::ServiceClassStats& stats : result.stats.by_class)
    classes.push_back(class_stats(stats));
  root.set("classes", json::Value(std::move(classes)));

  const controller::CompletionStats& done = result.completions;
  json::Object latency;
  latency.set("mean_duration_ms", json::Value(done.duration_ms.mean()));
  latency.set("p50_duration_ms",
              json::Value(done.duration_ns.quantile(0.5) / 1e6));
  latency.set("p99_duration_ms",
              json::Value(done.duration_ns.quantile(0.99) / 1e6));
  latency.set("mean_wait_ms", json::Value(done.wait_ms.mean()));
  latency.set("p50_wait_ms", json::Value(done.wait_ns.quantile(0.5) / 1e6));
  latency.set("p99_wait_ms", json::Value(done.wait_ns.quantile(0.99) / 1e6));
  root.set("latency", json::Value(std::move(latency)));

  root.set("flow_mods_sent", count(done.flow_mods_sent));
  root.set("barriers_sent", count(done.barriers_sent));
  root.set("rounds", count(done.rounds));
  root.set("sim_duration_ms",
           json::Value(static_cast<double>(result.sim_duration) / 1e6));
  root.set("sustained_per_sec", json::Value(result.sustained_per_sec()));
  root.set("steady_state_entries_final",
           count(result.steady_state_entries_final));
  root.set("retired_xids", count(result.retired_xids));
  root.set("frames_sent", count(result.frames_sent));
  if (result.traffic.total > 0) {
    json::Object traffic;
    traffic.set("total", count(result.traffic.total));
    traffic.set("delivered", count(result.traffic.delivered));
    traffic.set("blackholed", count(result.traffic.blackholed));
    traffic.set("looped", count(result.traffic.looped));
    traffic.set("bypassed", count(result.traffic.bypassed));
    root.set("traffic", json::Value(std::move(traffic)));
  }
  return json::write(json::Value(std::move(root)));
}

}  // namespace tsu::rest
