// tsubench: the repository's end-to-end benchmark.
//
//   tsubench --workload <closed_dataplane|service_control|rollout_shared>
//            --seed <n> --seconds <s> --trace <0|1>
//            [--expect-digest <hex>] [--spans <path>]
//
// Normally started through tsubench/run.py, which builds this binary (and
// its traced twin) from source first. Each workload generates its inputs
// from --seed, sets up (several times, reporting the median), then repeats
// its timed phase until --seconds have passed and reports low quantiles of
// the repeated host timings (see kIterationQuantile). Sim-time metrics are
// deterministic per seed; host-time metrics are steady-clock.
//
// --trace 0 prints the end-to-end metrics. --trace 1 (tsubench_traced
// only) alternates untraced and traced iterations, replays the workload's
// own lowered requests through the public layer functions, and prints the
// per-layer metrics; spans go to --spans as Chrome trace-event JSON.
//
// Every correctness check prints a "check:" line; any failure makes the
// result's "correct" false and the exit code 1. The last stdout line is
// the result JSON: {"correct", "attempted", "failed", "metrics"}.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "spans.hpp"
#include "tsu/controller/shard.hpp"
#include "tsu/controller/update_request.hpp"
#include "tsu/core/executor.hpp"
#include "tsu/core/planner.hpp"
#include "tsu/core/service.hpp"
#include "tsu/proto/apply.hpp"
#include "tsu/proto/codec.hpp"
#include "tsu/rest/service_json.hpp"
#include "tsu/stats/summary.hpp"
#include "tsu/topo/arrivals.hpp"
#include "tsu/topo/instances.hpp"
#include "tsu/verify/checker.hpp"

#ifdef TSUBENCH_TRACED
#include "tsu/util/alloc_hooks.hpp"
#endif

namespace tsubench {
namespace {

using namespace tsu;

// Set-up is repeated this many times per run; setup_s is the median.
constexpr std::size_t kSetupReps = 15;
// Traffic-off executions in the traced closed_dataplane run.
constexpr int kTrafficOffReps = 5;
// Replays repeat over the workload's requests until at least this many
// messages (codec) or mods (apply) were timed, and a tenth as many
// requests lowered, so the small service template pool still gives a
// stable per-operation figure.
constexpr std::size_t kMinReplayOps = 200000;
// Host times of repeated, identical work are reported as a low quantile of
// their samples, not as the median. On a shared host the program slows by
// up to ~1.7x for tens of milliseconds to seconds at a time while
// neighbours load the shared caches, and how much of a run falls into such
// stretches varies from run to run; a low quantile reads the program's own
// cost. Timed-phase iterations (wall_us_per_update):
constexpr double kIterationQuantile = 0.25;
// Plan + check samples of one instance, one per pass over the instances:
constexpr double kPlanQuantile = 0.1;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::optional<std::uint64_t> expect_digest;
  std::string spans_path;
};

struct Metric {
  std::string name;
  double value = 0;
  const char* unit = "";
};

std::uint64_t allocations() {
#ifdef TSUBENCH_TRACED
  return alloc_hooks::allocations();
#else
  return 0;
#endif
}

double quantile(const std::vector<double>& xs, double q) {
  if (xs.empty()) return 0;
  stats::Percentiles p;
  p.add_all(xs);
  return p.quantile(q);
}

double median(const std::vector<double>& xs) { return quantile(xs, 0.5); }

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0;
  double sum = 0;
  for (const double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// A fixed integer loop of about a quarter millisecond; it runs no tsu code.
double probe_ns() {
  const std::int64_t start = SpanRecorder::now_ns();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 200000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  asm volatile("" : : "r"(x));  // keep the loop
  return static_cast<double>(SpanRecorder::now_ns() - start);
}

// Pins the process to the CPU of `allowed` that runs the probe fastest
// right now and returns it (-1 if none could be pinned). On a shared
// virtual machine a single vCPU can slow down by 25-40% for seconds at a
// time while another tenant loads its host core; choosing before every
// iteration keeps the timed work off such a core. The probe runs no tsu
// code, so no change to the program can sway the choice.
int move_to_quietest_cpu(const cpu_set_t& allowed) {
  int best = -1;
  double best_ns = std::numeric_limits<double>::infinity();
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof one, &one) != 0) continue;
    const double ns = std::min({probe_ns(), probe_ns(), probe_ns()});
    if (ns < best_ns) {
      best_ns = ns;
      best = cpu;
    }
  }
  if (best >= 0) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(best, &one);
    if (sched_setaffinity(0, sizeof one, &one) != 0) best = -1;
  }
  return best;
}

// One benchmark run: options, the span recorder, the metrics and checks
// gathered so far, and the attempted/failed operation counts.
struct Run {
  explicit Run(const Options& o) : opt(o), rec(o.trace) {
    CPU_ZERO(&cpus);
    sched_getaffinity(0, sizeof cpus, &cpus);
  }

  const Options& opt;
  SpanRecorder rec;
  cpu_set_t cpus;  // the CPUs the process may use, read at start
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  // Deterministic outputs (digests, counts) for the determinism test.
  std::vector<std::pair<std::string, std::uint64_t>> detail;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  // Peak RSS after set-up and the first iteration: what one execution of
  // the workload needs. Later iterations free everything they allocate,
  // yet the allocator's heap can keep growing with the iteration count.
  double first_iteration_rss_mb = 0;

  void e2e(const char* name, double value, const char* unit) {
    end_to_end.push_back(Metric{name, value, unit});
  }
  void layer(const char* name, double value, const char* unit) {
    per_layer.push_back(Metric{name, value, unit});
  }
  void check(bool ok, const std::string& what) {
    std::printf("check: %s: %s\n", what.c_str(), ok ? "ok" : "FAILED");
    if (!ok) failures.push_back(what);
  }
};

// Repeats `iteration(traced)` while another iteration of the mean length
// still fits in opt.seconds (at least once per arm). The traced run
// alternates untraced and traced iterations, so trace.overhead_share
// compares the same work with and without spans. The workload has set up
// once before the loop; `set_up_again` repeats set-up before each later
// iteration (and after the loop, up to kSetupReps in all), so set-up
// timings sample the same stretch of time as the iterations. Every
// iteration and set-up starts on the CPU that is quietest at that moment.
void timed_loop(Run& run, const std::function<void(bool)>& iteration,
                const std::function<void()>& set_up_again) {
  const std::int64_t start = SpanRecorder::now_ns();
  std::size_t counts[2] = {0, 0};
  std::size_t setups = 1;
  const auto set_up = [&]() {
    run.rec.set_enabled(run.opt.trace);
    run.rec.set_run(0);
    set_up_again();
    ++setups;
  };
  for (std::uint32_t i = 0;; ++i) {
    const int cpu = move_to_quietest_cpu(run.cpus);
    if (i > 0 && setups < kSetupReps) set_up();
    const bool traced = run.opt.trace && (i % 2 == 1);
    run.rec.set_enabled(traced);
    run.rec.set_run(i + 1);
    const std::int64_t begin = SpanRecorder::now_ns();
    iteration(traced);
    const std::int64_t end = SpanRecorder::now_ns();
    std::printf("iteration %u%s: %.3f ms on cpu %d\n", i + 1,
                traced ? " (traced)" : "",
                static_cast<double>(end - begin) / 1e6, cpu);
    ++counts[traced ? 1 : 0];
    if (i == 0) run.first_iteration_rss_mb = peak_rss_mb();
    const double elapsed =
        static_cast<double>(SpanRecorder::now_ns() - start) / 1e9;
    const double next = elapsed + elapsed / (i + 1);
    if (next > run.opt.seconds && counts[0] > 0 &&
        (!run.opt.trace || counts[1] > 0))
      break;
  }
  while (setups < kSetupReps) {
    move_to_quietest_cpu(run.cpus);
    set_up();
  }
  run.rec.set_enabled(run.opt.trace);
  run.rec.set_run(0);
}

// Set-up timings of one run: total per repetition and the
// input-generation part of it.
struct SetupStats {
  std::vector<double> seconds;
  std::vector<double> generate_ms;
};

// ----------------------------------------------------------- plan + check

struct PlanStats {
  std::vector<double> plan_check_us;  // per instance, plan + check
  std::size_t instances = 0;
  std::size_t plan_errors = 0;
  std::size_t rejected = 0;
  std::size_t rounds = 0;
  std::size_t states_checked = 0;
  std::size_t exhaustive = 0;
};

// Plans every instance with `algorithm` (planner verification off) and
// model-checks the result against the algorithm's own property. Failed
// plans and rejected schedules are left out of `plans` (and counted).
void plan_and_check(Run& run, const std::vector<update::Instance>& instances,
                    core::Algorithm algorithm,
                    std::vector<const update::Instance*>& planned,
                    std::vector<update::Schedule>& plans, PlanStats& stats) {
  planned.clear();
  plans.clear();
  plans.reserve(instances.size());
  for (const update::Instance& inst : instances) {
    ++stats.instances;
    SpanRecorder::Scope plan_span(run.rec, "update.plan");
    Result<core::PlanOutcome> outcome = core::plan(inst, algorithm);
    const double plan_ns = plan_span.close();
    if (!outcome.ok()) {
      ++stats.plan_errors;
      continue;
    }
    update::Schedule schedule = std::move(outcome.value().schedule);
    SpanRecorder::Scope check_span(run.rec, "verify.check");
    const verify::CheckReport report = verify::check_schedule(
        inst, schedule,
        core::default_property(algorithm, inst.has_waypoint()));
    const double check_ns = check_span.close();
    stats.plan_check_us.push_back((plan_ns + check_ns) / 1e3);
    stats.states_checked += report.states_checked;
    if (report.exhaustive) ++stats.exhaustive;
    if (!report.ok) {
      ++stats.rejected;
      continue;
    }
    stats.rounds += schedule.round_count();
    planned.push_back(&inst);
    plans.push_back(std::move(schedule));
  }
}

void report_plan_checks(Run& run, const PlanStats& stats) {
  run.check(stats.plan_errors == 0,
            "every instance planned (" + std::to_string(stats.plan_errors) +
                " planner errors)");
  run.check(stats.rejected == 0,
            "every schedule passes check_schedule (" +
                std::to_string(stats.rejected) + " rejected)");
}

// Each instance's plan + check time: the kPlanQuantile of its samples.
// `us` holds one time per instance for every pass, in instance order.
// plan_p50_us and plan_mean_us are the median and mean of these.
std::vector<double> per_instance_us(const std::vector<double>& us,
                                    std::size_t instances) {
  std::vector<double> out;
  std::vector<double> samples;
  for (std::size_t i = 0; i < instances; ++i) {
    samples.clear();
    for (std::size_t j = i; j < us.size(); j += instances)
      samples.push_back(us[j]);
    out.push_back(quantile(samples, kPlanQuantile));
  }
  return out;
}

// Host plan + check samples of a pool workload's instances. Set-up plans
// each instance once, cache-cold, in ~3 us: a few short samples that
// mostly read whether the set-up fell into a slow stretch of the host. So
// after each repeated set-up (not the first, which peak_rss_mb covers),
// outside its timing and with spans off, the instances are re-planned
// warm `passes` times.
struct WarmPlans {
  std::size_t instances = 0;
  std::vector<double> us;  // every warm pass, one time per instance
  bool ok = true;          // every re-plan succeeded

  void add(Run& run, const std::vector<update::Instance>& pool,
           core::Algorithm algorithm, std::size_t passes) {
    instances = pool.size();
    // One block for the whole run, so the samples never move and stay
    // out of the heap the workload itself allocates from.
    if (us.empty()) us.reserve(kSetupReps * passes * instances);
    const bool tracing = run.rec.enabled();
    run.rec.set_enabled(false);
    std::vector<const update::Instance*> planned;
    std::vector<update::Schedule> plans;
    for (std::size_t pass = 0; pass < passes; ++pass) {
      PlanStats stats;
      plan_and_check(run, pool, algorithm, planned, plans, stats);
      if (stats.plan_check_us.size() != instances) {
        ok = false;
        continue;
      }
      us.insert(us.end(), stats.plan_check_us.begin(),
                stats.plan_check_us.end());
    }
    run.rec.set_enabled(tracing);
  }
};

void plan_layer_metrics(Run& run, const PlanStats& stats) {
  const std::vector<double> plan_ns = run.rec.durations_ns("update.plan");
  const std::vector<double> check_ns = run.rec.durations_ns("verify.check");
  run.layer("update.plan_us.p50", quantile(plan_ns, 0.5) / 1e3, "us");
  run.layer("update.plan_us.p99", quantile(plan_ns, 0.99) / 1e3, "us");
  run.layer("update.rounds",
            ratio(static_cast<double>(stats.rounds),
                  static_cast<double>(stats.instances)),
            "count");
  run.layer("verify.check_us.p50", quantile(check_ns, 0.5) / 1e3, "us");
  run.layer("verify.check_us.p99", quantile(check_ns, 0.99) / 1e3, "us");
  run.layer("verify.states_checked",
            ratio(static_cast<double>(stats.states_checked),
                  static_cast<double>(stats.instances)),
            "count");
  run.layer("verify.exhaustive_share",
            ratio(static_cast<double>(stats.exhaustive),
                  static_cast<double>(stats.instances)),
            "share");
}

// ---------------------------------------------------------------- replays

// Re-runs the workload's own lowered requests through the public layer
// functions outside the engine: lowering (request_from_schedule +
// initial_rules), the codec (encode_into + decode of the FlowMod, barrier
// request and barrier reply stream the controller and switches exchange
// unbatched) and switch apply (proto::apply_flow_mod into per-switch
// tables, initial rules first, then every round in order).
void replay_layers(Run& run,
                   const std::vector<const update::Instance*>& instances,
                   const std::vector<const update::Schedule*>& schedules,
                   FlowId first_flow, std::uint16_t priority) {
  const std::size_t n = instances.size();
  std::vector<controller::UpdateRequest> requests;
  std::vector<std::vector<controller::RoundOp>> initial;
  std::size_t lowered = 0;
  double lower_ns = 0;
  while (lowered == 0 || lowered < kMinReplayOps / 10) {
    requests.clear();
    initial.clear();
    SpanRecorder::Scope span(run.rec, "controller.lower");
    for (std::size_t i = 0; i < n; ++i) {
      const auto flow = static_cast<FlowId>(first_flow + i);
      initial.push_back(
          controller::initial_rules(*instances[i], flow, priority));
      requests.push_back(controller::request_from_schedule(
          *instances[i], *schedules[i], flow, priority, 0));
    }
    lower_ns += span.close();
    lowered += n;
  }

  std::vector<proto::Message> messages;
  Xid xid = 1;
  for (const controller::UpdateRequest& req : requests)
    for (const std::vector<controller::RoundOp>& round : req.rounds) {
      std::set<NodeId> fenced;
      for (const controller::RoundOp& op : round) {
        messages.push_back(proto::make_flow_mod(xid++, op.mod));
        fenced.insert(op.node);
      }
      for (std::size_t k = 0; k < fenced.size(); ++k) {
        messages.push_back(proto::make_barrier_request(xid));
        messages.push_back(proto::make_barrier_reply(xid++));
      }
    }
  std::vector<std::byte> frame;
  std::size_t coded = 0;
  std::size_t decode_errors = 0;
  double codec_ns = 0;
  while (coded < kMinReplayOps && !messages.empty()) {
    SpanRecorder::Scope span(run.rec, "proto.codec");
    for (const proto::Message& m : messages) {
      proto::encode_into(m, frame);
      if (!proto::decode(frame).ok()) ++decode_errors;
    }
    codec_ns += span.close();
    coded += messages.size();
  }
  run.check(decode_errors == 0, "codec replay round-trips every message");

  std::map<NodeId, std::map<std::uint8_t, flow::FlowTable>> tables;
  std::size_t applied = 0;
  double apply_ns = 0;
  while (applied == 0 || applied < kMinReplayOps) {
    tables.clear();
    SpanRecorder::Scope span(run.rec, "flow.apply");
    for (const std::vector<controller::RoundOp>& ops : initial)
      for (const controller::RoundOp& op : ops) {
        proto::apply_flow_mod(tables[op.node], op.mod);
        ++applied;
      }
    for (const controller::UpdateRequest& req : requests)
      for (const std::vector<controller::RoundOp>& round : req.rounds)
        for (const controller::RoundOp& op : round) {
          proto::apply_flow_mod(tables[op.node], op.mod);
          ++applied;
        }
    apply_ns += span.close();
  }
  std::vector<double> rules;
  for (const auto& [node, by_table] : tables) {
    std::size_t count = 0;
    for (const auto& [id, table] : by_table) count += table.size();
    rules.push_back(static_cast<double>(count));
  }

  run.layer("controller.lower_us",
            ratio(lower_ns / 1e3, static_cast<double>(lowered)), "us");
  run.layer("proto.codec_ns_per_msg",
            ratio(codec_ns, static_cast<double>(coded)), "ns");
  run.layer("flow.apply_ns_per_mod",
            ratio(apply_ns, static_cast<double>(applied)), "ns");
  run.layer("flow.rules_per_switch.max",
            rules.empty() ? 0 : *std::max_element(rules.begin(), rules.end()),
            "count");
  run.layer("flow.rules_per_switch.mean", mean(rules), "count");
}

// ------------------------------------------------ shared closed-loop pieces

struct ClosedSim {
  double makespan_ms = 0;
  double sustained_per_s = 0;
  double update_p50_ms = 0;
  double update_p99_ms = 0;
  double wait_p99_ms = 0;
  double frames_per_update = 0;
  double rounds_per_update = 0;
  std::size_t flow_mods = 0;
  std::size_t barriers = 0;
  std::size_t aborted = 0;
};

ClosedSim summarize(const core::MultiFlowExecutionResult& r) {
  ClosedSim s;
  std::vector<double> durations;
  std::vector<double> waits;
  std::size_t rounds = 0;
  for (const core::ExecutionResult& f : r.flows) {
    durations.push_back(sim::to_ms(f.update.duration()));
    waits.push_back(sim::to_ms(f.update.admission_wait()));
    rounds += f.update.rounds.size();
    s.flow_mods += f.update.flow_mods_sent;
    s.barriers += f.update.barriers_sent;
    if (f.update.aborted) ++s.aborted;
  }
  const auto n = static_cast<double>(r.flows.size());
  s.makespan_ms = r.makespan_ms();
  s.sustained_per_s = ratio(n, r.makespan_ms() / 1e3);
  s.update_p50_ms = quantile(durations, 0.5);
  s.update_p99_ms = quantile(durations, 0.99);
  s.wait_p99_ms = quantile(waits, 0.99);
  s.frames_per_update = ratio(static_cast<double>(r.frames_sent), n);
  s.rounds_per_update = ratio(static_cast<double>(rounds), n);
  return s;
}

void sim_metrics(Run& run, double makespan_ms, double sustained_per_s,
                 double p50, double p99, double wait_p99, double frames,
                 double rounds) {
  run.e2e("makespan_ms", makespan_ms, "ms");
  run.e2e("sustained_per_s", sustained_per_s, "1/s");
  run.e2e("update_p50_ms", p50, "ms");
  run.e2e("update_p99_ms", p99, "ms");
  run.e2e("wait_p99_ms", wait_p99, "ms");
  run.e2e("frames_per_update", frames, "count");
  run.e2e("rounds_per_update", rounds, "count");
  run.e2e("completed_share",
          ratio(static_cast<double>(run.attempted - run.failed),
                static_cast<double>(run.attempted)),
          "share");
}

void host_metrics(Run& run, const std::vector<double>& setup_s,
                  double wall_us_per_update, double plan_p50_us,
                  double plan_mean_us) {
  run.e2e("setup_s", median(setup_s), "s");
  run.e2e("wall_us_per_update", wall_us_per_update, "us");
  run.e2e("peak_rss_mb", run.first_iteration_rss_mb, "MB");
  run.e2e("plan_p50_us", plan_p50_us, "us");
  run.e2e("plan_mean_us", plan_mean_us, "us");
}

void check_digest(Run& run, std::uint64_t digest) {
  run.detail.emplace_back("final_state_digest", digest);
  char hex[32];
  std::snprintf(hex, sizeof hex, "%016" PRIx64, digest);
  std::printf("digest: %s\n", hex);
  if (run.opt.expect_digest.has_value())
    run.check(digest == *run.opt.expect_digest,
              "final-state digest matches the recorded default-seed digest");
}

void closed_loop_layers(Run& run, const core::MultiFlowExecutionResult& r,
                        const ClosedSim& s, double execute_ms) {
  std::size_t events = 0;
  for (const std::size_t e : r.sharding.events_per_shard) events += e;
  const auto n = static_cast<double>(r.flows.size());
  run.layer("core.execute_ms", execute_ms, "ms");
  run.layer("sim.events", static_cast<double>(events), "count");
  run.layer("sim.ns_per_event",
            ratio(execute_ms * 1e6, static_cast<double>(events)), "ns");
  run.layer("controller.messages", static_cast<double>(r.messages_sent),
            "count");
  run.layer("controller.flow_mods", static_cast<double>(s.flow_mods), "count");
  run.layer("controller.barriers", static_cast<double>(s.barriers), "count");
  run.layer("controller.conflict_edges",
            static_cast<double>(r.conflict_edges), "count");
  run.layer("controller.blocked_submissions",
            static_cast<double>(r.blocked_submissions), "count");
  run.layer("controller.blocked_share",
            ratio(static_cast<double>(r.blocked_submissions), n), "share");
  run.layer("controller.peak_pending", 0, "count");
  run.layer("controller.peak_depth", 0, "count");
  run.layer("controller.max_in_flight_observed",
            static_cast<double>(r.max_in_flight_observed), "count");
  run.layer("controller.plan_compiles", 0, "count");
  run.layer("controller.plan_hits", 0, "count");
  run.layer("controller.plan_hit_ratio", 0, "share");
  run.layer("controller.aborted", static_cast<double>(s.aborted), "count");
  run.layer("controller.rejected", 0, "count");
  run.layer("controller.steady_state_entries_final", 0, "count");
  run.layer("channel.frames", static_cast<double>(r.frames_sent), "count");
  run.layer("channel.bytes", static_cast<double>(r.control_bytes), "B");
  run.layer("channel.batches", static_cast<double>(r.batching.batches_sent),
            "count");
  run.layer("channel.messages_per_frame",
            ratio(static_cast<double>(r.messages_sent),
                  static_cast<double>(r.frames_sent)),
            "count");
  run.layer("channel.max_hold_ms", r.batching.max_hold_ms(), "ms");
  run.layer("rest.snapshot_us.p50", 0, "us");
  run.layer("rest.snapshots", 0, "count");
}

void closed_loop_detail(Run& run, const core::MultiFlowExecutionResult& r,
                        const ClosedSim& s) {
  run.detail.emplace_back("frames", r.frames_sent);
  run.detail.emplace_back("messages", r.messages_sent);
  run.detail.emplace_back("control_bytes", r.control_bytes);
  run.detail.emplace_back("makespan_ns", r.makespan);
  run.detail.emplace_back("flow_mods", s.flow_mods);
  run.detail.emplace_back("barriers", s.barriers);
  run.detail.emplace_back("conflict_edges", r.conflict_edges);
  run.detail.emplace_back("blocked_submissions", r.blocked_submissions);
  run.detail.emplace_back("packets", r.aggregate.total);
  std::size_t events = 0;
  for (const std::size_t e : r.sharding.events_per_shard) events += e;
  run.detail.emplace_back("events", events);
}

bool same_run(const core::MultiFlowExecutionResult& a,
              const core::MultiFlowExecutionResult& b) {
  return a.final_state_digest == b.final_state_digest &&
         a.frames_sent == b.frames_sent && a.makespan == b.makespan;
}

constexpr const char* kReproducible =
    "every iteration of the seed reproduces the first's digest, frames and "
    "makespan";

// ------------------------------------------------------- closed_dataplane

// 1000 Peacock-planned pool flows over 210 switches, executed concurrently
// with traffic on: the data plane, event queue and monitor do ~99% of the
// work, so an event-free data plane must move this workload.
void closed_dataplane(Run& run) {
  constexpr std::size_t kFlows = 1000;
  constexpr std::size_t kSwitches = 210;
  constexpr std::size_t kWarmPlanPasses = 8;

  struct Inputs {
    std::vector<update::Instance> instances;
    std::vector<const update::Instance*> planned;
    std::vector<update::Schedule> plans;
  };
  SetupStats setup;
  PlanStats plan_stats;
  WarmPlans warm;
  const auto set_up = [&](Inputs& in) {
    SpanRecorder::Scope span(run.rec, "setup");
    {
      SpanRecorder::Scope gen(run.rec, "topo.generate");
      in.instances = topo::pool_workload(kFlows, kSwitches);
      setup.generate_ms.push_back(gen.close() / 1e6);
    }
    plan_and_check(run, in.instances, core::Algorithm::kPeacock, in.planned,
                   in.plans, plan_stats);
    setup.seconds.push_back(span.close() / 1e9);
  };
  Inputs in;
  set_up(in);
  const std::vector<const update::Instance*>& planned = in.planned;
  const std::vector<update::Schedule>& plans = in.plans;
  // The pool built above is topo::planned_pool_workload, planned one
  // instance at a time so the planner and checker can be timed.
  {
    Result<topo::PlannedPoolWorkload> reference =
        topo::planned_pool_workload(kFlows, kSwitches);
    bool same = reference.ok() && reference.value().schedules.size() ==
                                      plans.size();
    for (std::size_t i = 0; same && i < plans.size(); ++i)
      same = reference.value().schedules[i].rounds == plans[i].rounds &&
             reference.value().schedules[i].cleanup == plans[i].cleanup;
    run.check(same, "pool schedules equal topo::planned_pool_workload");
  }
  std::vector<const update::Schedule*> schedule_ptrs;
  for (const update::Schedule& s : plans) schedule_ptrs.push_back(&s);

  core::ExecutorConfig config;
  config.seed = run.opt.seed;
  config.controller.admission = controller::AdmissionPolicy::kConflictAware;
  config.controller.batch_mode = controller::BatchMode::kAdaptive;
  config.controller.max_in_flight = 16;
  config.with_traffic = true;
  config.traffic_interarrival =
      sim::LatencyModel::constant(sim::microseconds(200));
  config.link_latency = sim::LatencyModel::constant(sim::microseconds(50));

  std::vector<double> execute_ms[2];
  std::optional<core::MultiFlowExecutionResult> first;
  bool reproducible = true;
  double allocs_per_update = 0;
  timed_loop(run, [&](bool traced) {
    const std::uint64_t allocs_before = allocations();
    SpanRecorder::Scope span(run.rec, "core.execute");
    Result<core::MultiFlowExecutionResult> r =
        core::execute_multiflow(planned, schedule_ptrs, config);
    execute_ms[traced ? 1 : 0].push_back(span.close() / 1e6);
    if (traced)
      allocs_per_update =
          static_cast<double>(allocations() - allocs_before) / kFlows;
    run.attempted += kFlows;
    if (!r.ok()) {
      run.failed += kFlows;
      run.check(false, "execute_multiflow: " + r.error().to_string());
      return;
    }
    run.failed += summarize(r.value()).aborted;
    if (!first.has_value())
      first = std::move(r).value();
    else
      reproducible = reproducible && same_run(*first, r.value());
  }, [&]() {
    Inputs again;
    set_up(again);
    warm.add(run, again.instances, core::Algorithm::kPeacock,
             kWarmPlanPasses);
  });
  report_plan_checks(run, plan_stats);
  run.check(warm.ok, "every warm re-plan succeeds");
  run.check(reproducible, kReproducible);
  if (!first.has_value()) return;
  const core::MultiFlowExecutionResult& r = *first;
  const ClosedSim s = summarize(r);

  // Traffic-off arm: the same run without packets. It must install the
  // same state with the same frames and makespan, which is what makes
  // dataplane.ms (the difference of the two) an attribution to the data
  // plane alone.
  core::ExecutorConfig off_config = config;
  off_config.with_traffic = false;
  std::vector<double> off_ms;
  for (int i = 0; i < (run.opt.trace ? kTrafficOffReps : 1); ++i) {
    SpanRecorder::Scope span(run.rec, "core.execute.traffic_off");
    Result<core::MultiFlowExecutionResult> off =
        core::execute_multiflow(planned, schedule_ptrs, off_config);
    off_ms.push_back(span.close() / 1e6);
    if (!off.ok()) {
      run.check(false, "traffic-off execute: " + off.error().to_string());
      return;
    }
    run.check(same_run(r, off.value()),
              "traffic-off arm reproduces digest, frames and makespan");
  }

  run.check(r.aggregate.bypassed == 0 && r.aggregate.looped == 0 &&
                r.aggregate.blackholed == 0,
            "zero bypassed, looped and blackholed packets (" +
                std::to_string(r.aggregate.bypassed) + "/" +
                std::to_string(r.aggregate.looped) + "/" +
                std::to_string(r.aggregate.blackholed) + ")");
  run.check(s.aborted == 0 && r.flows.size() == kFlows,
            "every update completes, none aborted");
  check_digest(run, r.final_state_digest);
  closed_loop_detail(run, r, s);

  const std::vector<double> plan_us = per_instance_us(warm.us, kFlows);
  host_metrics(run, setup.seconds,
               quantile(execute_ms[0], kIterationQuantile) * 1e3 / kFlows,
               median(plan_us), mean(plan_us));
  sim_metrics(run, s.makespan_ms, s.sustained_per_s, s.update_p50_ms,
              s.update_p99_ms, s.wait_p99_ms, s.frames_per_update,
              s.rounds_per_update);
  if (!run.opt.trace) return;

  const double exec_ms = median(execute_ms[0]);
  const double dataplane_ms = exec_ms - median(off_ms);
  run.layer("topo.generate_ms", median(setup.generate_ms), "ms");
  plan_layer_metrics(run, plan_stats);
  closed_loop_layers(run, r, s, exec_ms);
  run.layer("dataplane.packets", static_cast<double>(r.aggregate.total),
            "count");
  run.layer("dataplane.ms", dataplane_ms, "ms");
  run.layer("dataplane.share", ratio(dataplane_ms, exec_ms), "share");
  run.layer("dataplane.ns_per_packet",
            ratio(dataplane_ms * 1e6, static_cast<double>(r.aggregate.total)),
            "ns");
  replay_layers(run, planned, schedule_ptrs, config.flow, config.priority);
  run.layer("util.allocs_per_update", allocs_per_update, "count");
  run.layer("trace.overhead_share",
            ratio(median(execute_ms[1]) - exec_ms, exec_ms), "share");
}

// -------------------------------------------------------- rollout_shared

// ~3000 random waypoint instances from the paper's family, each planned
// with WayUp and model-checked, then rolled out together: the cold,
// no-reuse path over big shared tables (every flow crosses the same ~30
// switches), where planner, checker, flow tables and admission dominate.
void rollout_shared(Run& run) {
  constexpr std::size_t kInstances = 3000;
  topo::RandomInstanceOptions shape;
  shape.old_interior_min = 8;
  shape.old_interior_max = 16;
  shape.new_len_min = 8;
  shape.new_len_max = 16;
  shape.with_waypoint = true;

  SetupStats setup;
  const auto set_up = [&](std::vector<update::Instance>& instances) {
    SpanRecorder::Scope span(run.rec, "setup");
    SpanRecorder::Scope gen(run.rec, "topo.generate");
    Rng rng(run.opt.seed);
    instances.reserve(kInstances);
    for (std::size_t i = 0; i < kInstances; ++i)
      instances.push_back(topo::random_instance(rng, shape));
    setup.generate_ms.push_back(gen.close() / 1e6);
    setup.seconds.push_back(span.close() / 1e9);
  };
  std::vector<update::Instance> instances;
  set_up(instances);

  core::ExecutorConfig config;
  config.seed = run.opt.seed;
  config.controller.admission = controller::AdmissionPolicy::kConflictAware;
  config.controller.batch_mode = controller::BatchMode::kOff;
  config.controller.max_in_flight = 64;
  config.with_traffic = false;

  std::vector<double> iteration_ms[2];
  std::vector<double> execute_ms[2];
  std::vector<const update::Instance*> planned;
  std::vector<update::Schedule> plans;
  std::vector<const update::Schedule*> schedule_ptrs;
  // Plan + check samples of every untraced iteration; the last iteration's
  // stats of each arm.
  std::vector<double> plan_check_us;
  PlanStats untraced_plans;
  PlanStats traced_plans;
  std::optional<core::MultiFlowExecutionResult> first;
  bool reproducible = true;
  double allocs_per_update = 0;
  timed_loop(run, [&](bool traced) {
    const std::uint64_t allocs_before = allocations();
    SpanRecorder::Scope iteration(run.rec, "iteration");
    PlanStats plan_stats;
    plan_and_check(run, instances, core::Algorithm::kWayUp, planned, plans,
                   plan_stats);
    schedule_ptrs.clear();
    for (const update::Schedule& s : plans) schedule_ptrs.push_back(&s);
    SpanRecorder::Scope span(run.rec, "core.execute");
    Result<core::MultiFlowExecutionResult> r =
        core::execute_multiflow(planned, schedule_ptrs, config);
    execute_ms[traced ? 1 : 0].push_back(span.close() / 1e6);
    iteration_ms[traced ? 1 : 0].push_back(iteration.close() / 1e6);
    if (traced)
      allocs_per_update =
          static_cast<double>(allocations() - allocs_before) / kInstances;
    run.attempted += kInstances;
    run.failed += plan_stats.plan_errors + plan_stats.rejected;
    if (!traced)
      plan_check_us.insert(plan_check_us.end(),
                           plan_stats.plan_check_us.begin(),
                           plan_stats.plan_check_us.end());
    (traced ? traced_plans : untraced_plans) = plan_stats;
    if (!r.ok()) {
      run.failed += planned.size();
      run.check(false, "execute_multiflow: " + r.error().to_string());
      return;
    }
    run.failed += summarize(r.value()).aborted;
    if (!first.has_value())
      first = std::move(r).value();
    else
      reproducible = reproducible && same_run(*first, r.value());
  }, [&]() {
    std::vector<update::Instance> again;
    set_up(again);
  });
  run.check(reproducible, kReproducible);
  report_plan_checks(run, untraced_plans);
  if (!first.has_value()) return;
  const core::MultiFlowExecutionResult& r = *first;
  const ClosedSim s = summarize(r);

  run.check(s.aborted == 0 && r.flows.size() == planned.size(),
            "every update completes, none aborted");
  run.check(r.aggregate.total == 0, "no data-plane packets");
  check_digest(run, r.final_state_digest);
  closed_loop_detail(run, r, s);
  run.detail.emplace_back("states_checked", untraced_plans.states_checked);
  run.detail.emplace_back("rounds", untraced_plans.rounds);

  const std::vector<double> plan_us =
      per_instance_us(plan_check_us, kInstances);
  host_metrics(run, setup.seconds,
               quantile(iteration_ms[0], kIterationQuantile) * 1e3 /
                   kInstances,
               median(plan_us), mean(plan_us));
  sim_metrics(run, s.makespan_ms, s.sustained_per_s, s.update_p50_ms,
              s.update_p99_ms, s.wait_p99_ms, s.frames_per_update,
              s.rounds_per_update);
  if (!run.opt.trace) return;

  const double exec_ms = median(execute_ms[0]);
  run.layer("topo.generate_ms", median(setup.generate_ms), "ms");
  plan_layer_metrics(run, traced_plans);
  closed_loop_layers(run, r, s, exec_ms);
  run.layer("dataplane.packets", static_cast<double>(r.aggregate.total),
            "count");
  run.layer("dataplane.ms", 0, "ms");
  run.layer("dataplane.share", 0, "share");
  run.layer("dataplane.ns_per_packet", 0, "ns");
  replay_layers(run, planned, schedule_ptrs, config.flow, config.priority);
  run.layer("util.allocs_per_update", allocs_per_update, "count");
  run.layer("trace.overhead_share",
            ratio(median(execute_ms[1]) - exec_ms, exec_ms), "share");
}

// -------------------------------------------------------- service_control

// Open-loop Poisson arrivals at 600/s (~87% of capacity) over 8 templates
// on 48 switches, traffic and batching off, plan cache on, with the REST
// snapshot feed sim_cli --serve runs: controller, admission DAG, warm plan
// cache, channel, codec and switch apply do all the work, the data plane
// none.
void service_control(Run& run) {
  constexpr std::size_t kArrivals = 150000;
  constexpr double kRatePerSec = 600;
  constexpr std::size_t kTemplates = 8;
  constexpr std::size_t kSwitches = 48;
  constexpr std::size_t kWarmPlanPasses = 32;

  struct Inputs {
    std::vector<sim::Duration> trace;
    std::vector<update::Instance> templates;
    std::vector<const update::Instance*> planned;
    std::vector<update::Schedule> plans;
  };
  SetupStats setup;
  PlanStats plan_stats;
  WarmPlans warm;
  const auto set_up = [&](Inputs& in) {
    SpanRecorder::Scope span(run.rec, "setup");
    {
      SpanRecorder::Scope gen(run.rec, "topo.generate");
      Rng rng(run.opt.seed);
      topo::ArrivalProcess arrivals =
          topo::ArrivalProcess::poisson(kRatePerSec);
      in.trace.reserve(kArrivals);
      for (std::size_t i = 0; i < kArrivals; ++i)
        in.trace.push_back(arrivals.next_gap(rng));
      // The service's template pool, forward and reverse directions (it
      // alternates them per template).
      in.templates = topo::pool_workload(kTemplates, kSwitches);
      for (std::size_t i = 0; i < kTemplates; ++i) {
        Result<update::Instance> rev = update::Instance::make(
            in.templates[i].new_path(), in.templates[i].old_path(),
            in.templates[i].waypoint());
        if (rev.ok()) in.templates.push_back(std::move(rev).value());
      }
      setup.generate_ms.push_back(gen.close() / 1e6);
    }
    plan_and_check(run, in.templates, core::Algorithm::kPeacock, in.planned,
                   in.plans, plan_stats);
    setup.seconds.push_back(span.close() / 1e9);
  };
  Inputs in;
  set_up(in);
  run.check(in.templates.size() == 2 * kTemplates,
            "every template reverses into a valid instance");

  // Controller counters the service result does not carry, read from the
  // coordinator in the final snapshot (which fires after the last
  // completion).
  struct Counters {
    std::uint64_t conflict_edges = 0;
    std::uint64_t blocked_submissions = 0;
    std::size_t max_in_flight_observed = 0;
  };
  controller::ShardCoordinator* coordinator = nullptr;
  Counters counters;
  std::size_t snapshots = 0;
  std::size_t snapshot_bytes = 0;

  core::ServiceConfig config;
  config.exec.seed = run.opt.seed;
  config.exec.with_traffic = false;
  config.exec.controller.admission =
      controller::AdmissionPolicy::kConflictAware;
  config.exec.controller.batch_mode = controller::BatchMode::kOff;
  config.exec.controller.max_in_flight = 16;
  config.exec.controller.plan_cache = true;
  config.flows = kTemplates;
  config.pool_switches = kSwitches;
  config.trace = in.trace;
  config.trace_cycle = false;
  config.snapshot_interval = sim::milliseconds(100);
  config.tune = [&](controller::ShardCoordinator& c) { coordinator = &c; };
  config.on_snapshot = [&](const core::ServiceSnapshot& snapshot) {
    SpanRecorder::Scope span(run.rec, "rest.snapshot");
    snapshot_bytes += rest::to_json(snapshot).size();
    ++snapshots;
    if (coordinator != nullptr)
      counters = Counters{coordinator->conflict_edges(),
                          coordinator->blocked_submissions(),
                          coordinator->max_in_flight_observed()};
  };

  std::vector<double> execute_ms[2];
  std::optional<core::ServiceResult> first;
  bool reproducible = true;
  Counters first_counters;
  std::size_t first_snapshots = 0;
  std::size_t first_snapshot_bytes = 0;
  double allocs_per_update = 0;
  timed_loop(run, [&](bool traced) {
    coordinator = nullptr;
    snapshots = 0;
    snapshot_bytes = 0;
    const std::uint64_t allocs_before = allocations();
    SpanRecorder::Scope span(run.rec, "core.execute");
    Result<core::ServiceResult> r = core::execute_service(config);
    execute_ms[traced ? 1 : 0].push_back(span.close() / 1e6);
    run.attempted += kArrivals;
    if (!r.ok()) {
      run.failed += kArrivals;
      run.check(false, "execute_service: " + r.error().to_string());
      return;
    }
    const core::ServiceStats& st = r.value().stats;
    if (traced)
      allocs_per_update = ratio(
          static_cast<double>(allocations() - allocs_before),
          static_cast<double>(st.completed));
    run.failed += st.rejected + st.aborted + (st.accepted - st.completed);
    if (!first.has_value()) {
      first = std::move(r).value();
      first_counters = counters;
      first_snapshots = snapshots;
      first_snapshot_bytes = snapshot_bytes;
    } else {
      const core::ServiceResult& again = r.value();
      reproducible = reproducible &&
                     again.final_state_digest == first->final_state_digest &&
                     again.frames_sent == first->frames_sent &&
                     again.sim_duration == first->sim_duration;
    }
  }, [&]() {
    Inputs again;
    set_up(again);
    warm.add(run, again.templates, core::Algorithm::kPeacock,
             kWarmPlanPasses);
  });
  report_plan_checks(run, plan_stats);
  run.check(warm.ok, "every warm re-plan succeeds");
  run.check(reproducible, kReproducible);
  if (!first.has_value()) return;
  const core::ServiceResult& r = *first;
  const core::ServiceStats& st = r.stats;
  const controller::CompletionStats& cs = r.completions;

  run.check(st.arrivals == kArrivals && st.rejected == 0,
            "every arrival accepted (" + std::to_string(st.rejected) +
                " rejected)");
  run.check(st.completed == st.accepted && st.aborted == 0,
            "every accepted update completes, none aborted");
  run.check(r.steady_state_entries_final == 0,
            "service ends with steady_state_entries_final == 0");
  run.check(r.traffic.total == 0, "no data-plane packets");
  run.check(first_snapshots > 0, "snapshot feed ran");
  check_digest(run, r.final_state_digest);
  const auto completed = static_cast<double>(st.completed);
  run.detail.emplace_back("completed", st.completed);
  run.detail.emplace_back("frames", r.frames_sent);
  run.detail.emplace_back("sim_duration_ns", r.sim_duration);
  run.detail.emplace_back("flow_mods", cs.flow_mods_sent);
  run.detail.emplace_back("barriers", cs.barriers_sent);
  run.detail.emplace_back("plan_compiles", st.plan_compiles);
  run.detail.emplace_back("plan_hits", st.plan_hits);
  run.detail.emplace_back("peak_pending", st.peak_pending);
  run.detail.emplace_back("conflict_edges", first_counters.conflict_edges);
  run.detail.emplace_back("blocked_submissions",
                          first_counters.blocked_submissions);
  run.detail.emplace_back("snapshots", first_snapshots);
  run.detail.emplace_back("snapshot_bytes", first_snapshot_bytes);

  const std::vector<double> plan_us =
      per_instance_us(warm.us, warm.instances);
  host_metrics(run, setup.seconds,
               quantile(execute_ms[0], kIterationQuantile) * 1e3 / completed,
               median(plan_us), mean(plan_us));
  sim_metrics(run, sim::to_ms(r.sim_duration), r.sustained_per_sec(),
              cs.duration_ns.quantile(0.5) / 1e6,
              cs.duration_ns.quantile(0.99) / 1e6,
              cs.wait_ns.quantile(0.99) / 1e6,
              ratio(static_cast<double>(r.frames_sent), completed),
              ratio(static_cast<double>(cs.rounds), completed));
  if (!run.opt.trace) return;

  const double exec_ms = median(execute_ms[0]);
  // With batching off every control message travels in its own frame.
  const auto messages = static_cast<double>(r.frames_sent);
  run.layer("topo.generate_ms", median(setup.generate_ms), "ms");
  plan_layer_metrics(run, plan_stats);
  run.layer("core.execute_ms", exec_ms, "ms");
  run.layer("sim.events", 0, "count");
  run.layer("sim.ns_per_event", 0, "ns");
  run.layer("controller.messages", messages, "count");
  run.layer("controller.flow_mods", static_cast<double>(cs.flow_mods_sent),
            "count");
  run.layer("controller.barriers", static_cast<double>(cs.barriers_sent),
            "count");
  run.layer("controller.conflict_edges",
            static_cast<double>(first_counters.conflict_edges), "count");
  run.layer("controller.blocked_submissions",
            static_cast<double>(first_counters.blocked_submissions), "count");
  run.layer("controller.blocked_share",
            ratio(static_cast<double>(first_counters.blocked_submissions),
                  completed),
            "share");
  run.layer("controller.peak_pending", static_cast<double>(st.peak_pending),
            "count");
  run.layer("controller.peak_depth",
            static_cast<double>(st.peak_controller_depth), "count");
  run.layer("controller.max_in_flight_observed",
            static_cast<double>(first_counters.max_in_flight_observed),
            "count");
  run.layer("controller.plan_compiles", static_cast<double>(st.plan_compiles),
            "count");
  run.layer("controller.plan_hits", static_cast<double>(st.plan_hits),
            "count");
  run.layer("controller.plan_hit_ratio",
            ratio(static_cast<double>(st.plan_hits),
                  static_cast<double>(st.plan_hits + st.plan_compiles)),
            "share");
  run.layer("controller.aborted", static_cast<double>(st.aborted), "count");
  run.layer("controller.rejected", static_cast<double>(st.rejected), "count");
  run.layer("controller.steady_state_entries_final",
            static_cast<double>(r.steady_state_entries_final), "count");
  run.layer("channel.frames", static_cast<double>(r.frames_sent), "count");
  run.layer("channel.bytes", 0, "B");
  run.layer("channel.batches", 0, "count");
  run.layer("channel.messages_per_frame", 1, "count");
  run.layer("channel.max_hold_ms", 0, "ms");
  run.layer("dataplane.packets", static_cast<double>(r.traffic.total),
            "count");
  run.layer("dataplane.ms", 0, "ms");
  run.layer("dataplane.share", 0, "share");
  run.layer("dataplane.ns_per_packet", 0, "ns");
  std::vector<const update::Schedule*> schedule_ptrs;
  for (const update::Schedule& s : in.plans) schedule_ptrs.push_back(&s);
  replay_layers(run, in.planned, schedule_ptrs, config.exec.flow,
                config.exec.priority);
  run.layer("rest.snapshot_us.p50",
            median(run.rec.durations_ns("rest.snapshot")) / 1e3, "us");
  run.layer("rest.snapshots", static_cast<double>(first_snapshots), "count");
  run.layer("util.allocs_per_update", allocs_per_update, "count");
  run.layer("trace.overhead_share",
            ratio(median(execute_ms[1]) - exec_ms, exec_ms), "share");
}

// -------------------------------------------------------------------- main

struct Workload {
  const char* name;
  void (*run)(Run&);
};

constexpr Workload kWorkloads[] = {
    {"closed_dataplane", closed_dataplane},
    {"service_control", service_control},
    {"rollout_shared", rollout_shared},
};

int usage(const char* message) {
  std::fprintf(stderr,
               "tsubench: %s\nusage: tsubench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--expect-digest <hex>] "
               "[--spans <path>]\n",
               message);
  return 2;
}

void print_metrics(const std::vector<Metric>& metrics) {
  std::printf("{");
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  std::printf("}");
}

int main_impl(int argc, char** argv) {
  Options opt;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = v;
      have[0] = true;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(v, &end, 10);
      if (*v == '\0' || *end != '\0') return usage("bad --seed");
      have[1] = true;
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(v, &end);
      if (*v == '\0' || *end != '\0' || !(opt.seconds > 0))
        return usage("bad --seconds");
      have[2] = true;
    } else if (arg == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
        return usage("--trace takes 0 or 1");
      opt.trace = v[0] == '1';
      have[3] = true;
    } else if (arg == "--expect-digest") {
      opt.expect_digest = std::strtoull(v, &end, 16);
      if (*v == '\0' || *end != '\0') return usage("bad --expect-digest");
    } else if (arg == "--spans") {
      opt.spans_path = v;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!(have[0] && have[1] && have[2] && have[3]))
    return usage("--workload, --seed, --seconds and --trace are required");
#ifndef TSUBENCH_TRACED
  if (opt.trace) return usage("--trace 1 needs the tsubench_traced binary");
#endif
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads)
    if (opt.workload == w.name) workload = &w;
  if (workload == nullptr) return usage("unknown workload");

  std::printf(
      "system: {\"nproc\": %u, \"compiler\": \"GCC %s\", \"build_type\": "
      "\"%s\", \"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"seconds\": %g, \"trace\": %d}\n",
      std::thread::hardware_concurrency(), __VERSION__, TSUBENCH_BUILD_TYPE,
      opt.workload.c_str(), opt.seed, opt.seconds, opt.trace ? 1 : 0);
  std::fflush(stdout);

  Run run(opt);
  workload->run(run);
  if (run.attempted == 0) run.check(false, "the workload attempted updates");

  std::vector<Metric>& metrics = opt.trace ? run.per_layer : run.end_to_end;
  for (Metric& m : metrics)
    if (!std::isfinite(m.value)) {
      run.check(false, "metric " + m.name + " is finite");
      m.value = 0;
    }
  if (!opt.spans_path.empty() && opt.trace)
    run.check(run.rec.write_chrome_trace(opt.spans_path),
              "spans written to " + opt.spans_path);
  if (opt.trace) {
    std::printf("spans:");
    for (const auto& [name, t] : run.rec.totals())
      std::printf(" %s=%zux/%.3fms(self %.3fms)", name.c_str(), t.count,
                  t.total_ms, t.self_ms);
    std::printf("\n");
  }
  std::printf("detail: {");
  for (std::size_t i = 0; i < run.detail.size(); ++i)
    std::printf("%s\"%s\": %" PRIu64, i == 0 ? "" : ", ",
                run.detail[i].first.c_str(), run.detail[i].second);
  std::printf("}\n");

  const bool correct = run.failures.empty() && run.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": ",
              correct ? "true" : "false", run.attempted, run.failed);
  print_metrics(metrics);
  std::printf("}\n");
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace tsubench

int main(int argc, char** argv) { return tsubench::main_impl(argc, argv); }
