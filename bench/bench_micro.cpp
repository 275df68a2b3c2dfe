// E9: microbenchmarks of the substrate primitives (google-benchmark).
#include <benchmark/benchmark.h>

#include "tsu/json/json.hpp"
#include "tsu/proto/codec.hpp"
#include "tsu/rest/rest.hpp"
#include "tsu/topo/instances.hpp"
#include "tsu/update/schedulers.hpp"
#include "tsu/util/rng.hpp"
#include "tsu/verify/checker.hpp"

namespace tsu {
namespace {

void BM_RngU64(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng());
}
BENCHMARK(BM_RngU64);

void BM_JsonParseRestMessage(benchmark::State& state) {
  const std::string text =
      R"({"oldpath":[1,2,3,4,8,5,6,12],"newpath":[1,7,5,3,2,9,10,11,12],)"
      R"("wp":3,"interval":50,"add":[{"dpid":7,"priority":100,)"
      R"("match":{"flow":1},"actions":[{"type":"OUTPUT","port":5}]}]})";
  for (auto _ : state) {
    auto result = json::parse(text);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_JsonParseRestMessage);

void BM_RestParseUpdateMessage(benchmark::State& state) {
  const std::string text =
      R"({"oldpath":[1,2,3,4,8,5,6,12],"newpath":[1,7,5,3,2,9,10,11,12],)"
      R"("wp":3,"interval":50})";
  for (auto _ : state) {
    auto result = rest::parse_update_message(text);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_RestParseUpdateMessage);

void BM_ProtoEncodeFlowMod(benchmark::State& state) {
  proto::FlowMod mod;
  mod.match.flow = 1;
  mod.match.src_host = 2;
  mod.action = flow::Action::forward(5);
  const proto::Message message = proto::make_flow_mod(7, mod);
  for (auto _ : state) {
    auto wire = proto::encode(message);
    benchmark::DoNotOptimize(wire);
  }
}
BENCHMARK(BM_ProtoEncodeFlowMod);

void BM_ProtoDecodeFlowMod(benchmark::State& state) {
  proto::FlowMod mod;
  mod.match.flow = 1;
  mod.action = flow::Action::forward(5);
  const auto wire = proto::encode(proto::make_flow_mod(7, mod));
  for (auto _ : state) {
    auto message = proto::decode(wire);
    benchmark::DoNotOptimize(message);
  }
}
BENCHMARK(BM_ProtoDecodeFlowMod);

void BM_FlowTableLookup(benchmark::State& state) {
  flow::FlowTable table;
  for (FlowId f = 0; f < static_cast<FlowId>(state.range(0)); ++f)
    table.add(flow::FlowRule{flow::Match::exact_flow(f),
                             flow::Action::forward(2), 100, 0});
  flow::Packet packet;
  packet.flow = static_cast<FlowId>(state.range(0)) - 1;  // worst case
  for (auto _ : state) benchmark::DoNotOptimize(table.lookup(packet));
}
BENCHMARK(BM_FlowTableLookup)->Arg(8)->Arg(64)->Arg(512)->Arg(3000);

void BM_WalkFromSource(benchmark::State& state) {
  const update::Instance inst = topo::fig1().instance;
  const update::StateMask mask = update::full_state(inst);
  for (auto _ : state)
    benchmark::DoNotOptimize(update::walk_from_source(inst, mask));
}
BENCHMARK(BM_WalkFromSource);

void BM_PlanWayUpFig1(benchmark::State& state) {
  const update::Instance inst = topo::fig1().instance;
  for (auto _ : state)
    benchmark::DoNotOptimize(update::plan_wayup(inst));
}
BENCHMARK(BM_PlanWayUpFig1);

void BM_PlanPeacockReversal(benchmark::State& state) {
  const update::Instance inst =
      topo::reversal_instance(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(update::plan_peacock(inst));
}
BENCHMARK(BM_PlanPeacockReversal)->Arg(8)->Arg(16)->Arg(32);

void BM_PlanSlfGreedyReversal(benchmark::State& state) {
  const update::Instance inst =
      topo::reversal_instance(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(update::plan_slf_greedy(inst));
}
BENCHMARK(BM_PlanSlfGreedyReversal)->Arg(8)->Arg(16)->Arg(32);

void BM_CheckWayUpFig1(benchmark::State& state) {
  const update::Instance inst = topo::fig1().instance;
  const auto schedule = update::plan_wayup(inst);
  for (auto _ : state) {
    auto report =
        verify::check_schedule(inst, schedule.value(), update::kWaypoint);
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_CheckWayUpFig1);

void BM_RandomInstance(benchmark::State& state) {
  Rng rng(1);
  topo::RandomInstanceOptions options;
  for (auto _ : state)
    benchmark::DoNotOptimize(topo::random_instance(rng, options));
}
BENCHMARK(BM_RandomInstance);

}  // namespace
}  // namespace tsu

BENCHMARK_MAIN();
