// Microbenchmarks for the graph substrate: topology generation (the GT-ITM
// Waxman model the experiments use plus the cell-bucketed geometric model
// for 100k+ APs), BFS neighborhoods, the CSR index with its bounded N_l^+
// query, and the full scenario builder.
#include <benchmark/benchmark.h>

#include <vector>

#include "graph/algorithms.h"
#include "graph/csr.h"
#include "graph/topology.h"
#include "sim/workload.h"

namespace {

using namespace mecra;

void BM_WaxmanGeneration(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    util::Rng rng(seed++);
    auto t = graph::waxman({.num_nodes = n}, rng);
    benchmark::DoNotOptimize(t.graph.num_edges());
  }
}
BENCHMARK(BM_WaxmanGeneration)->Arg(50)->Arg(100)->Arg(200)->Arg(400);

void BM_TransitStubGeneration(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    util::Rng rng(seed++);
    auto t = graph::transit_stub({}, rng);
    benchmark::DoNotOptimize(t.graph.num_edges());
  }
}
BENCHMARK(BM_TransitStubGeneration);

void BM_BfsHops(benchmark::State& state) {
  util::Rng rng(7);
  const auto t =
      graph::waxman({.num_nodes = static_cast<std::size_t>(state.range(0))},
                    rng);
  for (auto _ : state) {
    auto d = graph::bfs_hops(t.graph, 0);
    benchmark::DoNotOptimize(d.back());
  }
}
BENCHMARK(BM_BfsHops)->Arg(100)->Arg(400);

void BM_LHopNeighborhoods(benchmark::State& state) {
  util::Rng rng(7);
  const auto t = graph::waxman({.num_nodes = 100}, rng);
  const auto l = static_cast<std::uint32_t>(state.range(0));
  // N_l(v) as one full BFS plus a filter (the unbounded form of
  // graph::members_within, timed in BM_MembersWithin).
  for (auto _ : state) {
    for (graph::NodeId v = 0; v < 100; ++v) {
      const auto dist = graph::bfs_hops(t.graph, v);
      std::vector<graph::NodeId> n;
      for (graph::NodeId u = 0; u < dist.size(); ++u) {
        if (u != v && dist[u] <= l) n.push_back(u);
      }
      benchmark::DoNotOptimize(n.size());
    }
  }
}
BENCHMARK(BM_LHopNeighborhoods)->Arg(1)->Arg(2)->Arg(3);

void BM_GeometricGeneration(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    util::Rng rng(seed++);
    auto t = graph::random_geometric({.num_nodes = n}, rng);
    benchmark::DoNotOptimize(t.graph.num_edges());
  }
}
BENCHMARK(BM_GeometricGeneration)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void BM_CsrBuild(benchmark::State& state) {
  util::Rng rng(7);
  const auto t = graph::random_geometric(
      {.num_nodes = static_cast<std::size_t>(state.range(0))}, rng);
  for (auto _ : state) {
    auto csr = graph::CsrGraph::build(t.graph);
    benchmark::DoNotOptimize(csr.num_edges());
  }
}
BENCHMARK(BM_CsrBuild)->Arg(10000)->Arg(100000)->Unit(benchmark::kMillisecond);

void BM_MembersWithin(benchmark::State& state) {
  util::Rng rng(7);
  const auto t = graph::random_geometric(
      {.num_nodes = static_cast<std::size_t>(state.range(0))}, rng);
  const auto csr = graph::CsrGraph::build(t.graph);
  graph::NodeId v = 0;
  for (auto _ : state) {
    auto n = graph::members_within(csr, v, 2);
    benchmark::DoNotOptimize(n.size());
    v = (v + 9973) % static_cast<graph::NodeId>(t.graph.num_nodes());
  }
}
BENCHMARK(BM_MembersWithin)->Arg(10000)->Arg(100000);

void BM_ScenarioBuild(benchmark::State& state) {
  sim::ScenarioParams params;
  params.request.chain_length_low = 8;
  params.request.chain_length_high = 8;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    util::Rng rng(seed++);
    auto s = sim::make_scenario(params, rng);
    benchmark::DoNotOptimize(s.has_value());
  }
}
BENCHMARK(BM_ScenarioBuild)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
