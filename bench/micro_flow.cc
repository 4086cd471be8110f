// Microbenchmarks: min-cost-flow substrate on GEACC-shaped bipartite
// networks (the cost driver of MinCostFlow-GEACC). The BM_Bipartite*
// points run the production engine (flow/bipartite_ssp.h) on the same
// networks as the reference-engine points of the same shape, so the two
// columns compare one search on two data structures.

#include <benchmark/benchmark.h>

#include <limits>
#include <utility>
#include <vector>

#include "bench/micro_common.h"

#include "flow/bipartite_ssp.h"
#include "flow/graph.h"
#include "flow/min_cost_flow.h"
#include "util/rng.h"

namespace geacc {
namespace {

// c_v ~ U[1,25], cost ~ U[0,1) per pair, c_u ~ U[1,4], drawn in that order.
struct DenseNetwork {
  std::vector<double> costs;  // row-major |V|×|U|
  std::vector<int> event_capacity;
  std::vector<int> user_capacity;
};

DenseNetwork MakeDense(int events, int users, uint64_t seed) {
  Rng rng(seed);
  DenseNetwork net;
  for (int v = 0; v < events; ++v) {
    net.event_capacity.push_back(static_cast<int>(rng.UniformInt(1, 25)));
  }
  for (int i = 0; i < events * users; ++i) net.costs.push_back(rng.NextDouble());
  for (int u = 0; u < users; ++u) {
    net.user_capacity.push_back(static_cast<int>(rng.UniformInt(1, 4)));
  }
  return net;
}

struct Network {
  FlowGraph graph;
  int source;
  int sink;
};

Network MakeBipartite(int events, int users, uint64_t seed) {
  const DenseNetwork dense = MakeDense(events, users, seed);
  Network net{FlowGraph(events + users + 2), 0, events + users + 1};
  for (int v = 0; v < events; ++v) {
    net.graph.AddArc(net.source, 1 + v, dense.event_capacity[v], 0.0);
  }
  for (int v = 0; v < events; ++v) {
    for (int u = 0; u < users; ++u) {
      net.graph.AddArc(1 + v, 1 + events + u, 1,
                       dense.costs[static_cast<size_t>(v) * users + u]);
    }
  }
  for (int u = 0; u < users; ++u) {
    net.graph.AddArc(1 + events + u, net.sink, dense.user_capacity[u], 0.0);
  }
  return net;
}

void BM_BuildNetwork(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  const int users = static_cast<int>(state.range(1));
  for (auto _ : state) {
    Network net = MakeBipartite(events, users, 7);
    benchmark::DoNotOptimize(net.graph.num_arcs());
  }
}
BENCHMARK(BM_BuildNetwork)->Args({20, 200})->Args({50, 500});

void BM_RunToMaxFlow(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  const int users = static_cast<int>(state.range(1));
  for (auto _ : state) {
    Network net = MakeBipartite(events, users, 7);
    SuccessiveShortestPaths sspa(&net.graph, net.source, net.sink);
    benchmark::DoNotOptimize(sspa.RunToMaxFlow());
  }
}
BENCHMARK(BM_RunToMaxFlow)->Args({10, 100})->Args({20, 200})->Args({50, 500});

// Unit-by-unit augmentation (what MinCostFlow-GEACC does) vs bottleneck.
void BM_UnitAugmentation(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  const int users = static_cast<int>(state.range(1));
  for (auto _ : state) {
    Network net = MakeBipartite(events, users, 7);
    SuccessiveShortestPaths sspa(&net.graph, net.source, net.sink);
    while (sspa.Augment(1) == 1) {
    }
    benchmark::DoNotOptimize(sspa.total_cost());
  }
}
BENCHMARK(BM_UnitAugmentation)->Args({10, 100})->Args({20, 200});

void BM_ProfitableSweep(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  const int users = static_cast<int>(state.range(1));
  for (auto _ : state) {
    Network net = MakeBipartite(events, users, 7);
    SuccessiveShortestPaths sspa(&net.graph, net.source, net.sink);
    while (sspa.AugmentIfCheaper(1.0) == 1) {
    }
    benchmark::DoNotOptimize(sspa.total_cost());
  }
}
BENCHMARK(BM_ProfitableSweep)
    ->Args({10, 100})
    ->Args({20, 200})
    ->Args({50, 500});

// The production engine on the same networks: to maximum flow one unit
// at a time, then the MinCostFlow-GEACC sweep.
void BM_BipartiteUnitAugmentation(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  const int users = static_cast<int>(state.range(1));
  for (auto _ : state) {
    DenseNetwork net = MakeDense(events, users, 7);
    BipartiteSsp flow(std::move(net.costs), net.event_capacity,
                      net.user_capacity);
    while (flow.AugmentIfCheaper(std::numeric_limits<double>::infinity()) ==
           1) {
    }
    benchmark::DoNotOptimize(flow.total_cost());
  }
}
BENCHMARK(BM_BipartiteUnitAugmentation)->Args({10, 100})->Args({20, 200});

void BM_BipartiteProfitableSweep(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  const int users = static_cast<int>(state.range(1));
  for (auto _ : state) {
    DenseNetwork net = MakeDense(events, users, 7);
    BipartiteSsp flow(std::move(net.costs), net.event_capacity,
                      net.user_capacity);
    while (flow.AugmentIfCheaper(1.0) == 1) {
    }
    benchmark::DoNotOptimize(flow.total_cost());
  }
}
BENCHMARK(BM_BipartiteProfitableSweep)
    ->Args({10, 100})
    ->Args({20, 200})
    ->Args({50, 500});

}  // namespace
}  // namespace geacc

GEACC_MICRO_MAIN("micro_flow")
