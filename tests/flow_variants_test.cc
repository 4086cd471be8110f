// Cross-checks of the solver's min-cost-flow engine (Dijkstra over reduced
// costs + potentials) against the SPFA reference engine, and tests of
// MinCostFlow-GEACC's greedy/exact conflict resolution.

#include <gtest/gtest.h>

#include "algo/conflict_resolution.h"
#include "algo/min_cost_flow_solver.h"
#include "algo/solvers.h"
#include "flow/graph.h"
#include "flow/min_cost_flow.h"
#include "flow/spfa_min_cost_flow.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace geacc {
namespace {

using geacc::testing::MakeTableInstance;
using geacc::testing::SmallRandomInstance;

FlowGraph RandomBipartite(int events, int users, uint64_t seed, int* source,
                          int* sink) {
  Rng rng(seed);
  FlowGraph graph(events + users + 2);
  *source = 0;
  *sink = events + users + 1;
  for (int v = 0; v < events; ++v) {
    graph.AddArc(*source, 1 + v, rng.UniformInt(1, 3), 0.0);
  }
  for (int v = 0; v < events; ++v) {
    for (int u = 0; u < users; ++u) {
      graph.AddArc(1 + v, 1 + events + u, 1, rng.NextDouble());
    }
  }
  for (int u = 0; u < users; ++u) {
    graph.AddArc(1 + events + u, *sink, rng.UniformInt(1, 2), 0.0);
  }
  return graph;
}

class FlowEngineAgreementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FlowEngineAgreementTest, PerUnitCostsAgree) {
  int source = 0, sink = 0;
  FlowGraph dijkstra_graph =
      RandomBipartite(4, 7, GetParam(), &source, &sink);
  FlowGraph spfa_graph = RandomBipartite(4, 7, GetParam(), &source, &sink);
  SuccessiveShortestPaths dijkstra(&dijkstra_graph, source, sink);
  SpfaMinCostFlow spfa(&spfa_graph, source, sink);
  while (true) {
    const double dijkstra_before = dijkstra.total_cost();
    const double spfa_before = spfa.total_cost();
    const int64_t a = dijkstra.Augment(1);
    const int64_t b = spfa.Augment(1);
    ASSERT_EQ(a, b);
    if (a == 0) break;
    ASSERT_NEAR(dijkstra.total_cost() - dijkstra_before,
                spfa.total_cost() - spfa_before, 1e-6);
  }
  EXPECT_EQ(dijkstra.total_flow(), spfa.total_flow());
  EXPECT_NEAR(dijkstra.total_cost(), spfa.total_cost(), 1e-6);
}

TEST_P(FlowEngineAgreementTest, ProfitableSweepAgrees) {
  int source = 0, sink = 0;
  FlowGraph dijkstra_graph =
      RandomBipartite(5, 8, GetParam() + 333, &source, &sink);
  FlowGraph spfa_graph =
      RandomBipartite(5, 8, GetParam() + 333, &source, &sink);
  SuccessiveShortestPaths dijkstra(&dijkstra_graph, source, sink);
  SpfaMinCostFlow spfa(&spfa_graph, source, sink);
  int64_t a = 0, b = 0;
  while (dijkstra.AugmentIfCheaper(0.8) == 1) ++a;
  while (spfa.AugmentIfCheaper(0.8) == 1) ++b;
  EXPECT_EQ(a, b);
  EXPECT_NEAR(dijkstra.total_cost(), spfa.total_cost(), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowEngineAgreementTest,
                         ::testing::Range<uint64_t>(0, 15));

TEST(SpfaMinCostFlow, HandlesNegativeCostsWithoutBootstrap) {
  FlowGraph graph(4);
  graph.AddArc(0, 1, 1, -2.0);
  graph.AddArc(1, 3, 1, 1.0);
  graph.AddArc(0, 2, 1, 0.0);
  graph.AddArc(2, 3, 1, 0.5);
  SpfaMinCostFlow spfa(&graph, 0, 3);
  EXPECT_EQ(spfa.RunToMaxFlow(), 2);
  EXPECT_DOUBLE_EQ(spfa.total_cost(), -0.5);
}

// ------------------------------------------ exact conflict resolution ----

TEST(ExactConflictResolution, BeatsGreedyOnItsWorstCase) {
  // Greedy keeps {0.9}; exact keeps {0.8, 0.8}.
  const Instance instance = MakeTableInstance(
      {{0.9}, {0.8}, {0.8}}, {1, 1, 1}, {3}, {{0, 1}, {0, 2}});
  const auto greedy = GreedySelectNonConflicting(instance, 0, {0, 1, 2});
  const auto exact = ExactSelectNonConflicting(instance, 0, {0, 1, 2});
  EXPECT_EQ(greedy, (std::vector<EventId>{0}));
  EXPECT_EQ(exact, (std::vector<EventId>{1, 2}));
}

TEST(ExactConflictResolution, EmptyAndSingleton) {
  const Instance instance = MakeTableInstance({{0.5}}, {1}, {1}, {});
  EXPECT_TRUE(ExactSelectNonConflicting(instance, 0, {}).empty());
  EXPECT_EQ(ExactSelectNonConflicting(instance, 0, {0}),
            (std::vector<EventId>{0}));
}

TEST(ExactConflictResolution, NeverWorseThanGreedyProperty) {
  for (uint64_t seed = 0; seed < 30; ++seed) {
    const Instance instance = SmallRandomInstance(8, 1, 0.5, 8, seed + 50);
    std::vector<EventId> all_events;
    for (EventId v = 0; v < instance.num_events(); ++v) {
      if (instance.Similarity(v, 0) > 0.0) all_events.push_back(v);
    }
    auto weight_of = [&](const std::vector<EventId>& events) {
      double sum = 0.0;
      for (const EventId v : events) sum += instance.Similarity(v, 0);
      return sum;
    };
    const double greedy =
        weight_of(GreedySelectNonConflicting(instance, 0, all_events));
    const double exact =
        weight_of(ExactSelectNonConflicting(instance, 0, all_events));
    EXPECT_GE(exact, greedy - 1e-12) << "seed " << seed;
  }
}

TEST(MinCostFlowSolver, ExactResolutionNeverWorseEndToEnd) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    const Instance instance = SmallRandomInstance(6, 10, 0.6, 4, seed + 9);
    SolverOptions greedy_options, exact_options;
    exact_options.exact_conflict_resolution = true;
    const double greedy = MinCostFlowSolver(greedy_options)
                              .Solve(instance)
                              .arrangement.MaxSum(instance);
    const SolveResult exact = MinCostFlowSolver(exact_options).Solve(instance);
    EXPECT_EQ(exact.arrangement.Validate(instance), "");
    EXPECT_GE(exact.arrangement.MaxSum(instance), greedy - 1e-9)
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace geacc
