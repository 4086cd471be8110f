// Cross-checks of the production min-cost-flow engine (BipartiteSsp)
// against the generic reference (SuccessiveShortestPaths over a
// FlowGraph): the same search, unit by unit, under every SIMD dispatch
// level. Also tests of MinCostFlow-GEACC's greedy/exact conflict
// resolution and a pin of its complete output.

#include <gtest/gtest.h>

#include <bit>
#include <limits>
#include <string>
#include <vector>

#include "algo/conflict_resolution.h"
#include "algo/min_cost_flow_solver.h"
#include "algo/solvers.h"
#include "flow/bipartite_ssp.h"
#include "flow/graph.h"
#include "flow/min_cost_flow.h"
#include "gen/ebsn.h"
#include "gen/synthetic.h"
#include "obs/stats.h"
#include "simd/simd.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace geacc {
namespace {

using geacc::testing::MakeTableInstance;
using geacc::testing::SmallRandomInstance;

constexpr double kInf = std::numeric_limits<double>::infinity();

// A GEACC-shaped network given densely: pair costs row-major, +inf for a
// pair without an arc.
struct DenseNetwork {
  int num_events = 0;
  int num_users = 0;
  std::vector<double> costs;
  std::vector<int> event_capacity;
  std::vector<int> user_capacity;
};

// Costs 1 − sim with sim uniform in [0, 1), as MinCostFlow-GEACC builds.
DenseNetwork RandomNetwork(int events, int users, uint64_t seed) {
  Rng rng(seed);
  DenseNetwork net{events, users, {}, {}, {}};
  for (int v = 0; v < events; ++v) {
    net.event_capacity.push_back(static_cast<int>(rng.UniformInt(1, 3)));
  }
  for (int i = 0; i < events * users; ++i) {
    net.costs.push_back(1.0 - rng.NextDouble());
  }
  for (int u = 0; u < users; ++u) {
    net.user_capacity.push_back(static_cast<int>(rng.UniformInt(1, 2)));
  }
  return net;
}

// Moves every finite cost by a multiple of 4e-10, so paths tie to within
// the engines' 1e-9 relax tolerance without tying exactly.
void Jitter(DenseNetwork* net, uint64_t seed) {
  Rng rng(seed);
  for (double& cost : net->costs) {
    if (cost != kInf) cost += 4e-10 * static_cast<double>(rng.UniformInt(-2, 2));
  }
}

// Ties everywhere: costs on a 0.25 grid (sim = 0 and sim = 1 included),
// every odd user a copy of the user before it, event 0's capacity above
// |U|.
DenseNetwork TieHeavyNetwork(int events, int users, uint64_t seed) {
  Rng rng(seed);
  DenseNetwork net{events, users, {}, {}, {}};
  net.costs.resize(static_cast<size_t>(events) * users);
  for (int v = 0; v < events; ++v) {
    for (int u = 0; u < users; u += 2) {
      const double cost = 0.25 * static_cast<double>(rng.UniformInt(0, 4));
      net.costs[static_cast<size_t>(v) * users + u] = cost;
      if (u + 1 < users) net.costs[static_cast<size_t>(v) * users + u + 1] = cost;
    }
    net.event_capacity.push_back(static_cast<int>(rng.UniformInt(1, 6)));
  }
  net.event_capacity[0] = users + 3;
  for (int u = 0; u < users; u += 2) {
    const int capacity = static_cast<int>(rng.UniformInt(1, 3));
    net.user_capacity.push_back(capacity);
    if (u + 1 < users) net.user_capacity.push_back(capacity);
  }
  return net;
}

// The clique-lp bound's network: cost −sim on pairs with sim > 0, no arc
// otherwise, and some zero capacities.
DenseNetwork NegativeCostNetwork(int events, int users, uint64_t seed) {
  Rng rng(seed);
  DenseNetwork net{events, users, {}, {}, {}};
  for (int v = 0; v < events; ++v) {
    net.event_capacity.push_back(static_cast<int>(rng.UniformInt(0, 4)));
  }
  for (int i = 0; i < events * users; ++i) {
    const double sim =
        rng.Bernoulli(0.3) ? 0.0 : 0.125 * static_cast<double>(rng.UniformInt(1, 8));
    net.costs.push_back(sim > 0.0 ? -sim : kInf);
  }
  for (int u = 0; u < users; ++u) {
    net.user_capacity.push_back(static_cast<int>(rng.UniformInt(0, 3)));
  }
  return net;
}

// The reference network in the solvers' former arc order: source arcs,
// pair arcs row by row, sink arcs.
FlowGraph ReferenceGraph(const DenseNetwork& net, std::vector<int>* pair_arc) {
  FlowGraph graph(net.num_events + net.num_users + 2);
  const int sink = net.num_events + net.num_users + 1;
  for (int v = 0; v < net.num_events; ++v) {
    graph.AddArc(0, 1 + v, net.event_capacity[v], 0.0);
  }
  pair_arc->assign(net.costs.size(), -1);
  for (int v = 0; v < net.num_events; ++v) {
    for (int u = 0; u < net.num_users; ++u) {
      const size_t i = static_cast<size_t>(v) * net.num_users + u;
      if (net.costs[i] == kInf) continue;
      (*pair_arc)[i] =
          graph.AddArc(1 + v, 1 + net.num_events + u, 1, net.costs[i]);
    }
  }
  for (int u = 0; u < net.num_users; ++u) {
    graph.AddArc(1 + net.num_events + u, sink, net.user_capacity[u], 0.0);
  }
  return graph;
}

// The search counters one call added (empty when stats are compiled out).
std::vector<int64_t> SearchCounters(const obs::StatsScope& scope) {
  const obs::StatsSnapshot stats = scope.Harvest();
  std::vector<int64_t> out;
  for (const char* name : {"flow.dijkstra.settles", "flow.dijkstra.relaxations",
                           "flow.augmenting_paths"}) {
    const auto it = stats.counters.find(name);
    out.push_back(it == stats.counters.end() ? 0 : it->second);
  }
  return out;
}

// Runs both engines with `cost_limit` until the first refused or failed
// augmentation, under the given dispatch level, and requires the same
// search every step: the same answer, the same total cost bits, the same
// counters and the same potential bits on every node, then the same pair
// flows at the end.
void ExpectSameSearch(const DenseNetwork& net, double cost_limit,
                      simd::Level level, const std::string& label) {
  std::string error;
  ASSERT_TRUE(simd::SetDispatchOverride(simd::LevelName(level), &error))
      << error;
  std::vector<int> pair_arc;
  FlowGraph graph = ReferenceGraph(net, &pair_arc);
  const int sink = net.num_events + net.num_users + 1;
  SuccessiveShortestPaths reference(&graph, 0, sink);
  BipartiteSsp engine(net.costs, net.event_capacity, net.user_capacity);
  const std::string where = label + " level " + simd::LevelName(level);
  for (int step = 0;; ++step) {
    const obs::StatsScope reference_scope;
    const int64_t expected = reference.AugmentIfCheaper(cost_limit);
    const std::vector<int64_t> expected_counters =
        SearchCounters(reference_scope);
    const obs::StatsScope engine_scope;
    const int64_t got = engine.AugmentIfCheaper(cost_limit);
    ASSERT_EQ(got, expected) << where << " step " << step;
    ASSERT_EQ(SearchCounters(engine_scope), expected_counters)
        << where << " step " << step;
    ASSERT_EQ(std::bit_cast<uint64_t>(engine.total_cost()),
              std::bit_cast<uint64_t>(reference.total_cost()))
        << where << " step " << step;
    for (int node = 0; node <= sink; ++node) {
      ASSERT_EQ(std::bit_cast<uint64_t>(engine.Potential(node)),
                std::bit_cast<uint64_t>(reference.potential(node)))
          << where << " step " << step << " node " << node;
    }
    if (got == 0) break;
  }
  EXPECT_EQ(engine.total_flow(), reference.total_flow()) << where;
  for (int v = 0; v < net.num_events; ++v) {
    for (int u = 0; u < net.num_users; ++u) {
      const int arc = pair_arc[static_cast<size_t>(v) * net.num_users + u];
      const bool carries = arc >= 0 && graph.Flow(arc) == 1;
      ASSERT_EQ(engine.CarriesFlow(v, u), carries)
          << where << " pair " << v << "," << u;
    }
  }
  ASSERT_TRUE(simd::SetDispatchOverride("auto", &error)) << error;
}

std::vector<simd::Level> AvailableLevels() {
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  if (simd::CpuSupportsAvx2()) levels.push_back(simd::Level::kAvx2);
  return levels;
}

class FlowEngineAgreementTest : public ::testing::TestWithParam<uint64_t> {};

// To maximum flow: every path, including the unprofitable ones.
TEST_P(FlowEngineAgreementTest, PerUnitCostsAgree) {
  const uint64_t seed = GetParam();
  for (const simd::Level level : AvailableLevels()) {
    ExpectSameSearch(RandomNetwork(4, 7, seed), kInf, level, "random 4x7");
    ExpectSameSearch(RandomNetwork(37, 70, seed + 100), kInf, level,
                     "random 37x70");
    ExpectSameSearch(TieHeavyNetwork(6, 45, seed + 200), kInf, level,
                     "tie-heavy 6x45");
    ExpectSameSearch(NegativeCostNetwork(5, 40, seed + 300), kInf, level,
                     "negative 5x40");
    DenseNetwork near_tie = TieHeavyNetwork(7, 40, seed + 400);
    Jitter(&near_tie, seed);
    ExpectSameSearch(near_tie, kInf, level, "near-tie 7x40");
  }
}

// The solvers' sweeps: stop at the first path at or above the limit.
TEST_P(FlowEngineAgreementTest, ProfitableSweepAgrees) {
  const uint64_t seed = GetParam() + 333;
  for (const simd::Level level : AvailableLevels()) {
    ExpectSameSearch(RandomNetwork(5, 8, seed), 0.8, level, "random 5x8");
    ExpectSameSearch(RandomNetwork(33, 66, seed + 100), 1.0 - 1e-9, level,
                     "random 33x66");
    ExpectSameSearch(TieHeavyNetwork(9, 64, seed + 200), 1.0 - 1e-9, level,
                     "tie-heavy 9x64");
    ExpectSameSearch(NegativeCostNetwork(34, 35, seed + 300), 0.0, level,
                     "negative 34x35");
    DenseNetwork near_tie = NegativeCostNetwork(12, 36, seed + 400);
    Jitter(&near_tie, seed);
    ExpectSameSearch(near_tie, 0.0, level, "negative near-tie 12x36");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowEngineAgreementTest,
                         ::testing::Range<uint64_t>(0, 15));

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

// ------------------------------------------------------ pinned output ----

// FNV-1a over 64-bit words.
class Fnv1a {
 public:
  void Mix(int64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= static_cast<uint64_t>(value >> (8 * byte)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

// Ties everywhere: similarities on a 0.25 grid (0 and 1 included), every
// odd user a copy of the user before it, and event 0's capacity above |U|.
Instance TieHeavyInstance() {
  Rng rng(2024);
  const int num_events = 8;
  const int num_users = 60;
  std::vector<std::vector<double>> table(num_events,
                                         std::vector<double>(num_users));
  for (auto& row : table) {
    for (int u = 0; u < num_users; u += 2) {
      row[u] = 0.25 * static_cast<double>(rng.UniformInt(0, 4));
      row[u + 1] = row[u];
    }
  }
  std::vector<int> event_capacities(num_events);
  for (int& c : event_capacities) c = static_cast<int>(rng.UniformInt(1, 12));
  event_capacities[0] = num_users + 5;
  std::vector<int> user_capacities(num_users);
  for (int u = 0; u < num_users; u += 2) {
    user_capacities[u] = static_cast<int>(rng.UniformInt(1, 3));
    user_capacities[u + 1] = user_capacities[u];
  }
  return MakeTableInstance(table, event_capacities, user_capacities,
                           {{0, 1}, {2, 3}, {1, 4}, {5, 6}, {0, 7}});
}

// Pins MinCostFlow-GEACC bit for bit: `output` digests the sorted pairs
// and the MaxSum bits, `search` the flow.dijkstra.settles,
// flow.dijkstra.relaxations and flow.augmenting_paths counters, so a new
// flow engine cannot move a single pair, tie-break or search step.
TEST(MinCostFlowSolver, OutputIsPinned) {
  struct Case {
    std::string name;
    Instance instance;
    uint64_t output;
    uint64_t search;
  };
  const auto table_iii = [](int num_events, int num_users, uint64_t seed) {
    SyntheticConfig config;  // Table III: d = 20, c_v ~ U[1,50], c_u ~ U[1,4]
    config.num_events = num_events;
    config.num_users = num_users;
    config.seed = seed;
    return GenerateSynthetic(config);
  };
  EbsnConfig auckland = EbsnCityPreset("auckland");
  auckland.seed = 7;
  std::vector<Case> cases;
  cases.push_back({"table3-20x200-s11", table_iii(20, 200, 11),
                   4432230746437323620ull, 4958196536439724994ull});
  cases.push_back({"table3-20x200-s12", table_iii(20, 200, 12),
                   11744654590953767815ull, 9458441542091803637ull});
  cases.push_back({"table3-100x1000-s13", table_iii(100, 1000, 13),
                   8723258645834475164ull, 9542538759288810624ull});
  cases.push_back({"auckland-s7", GenerateEbsn(auckland),
                   12250053589646478600ull, 5961683767667221538ull});
  cases.push_back({"tie-heavy", TieHeavyInstance(),
                   11222271855218352333ull, 9397222337161346803ull});
  for (const Case& c : cases) {
    const obs::StatsScope scope;
    const SolveResult result = MinCostFlowSolver().Solve(c.instance);
    const obs::StatsSnapshot stats = scope.Harvest();
    Fnv1a output;
    for (const auto& [v, u] : result.arrangement.SortedPairs()) {
      output.Mix(v);
      output.Mix(u);
    }
    const double max_sum = result.arrangement.MaxSum(c.instance);
    output.Mix(std::bit_cast<int64_t>(max_sum));
    EXPECT_EQ(output.value(), c.output)
        << c.name << " pairs " << result.arrangement.size();
#if !defined(GEACC_NO_STATS)
    Fnv1a search;
    for (const char* counter : {"flow.dijkstra.settles",
                                "flow.dijkstra.relaxations",
                                "flow.augmenting_paths"}) {
      const auto it = stats.counters.find(counter);
      search.Mix(it == stats.counters.end() ? 0 : it->second);
    }
    EXPECT_EQ(search.value(), c.search) << c.name;
#endif
  }
}

}  // namespace
}  // namespace geacc
