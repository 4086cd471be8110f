// SPFA-based successive shortest paths — the test reference engine.
//
// Finds each augmenting path with a queue-based Bellman–Ford (SPFA) over
// *real* arc costs instead of Dijkstra over reduced costs. Handles
// negative arc costs natively (residual backward arcs are negative), at a
// worse asymptotic bound. No solver uses it: MinCostFlow-GEACC runs
// SuccessiveShortestPaths (flow/min_cost_flow.h). It stays as the
// textbook formulation that FlowEngineAgreementTest checks the potential
// bookkeeping of SuccessiveShortestPaths against, path by path. Its
// flow.spfa.* counters therefore fire only in that test.

#ifndef GEACC_FLOW_SPFA_MIN_COST_FLOW_H_
#define GEACC_FLOW_SPFA_MIN_COST_FLOW_H_

#include <cstdint>
#include <vector>

#include "flow/graph.h"

namespace geacc {

class SpfaMinCostFlow {
 public:
  SpfaMinCostFlow(FlowGraph* graph, int source, int sink);

  // Same contract as SuccessiveShortestPaths::Augment.
  int64_t Augment(int64_t max_units);

  // Same contract as SuccessiveShortestPaths::AugmentIfCheaper.
  int64_t AugmentIfCheaper(double cost_limit);

  int64_t RunToMaxFlow();

  int64_t total_flow() const { return total_flow_; }
  double total_cost() const { return total_cost_; }

  uint64_t ByteEstimate() const;

 private:
  // Bellman–Ford queue search; fills parent_arc_. Returns false when the
  // sink is unreachable.
  bool FindPath();
  double PathCost() const;
  void PushPath(int64_t amount);
  int64_t Bottleneck(int64_t cap) const;

  FlowGraph* graph_;
  int source_;
  int sink_;
  int64_t total_flow_ = 0;
  double total_cost_ = 0.0;

  std::vector<double> distance_;
  std::vector<int> parent_arc_;
  std::vector<bool> in_queue_;
};

}  // namespace geacc

#endif  // GEACC_FLOW_SPFA_MIN_COST_FLOW_H_
