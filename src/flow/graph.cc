#include "flow/graph.h"

namespace geacc {

FlowGraph::FlowGraph(int num_nodes) {
  GEACC_CHECK_GE(num_nodes, 0);
  adjacency_.resize(num_nodes);
}

int FlowGraph::AddArc(int from, int to, int64_t capacity, double cost) {
  GEACC_CHECK(from >= 0 && from < num_nodes()) << "bad tail " << from;
  GEACC_CHECK(to >= 0 && to < num_nodes()) << "bad head " << to;
  GEACC_CHECK_GE(capacity, 0);
  const int forward = num_arcs();
  heads_.push_back(to);
  costs_.push_back(cost);
  residual_.push_back(capacity);
  adjacency_[from].push_back(forward);
  heads_.push_back(from);
  costs_.push_back(-cost);
  residual_.push_back(0);
  adjacency_[to].push_back(forward + 1);
  if (cost < 0.0) has_negative_cost_ = true;
  return forward;
}

}  // namespace geacc
