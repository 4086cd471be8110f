// Successive shortest paths on the dense GEACC network — the production
// min-cost-flow engine of MinCostFlow-GEACC and of the clique-lp bound.
//
// The network is source → event v (capacity c_v, cost 0) → user u
// (capacity 1, cost pair_costs[v·|U| + u]) → sink (capacity c_u, cost 0).
// Instead of a residual graph the engine keeps the dense row-major pair
// cost array (an entry is +inf while its pair carries flow, or when the
// pair has no arc at all), the residual capacities of the source and sink
// arcs, and per user the events it is matched to (its backward arcs).
//
// Exact-emulation contract. The engine runs the *same search* as the
// generic reference, SuccessiveShortestPaths over a FlowGraph built with
// source arcs, then pair arcs row by row, then sink arcs
// (flow/min_cost_flow.h), not merely an equally cheap one: the same node
// ids (source 0, events 1..|V|, users, sink last), settles in
// (distance, node id) order, a relax iff candidate + 1e-9 < distance,
// reduced costs (cost + π[tail]) − π[head] clamped at 0,
// π += min(distance, d_sink) after each search, path costs summed from
// the sink back, and the same Bellman–Ford bootstrap when a cost is
// negative. Pairs, total costs, potentials and the flow.dijkstra.* /
// flow.augmenting_paths counters are therefore bit-identical to the
// reference on every network, ties included (FlowEngineAgreementTest).
//
// How the search is cheaper: a pair arc needs no flow test (a used pair
// costs +inf) and no settled test (a settled head has distance ≤ the
// tail's, so the relax rule cannot fire), which makes one event's scan of
// its |U| arcs a straight-line SIMD row kernel (KernelTable::relax_row).
// There is no heap: the next node to settle is the minimum of a key array
// (distance while unsettled, +inf once settled) found through 32-wide
// block minima, lowest index first on ties.
//
// Cost per search O(|V|·|U| + (|V|+|U|)²/32); memory O(|V|·|U|) doubles
// (the cost array itself) plus O(|V| + |U| + Σ flow).

#ifndef GEACC_FLOW_BIPARTITE_SSP_H_
#define GEACC_FLOW_BIPARTITE_SSP_H_

#include <cstdint>
#include <vector>

#include "simd/kernels.h"

namespace geacc {

class BipartiteSsp {
 public:
  // `pair_costs` is |V|×|U| row-major; +inf marks a pair without an arc.
  // Capacities must be non-negative.
  BipartiteSsp(std::vector<double> pair_costs,
               const std::vector<int>& event_capacity,
               const std::vector<int>& user_capacity);

  // Finds the cheapest augmenting path and pushes one unit along it only
  // if its real cost is strictly below `cost_limit`; returns the units
  // pushed (0 or 1). Same contract as
  // SuccessiveShortestPaths::AugmentIfCheaper.
  int64_t AugmentIfCheaper(double cost_limit);

  // True iff the pair (v, u) carries a unit of flow.
  bool CarriesFlow(int v, int u) const;

  // Johnson potential of `node`, numbered as in the reference network.
  double Potential(int node) const;

  int64_t total_flow() const { return total_flow_; }
  double total_cost() const { return total_cost_; }

  uint64_t ByteEstimate() const;

 private:
  // Unsettled-node keys with 32-wide block minima, padded with +inf.
  class Frontier {
   public:
    explicit Frontier(int size);
    void Clear();
    // Sets key i to `value`, which must not exceed its current key.
    void Lower(int i, double value);
    // Marks i settled (key +inf) and refreshes its block.
    void Remove(int i);
    // The smallest key (+inf when empty); *index gets its lowest index.
    double Min(int* index) const;
    // For the row kernel, which lowers keys and block minima in bulk.
    double* keys() { return keys_.data(); }
    double* block_min() { return block_min_.data(); }
    uint64_t ByteEstimate() const;

   private:
    void Refresh(int block);

    std::vector<double> keys_;
    std::vector<double> block_min_;
  };

  struct Matched {
    int event;    // node id
    double cost;  // the pair's forward cost; its backward arc costs −cost
  };

  // Dijkstra over reduced costs; fills the parents and updates the
  // potentials. Returns false when the sink is unreachable.
  bool FindPath();
  void BellmanFordPotentials();
  void SettleEvent(int event, double d);
  void SettleUser(int user, double d);
  // The forward cost of the pair arc event → user (node ids).
  double& PairCost(int event, int user);
  // The entry of `user`'s matches for `event`; CHECK-fails if none.
  std::vector<Matched>::iterator FindMatch(int user, int event);

  int num_events_;
  int num_users_;
  int first_user_;  // node id of user 0
  int sink_;        // node id
  std::vector<double> cost_;  // pair costs, +inf while the pair carries flow
  std::vector<std::vector<Matched>> matched_;  // per user

  // Per node id. residual_ is the source → event arc's residual capacity
  // at an event and the user → sink arc's at a user; parent_ holds node
  // ids, 0 (the source) for an event reached directly.
  std::vector<int> residual_;
  std::vector<double> potential_;
  std::vector<double> distance_;
  std::vector<int> parent_;
  Frontier event_frontier_;  // indexed v = event node id − 1
  Frontier user_frontier_;   // indexed u = user node id − first_user_
  int64_t relaxations_ = 0;

  simd::RelaxRowFn relax_row_;
  int64_t total_flow_ = 0;
  double total_cost_ = 0.0;
};

}  // namespace geacc

#endif  // GEACC_FLOW_BIPARTITE_SSP_H_
