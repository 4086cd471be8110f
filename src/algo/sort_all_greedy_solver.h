// Sort-all greedy baseline (ablation of Greedy-GEACC's lazy heap).
//
// Materializes every positive-similarity pair, sorts all |V|·|U| of them
// by (similarity desc, event asc, user asc), and adds each pair in order
// if it is feasible at that moment — the shared admission kernel of
// algo/greedy_admission.h. Because feasibility is monotone
// (capacities only shrink, conflicts only accumulate), this produces the
// *identical* matching to Algorithm 2's heap construction — it is the
// specification Greedy-GEACC is tested against — at Θ(|V||U| log(|V||U|))
// time and Θ(|V||U|) memory, which is exactly the cost the paper's lazy
// NN frontiers avoid (quantified in bench/micro_solvers).
//
// Approximation ratio: 1 / (1 + max c_u), inherited from Theorem 3 (the
// output is pairwise identical to Greedy-GEACC's). Thread-safety:
// Solve() is const and re-entrant. Counters reported:
// sortall.pairs_materialized, sortall.pairs_scanned, sortall.matches.

#ifndef GEACC_ALGO_SORT_ALL_GREEDY_SOLVER_H_
#define GEACC_ALGO_SORT_ALL_GREEDY_SOLVER_H_

#include <string>

#include "core/instance.h"
#include "core/solver.h"

namespace geacc {

class SortAllGreedySolver final : public Solver {
 public:
  explicit SortAllGreedySolver(SolverOptions options = {})
      : options_(options) {}

  std::string Name() const override { return "greedy-sortall"; }
  SolveResult Solve(const Instance& instance) const override;

 private:
  SolverOptions options_;
};

}  // namespace geacc

#endif  // GEACC_ALGO_SORT_ALL_GREEDY_SOLVER_H_
