#include "algo/sort_all_greedy_solver.h"

#include <cstdint>
#include <vector>

#include "algo/greedy_admission.h"
#include "obs/stats.h"
#include "util/memory.h"
#include "util/timer.h"

namespace geacc {

SolveResult SortAllGreedySolver::Solve(const Instance& instance) const {
  WallTimer timer;
  SolverStats stats;
  const int num_events = instance.num_events();
  const int num_users = instance.num_users();

  std::vector<algo::ScoredPair> candidates;
  candidates.reserve(static_cast<size_t>(num_events) * num_users);
  for (EventId v = 0; v < num_events; ++v) {
    for (UserId u = 0; u < num_users; ++u) {
      const double sim = instance.Similarity(v, u);
      if (sim > 0.0) candidates.push_back({sim, v, u});
    }
  }
  algo::SortByAdmissionOrder(&candidates);

  algo::GreedyAdmission admission(instance);
  for (const algo::ScoredPair& candidate : candidates) {
    admission.TryAdmit(candidate.event, candidate.user, instance.conflicts());
  }
  const auto num_candidates = static_cast<int64_t>(candidates.size());
  GEACC_STATS_ADD("sortall.pairs_materialized", num_candidates);
  GEACC_STATS_ADD("sortall.pairs_scanned", num_candidates);
  GEACC_STATS_ADD("sortall.matches", admission.arrangement().size());

  stats.logical_peak_bytes =
      VectorBytes(candidates) + admission.ByteEstimate();
  stats.wall_seconds = timer.Seconds();
  return {admission.TakeArrangement(), stats};
}

}  // namespace geacc
