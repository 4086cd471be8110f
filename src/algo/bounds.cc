#include "algo/bounds.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <utility>

#include "flow/bipartite_ssp.h"
#include "util/check.h"

namespace geacc {
namespace algo {
namespace {

constexpr double kNoArc = std::numeric_limits<double>::infinity();

// Sum of the `take` largest entries of `values` (all entries ≥ 0).
// `values` is scratch and may be reordered.
double TopKSum(std::vector<double>& values, int64_t take) {
  if (take <= 0 || values.empty()) return 0.0;
  const size_t k = std::min<size_t>(values.size(), static_cast<size_t>(take));
  std::nth_element(values.begin(), values.begin() + (k - 1), values.end(),
                   std::greater<double>());
  double sum = 0.0;
  for (size_t i = 0; i < k; ++i) sum += values[i];
  return sum;
}

// Clique-cover cap for the clique members in `members` (all in the
// current suffix, |members| ≥ 2): each user attends at most one member
// (they pairwise conflict), so the joint contribution is at most the sum
// of the top Σc_v per-user best similarities. `scratch` is reused across
// calls.
double CliqueCap(const BoundInputs& in, const std::vector<EventId>& members,
                 std::vector<double>& scratch) {
  int64_t seats = 0;
  for (const EventId v : members) seats += in.event_capacity[v];
  scratch.clear();
  for (UserId u = 0; u < in.num_users; ++u) {
    if (in.user_capacity != nullptr && in.user_capacity[u] <= 0) continue;
    double best = 0.0;
    for (const EventId v : members) {
      best = std::max(best,
                      in.sim[static_cast<size_t>(v) * in.num_users + u]);
    }
    if (best > 0.0) scratch.push_back(best);
  }
  return TopKSum(scratch, seats);
}

}  // namespace

BoundMode ParseBoundMode(const std::string& name) {
  if (name == "lemma6") return BoundMode::kLemma6;
  if (name == "clique") return BoundMode::kClique;
  if (name == "clique-lp") return BoundMode::kCliqueLp;
  GEACC_CHECK(false) << "unvalidated bound mode '" << name << "'";
  return BoundMode::kLemma6;
}

CliquePartition GreedyCliquePartition(const ConflictGraph& conflicts) {
  CliquePartition partition;
  const int num_events = conflicts.num_events();
  partition.clique_of.resize(num_events, -1);
  for (EventId v = 0; v < num_events; ++v) {
    int home = -1;
    for (size_t q = 0; q < partition.cliques.size() && home < 0; ++q) {
      bool fits = true;
      for (const EventId w : partition.cliques[q]) {
        if (!conflicts.AreConflicting(v, w)) {
          fits = false;
          break;
        }
      }
      if (fits) home = static_cast<int>(q);
    }
    if (home < 0) {
      home = static_cast<int>(partition.cliques.size());
      partition.cliques.emplace_back();
    }
    partition.cliques[home].push_back(v);
    partition.clique_of[v] = home;
  }
  return partition;
}

double BMatchingBound(const BoundInputs& in, int suffix_start) {
  GEACC_CHECK(in.user_capacity != nullptr)
      << "the LP bound needs user capacities";
  const int num_suffix = in.num_events - suffix_start;
  if (num_suffix <= 0 || in.num_users == 0) return 0.0;
  // source → event (c_v) → user (1 per pair with sim > 0, cost −sim) →
  // sink (c_u); a pair without an arc costs +inf.
  const int num_users = in.num_users;
  std::vector<double> costs(static_cast<size_t>(num_suffix) * num_users);
  std::vector<int> event_capacity(num_suffix);
  for (int i = 0; i < num_suffix; ++i) {
    const EventId v = in.order[suffix_start + i];
    event_capacity[i] = in.event_capacity[v];
    const double* row = in.sim + static_cast<size_t>(v) * num_users;
    double* out = &costs[static_cast<size_t>(i) * num_users];
    for (UserId u = 0; u < num_users; ++u) {
      out[u] = row[u] > 0.0 ? -row[u] : kNoArc;
    }
  }
  // Successive cheapest augmentations while profitable: path costs are
  // non-decreasing, so the first non-negative path ends the sweep at the
  // max-weight b-matching (= the LP optimum; the polytope is integral).
  BipartiteSsp flow(std::move(costs), event_capacity,
                    std::vector<int>(in.user_capacity,
                                     in.user_capacity + num_users));
  while (flow.AugmentIfCheaper(0.0) > 0) {
  }
  return -flow.total_cost();
}

std::vector<double> ComputeSuffixBounds(const BoundInputs& in, BoundMode mode,
                                        const CliquePartition& partition) {
  std::vector<double> suffix(static_cast<size_t>(in.num_events) + 1, 0.0);
  if (mode == BoundMode::kLemma6) {
    for (int k = in.num_events - 1; k >= 0; --k) {
      suffix[k] = suffix[k + 1] + in.event_bound[in.order[k]];
    }
    return suffix;
  }

  // Clique-cover level: per suffix, group the remaining events by clique
  // and cap each multi-member group at min(Σ solo, per-user top-K). The
  // Lemma 6 value is an explicit outer min so the bound can only tighten.
  std::vector<std::vector<EventId>> group(partition.num_cliques());
  std::vector<int> touched;
  std::vector<double> scratch;
  for (int k = in.num_events - 1; k >= 0; --k) {
    // Rebuild the suffix groups incrementally: suffix k adds order[k].
    const EventId v = in.order[k];
    const int q = partition.clique_of[v];
    if (group[q].empty()) touched.push_back(q);
    group[q].push_back(v);

    double lemma6 = 0.0;
    double capped = 0.0;
    for (const int clique : touched) {
      double solo = 0.0;
      for (const EventId w : group[clique]) solo += in.event_bound[w];
      lemma6 += solo;
      capped += group[clique].size() >= 2
                    ? std::min(solo, CliqueCap(in, group[clique], scratch))
                    : solo;
    }
    double bound = std::min(lemma6, capped);
    if (mode == BoundMode::kCliqueLp) {
      bound = std::min(bound, BMatchingBound(in, k));
    }
    suffix[k] = bound;
  }
  return suffix;
}

}  // namespace algo
}  // namespace geacc
