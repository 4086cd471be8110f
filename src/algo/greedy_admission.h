// Greedy admission kernel: the admission order of Greedy-GEACC
// (Algorithm 2) and its per-pair feasibility test.
//
// Three loops admit candidate pairs this way: SortAllGreedySolver (the
// specification Greedy-GEACC is tested against), slot-greedy
// (slot/slot_solvers.cc) and the shard coordinator's repair pass
// (shard/coordinator.cc). Each sorts its candidates by AdmittedBefore and
// offers them in that order to one GreedyAdmission, which holds the
// remaining capacities and the pairs admitted so far. What differs between
// the callers — where candidates come from, extra gates, the conflict
// predicate, counters and sums — stays at the call site.
//
// Feasibility is monotone (capacities only shrink, conflicts only
// accumulate), so admitting in this order yields the same matching as the
// lazy-heap GreedySolver, pair for pair.

#ifndef GEACC_ALGO_GREEDY_ADMISSION_H_
#define GEACC_ALGO_GREEDY_ADMISSION_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/arrangement.h"
#include "core/conflict_graph.h"
#include "core/instance.h"
#include "core/types.h"

namespace geacc {
namespace algo {

// A candidate pair and its similarity.
struct ScoredPair {
  double similarity;
  EventId event;
  UserId user;
};

// Whether candidate `a` is admitted before `b`: similarity descending,
// then event ascending, then user ascending. `Candidate` is any type with
// `similarity`, `event` and `user` members.
template <typename Candidate>
bool AdmittedBefore(const Candidate& a, const Candidate& b) {
  if (a.similarity != b.similarity) return a.similarity > b.similarity;
  if (a.event != b.event) return a.event < b.event;
  return a.user < b.user;
}

// Sorts `candidates`, whose (similarity, event, user) keys are unique,
// into admission order. The lambda lets std::sort inline the comparator,
// which a function pointer would not.
template <typename Candidate>
void SortByAdmissionOrder(std::vector<Candidate>* candidates) {
  std::sort(candidates->begin(), candidates->end(),
            [](const Candidate& a, const Candidate& b) {
              return AdmittedBefore(a, b);
            });
}

class GreedyAdmission {
 public:
  enum class Verdict { kAdmitted, kCapacity, kConflict };

  struct Outcome {
    Verdict verdict;
    // kConflict only: the first event the user holds, in admission order,
    // that conflicts with the candidate.
    EventId blocking = kInvalidEvent;
  };

  // Starts with nothing admitted and these remaining capacities, indexed
  // by event and user id.
  GreedyAdmission(std::vector<int> event_capacity,
                  std::vector<int> user_capacity);

  // Starts with the capacities of `instance`.
  explicit GreedyAdmission(const Instance& instance);

  // Capacity test, then conflict test: rejects when the event or the user
  // has no capacity left, else when `conflicting(event, held)` holds for
  // some event the user already holds (checked in admission order), else
  // admits the pair.
  template <typename Conflicting>
  Outcome TryAdmit(EventId event, UserId user,
                   const Conflicting& conflicting) {
    if (event_remaining_[event] <= 0 || user_remaining_[user] <= 0) {
      return {Verdict::kCapacity};
    }
    for (const EventId held : arrangement_.EventsOf(user)) {
      if (conflicting(event, held)) return {Verdict::kConflict, held};
    }
    arrangement_.Add(event, user);
    --event_remaining_[event];
    --user_remaining_[user];
    return {Verdict::kAdmitted};
  }

  // TryAdmit against a conflict graph.
  Outcome TryAdmit(EventId event, UserId user, const ConflictGraph& conflicts) {
    return TryAdmit(event, user, [&conflicts](EventId a, EventId b) {
      return conflicts.AreConflicting(a, b);
    });
  }

  // The pairs admitted so far; each user's events in admission order.
  const Arrangement& arrangement() const { return arrangement_; }
  Arrangement TakeArrangement() { return std::move(arrangement_); }

  // Bytes held by the capacity arrays and the arrangement.
  uint64_t ByteEstimate() const;

 private:
  std::vector<int> event_remaining_;
  std::vector<int> user_remaining_;
  Arrangement arrangement_;
};

}  // namespace algo
}  // namespace geacc

#endif  // GEACC_ALGO_GREEDY_ADMISSION_H_
