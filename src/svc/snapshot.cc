#include "svc/snapshot.h"

#include <algorithm>
#include <utility>

#include "dyn/dynamic_instance.h"
#include "dyn/incremental_arranger.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace geacc::svc {

std::vector<ScoredEvent> ServiceSnapshot::TopKEvents(UserId u, int k) const {
  GEACC_CHECK(user_in_range(u)) << "user id " << u << " out of range";
  std::vector<ScoredEvent> candidates;
  if (k <= 0 || !user_active_[u]) return candidates;
  const std::vector<EventId>& held = user_events_[u];
  candidates.reserve(static_cast<size_t>(num_active_events_));
  for (EventId v = 0; v < event_slots(); ++v) {
    if (!event_active_[v]) continue;
    if (std::find(held.begin(), held.end(), v) != held.end()) continue;
    const double sim = Similarity(v, u);
    if (sim <= 0.0) continue;
    candidates.push_back({v, sim});
  }
  const auto better = [](const ScoredEvent& a, const ScoredEvent& b) {
    if (a.similarity != b.similarity) return a.similarity > b.similarity;
    return a.event < b.event;
  };
  const size_t keep = std::min<size_t>(candidates.size(), k);
  std::partial_sort(candidates.begin(), candidates.begin() + keep,
                    candidates.end(), better);
  candidates.resize(keep);
  return candidates;
}

std::vector<std::vector<ScoredEvent>> ServiceSnapshot::TopKEventsBatch(
    const std::vector<UserId>& users, int k, int threads) const {
  std::vector<std::vector<ScoredEvent>> results(users.size());
  if (users.empty()) return results;
  ThreadPool pool(ResolveThreadCount(threads));
  pool.ParallelFor(0, static_cast<int64_t>(users.size()),
                   [&](int /*chunk*/, int64_t begin, int64_t end) {
                     for (int64_t i = begin; i < end; ++i) {
                       results[i] = TopKEvents(users[i], k);
                     }
                   });
  return results;
}

std::vector<ScoredCandidate> ServiceSnapshot::Candidates(
    UserId first_user, int user_count) const {
  std::vector<ScoredCandidate> edges;
  const UserId begin = std::max<UserId>(first_user, 0);
  const UserId end = std::min<UserId>(
      user_slots(), begin + std::max(user_count, 0));
  for (UserId u = begin; u < end; ++u) {
    if (!user_active_[u]) continue;
    for (EventId v = 0; v < event_slots(); ++v) {
      if (!event_active_[v]) continue;
      const double sim = Similarity(v, u);
      if (sim <= 0.0) continue;
      edges.push_back({u, v, sim});
    }
  }
  return edges;
}

std::shared_ptr<const ServiceSnapshot> BuildSnapshot(
    const DynamicInstance& instance, const IncrementalArranger& arranger,
    int64_t applied_seq) {
  auto snapshot = std::shared_ptr<ServiceSnapshot>(new ServiceSnapshot());
  snapshot->epoch_ = instance.epoch();
  snapshot->applied_seq_ = applied_seq;
  snapshot->dim_ = instance.dim();
  snapshot->event_attributes_ = instance.event_attributes();
  snapshot->user_attributes_ = instance.user_attributes();
  snapshot->num_active_events_ = instance.num_active_events();
  snapshot->num_active_users_ = instance.num_active_users();
  snapshot->conflicts_ = instance.conflicts();
  snapshot->similarity_ = instance.similarity().Clone();

  const int event_slots = instance.event_slots();
  const int user_slots = instance.user_slots();
  snapshot->event_capacities_.resize(event_slots);
  snapshot->event_active_.resize(event_slots);
  for (EventId v = 0; v < event_slots; ++v) {
    snapshot->event_capacities_[v] = instance.event_capacity(v);
    snapshot->event_active_[v] = instance.event_active(v);
  }
  snapshot->user_capacities_.resize(user_slots);
  snapshot->user_active_.resize(user_slots);
  for (UserId u = 0; u < user_slots; ++u) {
    snapshot->user_capacities_[u] = instance.user_capacity(u);
    snapshot->user_active_[u] = instance.user_active(u);
  }

  const Arrangement& arrangement = arranger.arrangement();
  snapshot->user_events_.resize(user_slots);
  snapshot->event_users_.resize(event_slots);
  for (UserId u = 0; u < user_slots; ++u) {
    snapshot->user_events_[u] = arrangement.EventsOf(u);
  }
  for (EventId v = 0; v < event_slots; ++v) {
    snapshot->event_users_[v] = arranger.UsersOf(v);
  }
  snapshot->num_pairs_ = arrangement.size();
  snapshot->max_sum_ = arranger.max_sum();
  return snapshot;
}

}  // namespace geacc::svc
