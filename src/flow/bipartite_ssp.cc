#include "flow/bipartite_ssp.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "obs/stats.h"
#include "util/check.h"
#include "util/memory.h"

namespace geacc {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// The reference engine's relax tolerance (flow/min_cost_flow.cc).
constexpr double kEps = 1e-9;
constexpr int kBlock = simd::kRelaxBlock;

// Reduced cost of an arc, clamped at 0 exactly as the reference does.
double Reduced(double cost, double tail_potential, double head_potential) {
  double reduced = (cost + tail_potential) - head_potential;
  if (reduced < 0.0) reduced = 0.0;
  return reduced;
}

}  // namespace

BipartiteSsp::Frontier::Frontier(int size)
    : keys_(static_cast<size_t>((size + kBlock - 1) / kBlock) * kBlock, kInf),
      block_min_((size + kBlock - 1) / kBlock, kInf) {}

void BipartiteSsp::Frontier::Clear() {
  std::fill(keys_.begin(), keys_.end(), kInf);
  std::fill(block_min_.begin(), block_min_.end(), kInf);
}

void BipartiteSsp::Frontier::Lower(int i, double value) {
  keys_[i] = value;
  double& block_min = block_min_[i / kBlock];
  if (value < block_min) block_min = value;
}

void BipartiteSsp::Frontier::Remove(int i) {
  keys_[i] = kInf;
  Refresh(i / kBlock);
}

void BipartiteSsp::Frontier::Refresh(int block) {
  // Four independent chains: no loop-carried latency, and the compiler
  // is free to keep them in vector lanes.
  const double* keys = &keys_[static_cast<size_t>(block) * kBlock];
  double low[4] = {kInf, kInf, kInf, kInf};
  for (int j = 0; j < kBlock; j += 4) {
    for (int lane = 0; lane < 4; ++lane) {
      low[lane] = keys[j + lane] < low[lane] ? keys[j + lane] : low[lane];
    }
  }
  const double a = low[0] < low[1] ? low[0] : low[1];
  const double b = low[2] < low[3] ? low[2] : low[3];
  block_min_[block] = a < b ? a : b;
}

double BipartiteSsp::Frontier::Min(int* index) const {
  double best = kInf;
  int best_block = -1;
  for (int b = 0; b < static_cast<int>(block_min_.size()); ++b) {
    if (block_min_[b] < best) {
      best = block_min_[b];
      best_block = b;
    }
  }
  if (best_block < 0) return kInf;
  int i = best_block * kBlock;
  while (keys_[i] != best) ++i;
  *index = i;
  return keys_[i];
}

uint64_t BipartiteSsp::Frontier::ByteEstimate() const {
  return VectorBytes(keys_) + VectorBytes(block_min_);
}

BipartiteSsp::BipartiteSsp(std::vector<double> pair_costs,
                           const std::vector<int>& event_capacity,
                           const std::vector<int>& user_capacity)
    : num_events_(static_cast<int>(event_capacity.size())),
      num_users_(static_cast<int>(user_capacity.size())),
      first_user_(num_events_ + 1),
      sink_(num_events_ + num_users_ + 1),
      cost_(std::move(pair_costs)),
      matched_(num_users_),
      potential_(sink_ + 1, 0.0),
      distance_(sink_ + 1, kInf),
      parent_(sink_ + 1, -1),
      event_frontier_(num_events_),
      user_frontier_(num_users_),
      relax_row_(simd::GetKernels(simd::ActiveLevel()).relax_row) {
  GEACC_CHECK_EQ(cost_.size(),
                 static_cast<size_t>(num_events_) * num_users_);
  residual_.reserve(sink_ + 1);
  residual_.push_back(0);  // the source
  residual_.insert(residual_.end(), event_capacity.begin(),
                   event_capacity.end());
  residual_.insert(residual_.end(), user_capacity.begin(),
                   user_capacity.end());
  residual_.push_back(0);  // the sink
  for (const int c : residual_) GEACC_CHECK_GE(c, 0);
  if (std::any_of(cost_.begin(), cost_.end(),
                  [](double c) { return c < 0.0; })) {
    BellmanFordPotentials();
  }
}

double& BipartiteSsp::PairCost(int event, int user) {
  return cost_[static_cast<size_t>(event - 1) * num_users_ +
               (user - first_user_)];
}

// The reference bootstraps negative costs with Bellman–Ford rounds over
// node ids in order. The initial network is a DAG in that order, so the
// first round fixes every distance, the second changes nothing, and one
// pass in node order with the reference's `candidate < dist − 1e-9` rule
// reproduces its distances bit for bit. Unreached nodes keep π = 0.
void BipartiteSsp::BellmanFordPotentials() {
  std::vector<double> dist(sink_ + 1, kInf);
  dist[0] = 0.0;
  for (int event = 1; event <= num_events_; ++event) {
    if (residual_[event] > 0) dist[event] = dist[0] + 0.0;
  }
  for (int event = 1; event <= num_events_; ++event) {
    if (dist[event] == kInf) continue;
    const double* row = &PairCost(event, first_user_);
    for (int u = 0; u < num_users_; ++u) {
      const double candidate = dist[event] + row[u];
      double& head = dist[first_user_ + u];
      if (candidate < head - kEps) head = candidate;
    }
  }
  for (int user = first_user_; user < sink_; ++user) {
    if (dist[user] == kInf || residual_[user] <= 0) continue;
    const double candidate = dist[user] + 0.0;
    if (candidate < dist[sink_] - kEps) dist[sink_] = candidate;
  }
  for (int node = 0; node <= sink_; ++node) {
    if (dist[node] < kInf) potential_[node] = dist[node];
  }
}

void BipartiteSsp::SettleEvent(int event, double d) {
  event_frontier_.Remove(event - 1);
  // The backward arc to the source needs no scan: the source is settled.
  // The kernel lowers the user keys and their block minima together.
  relaxations_ += relax_row_(
      &PairCost(event, first_user_), potential_[event],
      &potential_[first_user_], d, event, num_users_,
      &distance_[first_user_], user_frontier_.keys(), &parent_[first_user_],
      user_frontier_.block_min());
}

void BipartiteSsp::SettleUser(int user, double d) {
  user_frontier_.Remove(user - first_user_);
  for (const Matched& pair : matched_[user - first_user_]) {
    const double candidate =
        d + Reduced(-pair.cost, potential_[user], potential_[pair.event]);
    if (candidate + kEps < distance_[pair.event]) {
      ++relaxations_;
      distance_[pair.event] = candidate;
      parent_[pair.event] = user;
      event_frontier_.Lower(pair.event - 1, candidate);
    }
  }
  if (residual_[user] > 0) {
    const double candidate =
        d + Reduced(0.0, potential_[user], potential_[sink_]);
    if (candidate + kEps < distance_[sink_]) {
      ++relaxations_;
      distance_[sink_] = candidate;
      parent_[sink_] = user;
    }
  }
}

bool BipartiteSsp::FindPath() {
  std::fill(distance_.begin(), distance_.end(), kInf);
  event_frontier_.Clear();
  user_frontier_.Clear();
  relaxations_ = 0;
  distance_[0] = 0.0;
  int64_t settles = 1;  // the source, always first at distance 0
  for (int event = 1; event <= num_events_; ++event) {
    if (residual_[event] <= 0) continue;
    const double candidate =
        0.0 + Reduced(0.0, potential_[0], potential_[event]);
    ++relaxations_;  // every event starts at +inf
    distance_[event] = candidate;
    parent_[event] = 0;
    event_frontier_.Lower(event - 1, candidate);
  }
  // Settle in (distance, node id) order: events, then users, then the
  // sink win ties, and each frontier yields its lowest index.
  while (true) {
    int v = -1;
    int u = -1;
    const double event_key = event_frontier_.Min(&v);
    const double user_key = user_frontier_.Min(&u);
    if (event_key <= user_key && event_key <= distance_[sink_]) {
      if (event_key == kInf) break;  // the sink is unreachable
      ++settles;
      SettleEvent(1 + v, event_key);
    } else if (user_key <= distance_[sink_]) {
      ++settles;
      SettleUser(first_user_ + u, user_key);
    } else {
      ++settles;  // the sink: path found
      break;
    }
  }
  GEACC_STATS_ADD("flow.dijkstra.settles", settles);
  GEACC_STATS_ADD("flow.dijkstra.relaxations", relaxations_);
  const double sink_distance = distance_[sink_];
  if (sink_distance == kInf) return false;
  for (int node = 0; node <= sink_; ++node) {
    potential_[node] += std::min(distance_[node], sink_distance);
  }
  return true;
}

int64_t BipartiteSsp::AugmentIfCheaper(double cost_limit) {
  if (!FindPath()) return 0;
  // The path alternates forward pair arcs (user ← event) and backward
  // ones (event ← matched user); its cost is summed from the sink back in
  // the reference's order, the zero-cost end arcs included.
  double path_cost = 0.0;
  path_cost += 0.0;  // user → sink
  for (int user = parent_[sink_];;) {
    const int event = parent_[user];
    path_cost += PairCost(event, user);
    user = parent_[event];
    if (user == 0) break;  // the source
    path_cost += -FindMatch(user, event)->cost;
  }
  path_cost += 0.0;  // source → event
  if (path_cost >= cost_limit) return 0;

  --residual_[parent_[sink_]];
  for (int user = parent_[sink_];;) {
    const int event = parent_[user];
    double& cost = PairCost(event, user);
    matched_[user - first_user_].push_back({event, cost});
    cost = kInf;
    user = parent_[event];
    if (user == 0) {
      --residual_[event];
      break;
    }
    // The unit leaves the pair (event, user): its forward arc reopens.
    const auto it = FindMatch(user, event);
    PairCost(event, user) = it->cost;
    *it = matched_[user - first_user_].back();
    matched_[user - first_user_].pop_back();
  }
  total_flow_ += 1;
  total_cost_ += path_cost;
  GEACC_STATS_ADD("flow.augmenting_paths", 1);
  GEACC_STATS_ADD("flow.units_pushed", 1);
  return 1;
}

std::vector<BipartiteSsp::Matched>::iterator BipartiteSsp::FindMatch(
    int user, int event) {
  std::vector<Matched>& matches = matched_[user - first_user_];
  const auto it = std::find_if(matches.begin(), matches.end(),
                               [event](const Matched& m) {
                                 return m.event == event;
                               });
  GEACC_CHECK(it != matches.end())
      << "user " << user << " is not matched to event " << event;
  return it;
}

bool BipartiteSsp::CarriesFlow(int v, int u) const {
  if (cost_[static_cast<size_t>(v) * num_users_ + u] != kInf) return false;
  return std::any_of(matched_[u].begin(), matched_[u].end(),
                     [v](const Matched& m) { return m.event == 1 + v; });
}

double BipartiteSsp::Potential(int node) const {
  GEACC_CHECK(node >= 0 && node <= sink_);
  return potential_[node];
}

uint64_t BipartiteSsp::ByteEstimate() const {
  uint64_t bytes = VectorBytes(cost_) + VectorBytes(matched_) +
                   VectorBytes(residual_) + VectorBytes(potential_) +
                   VectorBytes(distance_) + VectorBytes(parent_) +
                   event_frontier_.ByteEstimate() +
                   user_frontier_.ByteEstimate();
  for (const auto& list : matched_) bytes += VectorBytes(list);
  return bytes;
}

}  // namespace geacc
