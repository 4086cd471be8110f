#include "algo/greedy_admission.h"

#include <utility>

#include "util/memory.h"

namespace geacc {
namespace algo {
namespace {

std::vector<int> EventCapacities(const Instance& instance) {
  std::vector<int> capacity(instance.num_events());
  for (EventId v = 0; v < instance.num_events(); ++v) {
    capacity[v] = instance.event_capacity(v);
  }
  return capacity;
}

std::vector<int> UserCapacities(const Instance& instance) {
  std::vector<int> capacity(instance.num_users());
  for (UserId u = 0; u < instance.num_users(); ++u) {
    capacity[u] = instance.user_capacity(u);
  }
  return capacity;
}

}  // namespace

GreedyAdmission::GreedyAdmission(std::vector<int> event_capacity,
                                 std::vector<int> user_capacity)
    : event_remaining_(std::move(event_capacity)),
      user_remaining_(std::move(user_capacity)),
      arrangement_(static_cast<int>(event_remaining_.size()),
                   static_cast<int>(user_remaining_.size())) {}

GreedyAdmission::GreedyAdmission(const Instance& instance)
    : GreedyAdmission(EventCapacities(instance), UserCapacities(instance)) {}

uint64_t GreedyAdmission::ByteEstimate() const {
  return VectorBytes(event_remaining_) + VectorBytes(user_remaining_) +
         arrangement_.ByteEstimate();
}

}  // namespace algo
}  // namespace geacc
