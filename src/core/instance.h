// A GEACC problem instance (paper Definition 5).
//
// Holds the event side (attributes + capacities), the user side (attributes
// + capacities), the conflict graph over events, and the similarity
// function. Instances are immutable after construction; build them with
// InstanceBuilder or one of the generators in src/gen/.

#ifndef GEACC_CORE_INSTANCE_H_
#define GEACC_CORE_INSTANCE_H_

#include <memory>
#include <string>
#include <vector>

#include "core/attributes.h"
#include "core/conflict_graph.h"
#include "core/similarity.h"
#include "core/types.h"

namespace geacc {

class Instance {
 public:
  Instance(AttributeMatrix event_attributes, std::vector<int> event_capacities,
           AttributeMatrix user_attributes, std::vector<int> user_capacities,
           ConflictGraph conflicts,
           std::unique_ptr<SimilarityFunction> similarity);

  // Move-only; use Clone() for an explicit deep copy.
  Instance(Instance&&) = default;
  Instance& operator=(Instance&&) = default;
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  Instance Clone() const;

  int num_events() const { return event_attributes_.rows(); }
  int num_users() const { return user_attributes_.rows(); }
  int dim() const { return event_attributes_.dim(); }

  int event_capacity(EventId v) const {
    GEACC_DCHECK(v >= 0 && v < num_events());
    return event_capacities_[v];
  }
  int user_capacity(UserId u) const {
    GEACC_DCHECK(u >= 0 && u < num_users());
    return user_capacities_[u];
  }
  const std::vector<int>& event_capacities() const { return event_capacities_; }
  const std::vector<int>& user_capacities() const { return user_capacities_; }

  // Largest user capacity (the α in the approximation ratios); 0 if |U|=0.
  int max_user_capacity() const { return max_user_capacity_; }
  int max_event_capacity() const { return max_event_capacity_; }

  int64_t total_event_capacity() const { return total_event_capacity_; }
  int64_t total_user_capacity() const { return total_user_capacity_; }

  // sim(l_v, l_u) per the instance's similarity function. O(dim).
  double Similarity(EventId v, UserId u) const {
    return similarity_->Compute(event_attributes_.Row(v),
                                user_attributes_.Row(u), dim());
  }

  // Batched row: out[u] = Similarity(v, u) for every user, via the SIMD
  // kernels over the lazily-built blocked mirror of the user attributes.
  // `out` must hold num_users() doubles. O(|U| × dim); bit-identical to
  // the per-pair loop in strict mode (simd/kernels.h). Safe to call
  // concurrently from read-only solver workers.
  void SimilarityRow(EventId v, simd::FpMode fp, double* out) const {
    similarity_->ComputeBatch(event_attributes_.Row(v),
                              user_attributes_.Blocked(), fp, out);
  }

  const AttributeMatrix& event_attributes() const { return event_attributes_; }
  const AttributeMatrix& user_attributes() const { return user_attributes_; }
  const ConflictGraph& conflicts() const { return conflicts_; }
  const SimilarityFunction& similarity() const { return *similarity_; }

  // Structural sanity checks (capacity positivity, conflict-graph size,
  // attribute dimensions). Returns an empty string when valid, else a
  // description of the first problem found.
  std::string Validate() const;

  uint64_t ByteEstimate() const;

  // One-line summary for logs: |V|, |U|, d, densities.
  std::string DebugString() const;

 private:
  AttributeMatrix event_attributes_;
  std::vector<int> event_capacities_;
  AttributeMatrix user_attributes_;
  std::vector<int> user_capacities_;
  ConflictGraph conflicts_;
  std::unique_ptr<SimilarityFunction> similarity_;

  int max_user_capacity_ = 0;
  int max_event_capacity_ = 0;
  int64_t total_event_capacity_ = 0;
  int64_t total_user_capacity_ = 0;
};

// Incremental construction of small instances (examples, tests).
class InstanceBuilder {
 public:
  InstanceBuilder& SetSimilarity(std::unique_ptr<SimilarityFunction> sim);

  // Returns the new event's id.
  EventId AddEvent(std::vector<double> attributes, int capacity);
  // Returns the new user's id.
  UserId AddUser(std::vector<double> attributes, int capacity);

  InstanceBuilder& AddConflict(EventId a, EventId b);

  // Finalizes the instance. Defaults the similarity to EuclideanSimilarity
  // with T = max observed attribute value (or 1.0) if none was set.
  Instance Build();

 private:
  std::vector<std::vector<double>> event_rows_;
  std::vector<int> event_capacities_;
  std::vector<std::vector<double>> user_rows_;
  std::vector<int> user_capacities_;
  std::vector<std::pair<EventId, EventId>> conflicts_;
  std::unique_ptr<SimilarityFunction> similarity_;
};

}  // namespace geacc

#endif  // GEACC_CORE_INSTANCE_H_
