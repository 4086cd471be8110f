#include "slot/slot_solvers.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "algo/bounds.h"
#include "algo/greedy_admission.h"
#include "algo/min_cost_flow_solver.h"
#include "algo/prune_solver.h"
#include "core/instance.h"
#include "core/types.h"
#include "obs/stats.h"
#include "util/check.h"
#include "util/memory.h"
#include "util/timer.h"

namespace geacc {
namespace slot {
namespace {

// Ascending slot ids set in `mask`.
std::vector<SlotId> SlotsOf(uint32_t mask) {
  std::vector<SlotId> slots;
  for (SlotId s = 0; s < kMaxTimeSlots; ++s) {
    if ((mask >> s) & 1u) slots.push_back(s);
  }
  return slots;
}

// Deterministic MaxSum of a leaf arrangement: pairs in sorted order, the
// masked similarity (bit-identical to the base function on admitted
// pairs). Both the joint solvers and the verify oracle sum this way, so
// equal arrangements yield bit-equal sums.
double LeafMaxSum(const Arrangement& arrangement, const Instance& sub) {
  double sum = 0.0;
  for (const auto& [v, u] : arrangement.SortedPairs()) {
    sum += sub.Similarity(v, u);
  }
  return sum;
}

// ---------------------------------------------------------------------------
// slot-greedy

class SlotGreedySolver final : public SlotSolver {
 public:
  explicit SlotGreedySolver(SolverOptions options) : options_(options) {}

  std::string Name() const override { return "slot-greedy"; }

  SlotSolveResult Solve(const SlottedInstance& slotted) const override {
    WallTimer timer;
    const Instance& base = slotted.base;
    const int num_events = base.num_events();
    const int num_users = base.num_users();

    // Every admissible (slot, event, user) triple with positive
    // similarity: slot allowed for the event and available to the user,
    // listed slot-ascending per pair.
    struct Candidate {
      double similarity;
      EventId event;
      UserId user;
      SlotId time_slot;
    };
    std::vector<Candidate> candidates;
    for (EventId v = 0; v < num_events; ++v) {
      for (UserId u = 0; u < num_users; ++u) {
        const double sim = base.Similarity(v, u);
        if (sim <= 0.0) continue;
        const uint32_t joint =
            slotted.event_allowed[v] & slotted.user_availability[u];
        for (SlotId s = 0; s < slotted.num_slots(); ++s) {
          if ((joint >> s) & 1u) candidates.push_back({sim, v, u, s});
        }
      }
    }
    // Admission order; the sort is stable, so ties on (similarity, event,
    // user) break by slot. An event's slot is fixed by its best admissible
    // pair.
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const Candidate& a, const Candidate& b) {
                       return algo::AdmittedBefore(a, b);
                     });

    SlotSolveResult result;
    result.slotting.assign(num_events, kInvalidSlot);
    result.slottings_considered = 1;

    algo::GreedyAdmission admission(base);
    for (const Candidate& c : candidates) {
      const SlotId fixed = result.slotting[c.event];
      if (fixed != kInvalidSlot && fixed != c.time_slot) continue;
      if (admission.arrangement().Contains(c.event, c.user)) continue;
      // Admitted events are always scheduled, so slotting[w] is valid.
      const auto conflicting = [&](EventId, EventId w) {
        return slotted.slots.Conflicting(result.slotting[w], c.time_slot);
      };
      if (admission.TryAdmit(c.event, c.user, conflicting).verdict ==
          algo::GreedyAdmission::Verdict::kAdmitted) {
        result.slotting[c.event] = c.time_slot;
      }
    }

    result.stats.logical_peak_bytes = VectorBytes(candidates) +
                                      VectorBytes(result.slotting) +
                                      admission.ByteEstimate();
    result.arrangement = admission.TakeArrangement();
    // Recompute the sum in the shared deterministic order rather than in
    // admission order (floating-point addition is order-sensitive).
    result.max_sum = LeafMaxSum(result.arrangement, base);
    result.stats.wall_seconds = timer.Seconds();
    return result;
  }

 private:
  SolverOptions options_;
};

// ---------------------------------------------------------------------------
// slot-mcf-sweep

class SlotMcfSweepSolver final : public SlotSolver {
 public:
  explicit SlotMcfSweepSolver(SolverOptions options)
      : options_(options), mcf_(options) {}

  std::string Name() const override { return "slot-mcf-sweep"; }

  SlotSolveResult Solve(const SlottedInstance& slotted) const override {
    WallTimer timer;
    const Instance& base = slotted.base;
    const int num_events = base.num_events();
    const int num_slots = slotted.num_slots();

    // Slots with identical available-user sets are interchangeable for
    // the dominance test (conflicts are compared separately).
    std::vector<int> slot_class(num_slots, 0);
    {
      std::vector<std::vector<uint8_t>> columns(num_slots);
      for (SlotId s = 0; s < num_slots; ++s) {
        columns[s].resize(base.num_users());
        for (UserId u = 0; u < base.num_users(); ++u) {
          columns[s][u] = (slotted.user_availability[u] >> s) & 1u;
        }
      }
      std::vector<int> representative;
      for (SlotId s = 0; s < num_slots; ++s) {
        int cls = -1;
        for (size_t i = 0; i < representative.size(); ++i) {
          if (columns[representative[i]] == columns[s]) {
            cls = static_cast<int>(i);
            break;
          }
        }
        if (cls < 0) {
          cls = static_cast<int>(representative.size());
          representative.push_back(s);
        }
        slot_class[s] = cls;
      }
    }

    std::vector<std::vector<SlotId>> choices(num_events);
    for (EventId v = 0; v < num_events; ++v) {
      choices[v] = SlotsOf(slotted.event_allowed[v]);
      GEACC_CHECK(!choices[v].empty());
    }

    SlotSolveResult result;
    result.slotting.assign(num_events, kInvalidSlot);
    result.arrangement = Arrangement(num_events, base.num_users());
    double best_sum = -std::numeric_limits<double>::infinity();

    // Signatures of already-priced slottings: per-event slot classes plus
    // the sorted derived conflict-pair keys. A new slotting with the same
    // classes and a superset of some priced slotting's conflicts admits
    // no arrangement the priced one does not, so its optimum cannot be
    // higher and the Δ-sweep is skipped. (Both sides are priced by the
    // same approximate sweep, so the incumbent keeps the per-slotting
    // 1/max c_u guarantee relative to the dominating slotting's optimum.)
    struct Signature {
      std::vector<int> classes;
      std::vector<uint64_t> conflict_keys;
    };
    std::vector<Signature> priced;

    uint64_t peak_bytes = 0;
    // Lexicographic odometer over the allowed-slot sets, event 0 most
    // significant, slots ascending — the shared enumeration order.
    std::vector<size_t> cursor(num_events, 0);
    Slotting slotting(num_events, kInvalidSlot);
    bool done = false;
    while (!done) {
      for (EventId v = 0; v < num_events; ++v) {
        slotting[v] = choices[v][cursor[v]];
      }
      ++result.slottings_considered;

      Signature sig;
      sig.classes.resize(num_events);
      for (EventId v = 0; v < num_events; ++v) {
        sig.classes[v] = slot_class[slotting[v]];
      }
      const ConflictGraph derived = DeriveConflicts(slotted, slotting);
      for (EventId v = 0; v < num_events; ++v) {
        for (const EventId w : derived.ConflictsOf(v)) {
          if (w > v) sig.conflict_keys.push_back(PairKey(v, w));
        }
      }
      std::sort(sig.conflict_keys.begin(), sig.conflict_keys.end());

      bool dominated = false;
      for (const Signature& p : priced) {
        if (p.classes == sig.classes &&
            std::includes(sig.conflict_keys.begin(), sig.conflict_keys.end(),
                          p.conflict_keys.begin(), p.conflict_keys.end())) {
          dominated = true;
          break;
        }
      }

      if (!dominated) {
        const Instance sub = MakeSubInstance(slotted, slotting);
        SolveResult solve = mcf_.Solve(sub);
        ++result.leaf_solves;
        result.stats.flow_augmentations += solve.stats.flow_augmentations;
        result.stats.conflicts_resolved += solve.stats.conflicts_resolved;
        peak_bytes = std::max(peak_bytes, solve.stats.logical_peak_bytes +
                                              sub.ByteEstimate());
        const double sum = LeafMaxSum(solve.arrangement, sub);
        if (sum > best_sum) {
          best_sum = sum;
          result.slotting = slotting;
          result.arrangement = std::move(solve.arrangement);
        }
        priced.push_back(std::move(sig));
      }

      // Advance the odometer (last event fastest).
      done = true;
      for (int v = num_events - 1; v >= 0; --v) {
        if (++cursor[v] < choices[v].size()) {
          done = false;
          break;
        }
        cursor[v] = 0;
      }
    }

    result.max_sum = best_sum;
    result.stats.logical_peak_bytes = peak_bytes + VectorBytes(cursor);
    result.stats.wall_seconds = timer.Seconds();
    return result;
  }

 private:
  SolverOptions options_;
  MinCostFlowSolver mcf_;
};

// ---------------------------------------------------------------------------
// slot-exact

class SlotExactSolver final : public SlotSolver {
 public:
  explicit SlotExactSolver(SolverOptions options)
      : options_(options), leaf_solver_(options) {}

  std::string Name() const override { return "slot-exact"; }

  SlotSolveResult Solve(const SlottedInstance& slotted) const override {
    WallTimer timer;
    const Instance& base = slotted.base;
    const int num_events = base.num_events();
    const int num_slots = slotted.num_slots();

    // mass[v][s]: capacity-clipped sum of the top positive similarities
    // between v and the users available in slot s — an upper bound on v's
    // contribution when scheduled into s (user capacities and derived
    // conflicts only remove pairs, never add value). Complete slottings
    // lose no optimality: an event with no matched users constrains
    // nothing, so every arrangement feasible under a partial slotting is
    // feasible under some completion of it.
    std::vector<std::vector<double>> mass(
        num_events, std::vector<double>(num_slots, 0.0));
    std::vector<double> sims;
    for (EventId v = 0; v < num_events; ++v) {
      for (SlotId s = 0; s < num_slots; ++s) {
        if (((slotted.event_allowed[v] >> s) & 1u) == 0) continue;
        sims.clear();
        for (UserId u = 0; u < base.num_users(); ++u) {
          if (((slotted.user_availability[u] >> s) & 1u) == 0) continue;
          const double sim = base.Similarity(v, u);
          if (sim > 0.0) sims.push_back(sim);
        }
        std::sort(sims.begin(), sims.end(), std::greater<double>());
        const size_t take = std::min<size_t>(
            sims.size(), static_cast<size_t>(base.event_capacity(v)));
        double total = 0.0;
        for (size_t i = 0; i < take; ++i) total += sims[i];
        mass[v][s] = total;
      }
    }
    std::vector<double> max_mass(num_events, 0.0);
    std::vector<std::vector<SlotId>> choices(num_events);
    for (EventId v = 0; v < num_events; ++v) {
      choices[v] = SlotsOf(slotted.event_allowed[v]);
      GEACC_CHECK(!choices[v].empty());
      double best = 0.0;
      for (const SlotId s : choices[v]) best = std::max(best, mass[v][s]);
      max_mass[v] = best;
    }
    // Complete slottings under a node at depth v (saturating product).
    std::vector<int64_t> suffix_count(num_events + 1, 1);
    for (int v = num_events - 1; v >= 0; --v) {
      const int64_t below = suffix_count[v + 1];
      const int64_t width = static_cast<int64_t>(choices[v].size());
      suffix_count[v] = below > std::numeric_limits<int64_t>::max() / width
                            ? std::numeric_limits<int64_t>::max()
                            : below * width;
    }

    // suffix_plain[v] = Σ_{w ≥ v} max_mass[w]: the per-event-mass bound on
    // the unassigned suffix (events are visited in id order).
    std::vector<double> suffix_plain(num_events + 1, 0.0);
    for (int v = num_events - 1; v >= 0; --v) {
      suffix_plain[v] = suffix_plain[v + 1] + max_mass[v];
    }

    // Conflict-aware tightening (algo/bounds.h): two events whose allowed
    // slots pairwise conflict end up in conflicting slots under EVERY
    // completion, so no user attends both — yet suffix_plain admits both
    // events' full top-user sets. Build the forced-conflict graph (v ~ w
    // iff every allowed-slot pair conflicts), clique-partition it, and cap
    // each clique via the per-user effective similarities (positive sim
    // AND some allowed slot where the user is available). The result is
    // an admissible suffix table ≤ suffix_plain; Descend takes the min.
    std::vector<double> suffix_tight;
    const algo::BoundMode bound_mode = algo::ParseBoundMode(options_.bound);
    if (bound_mode != algo::BoundMode::kLemma6 && num_events > 0 &&
        base.num_users() > 0) {
      ConflictGraph forced(num_events);
      for (EventId v = 0; v < num_events; ++v) {
        for (EventId w = v + 1; w < num_events; ++w) {
          bool always = true;
          for (const SlotId s : choices[v]) {
            for (const SlotId t : choices[w]) {
              if (!slotted.slots.Conflicting(s, t)) {
                always = false;
                break;
              }
            }
            if (!always) break;
          }
          if (always) forced.AddConflict(v, w);
        }
      }
      if (!forced.empty()) {
        const int num_users = base.num_users();
        std::vector<double> eff_sim(
            static_cast<size_t>(num_events) * num_users, 0.0);
        std::vector<double> event_bound(num_events);
        std::vector<int> event_caps(num_events);
        std::vector<int> user_caps(num_users);
        std::vector<EventId> order(num_events);
        for (EventId v = 0; v < num_events; ++v) {
          order[v] = v;
          event_bound[v] = max_mass[v];
          event_caps[v] = base.event_capacity(v);
          uint32_t reachable = 0;
          for (const SlotId s : choices[v]) reachable |= 1u << s;
          for (UserId u = 0; u < num_users; ++u) {
            if ((reachable & slotted.user_availability[u]) == 0) continue;
            const double sim = base.Similarity(v, u);
            if (sim > 0.0) {
              eff_sim[static_cast<size_t>(v) * num_users + u] = sim;
            }
          }
        }
        for (UserId u = 0; u < num_users; ++u) {
          user_caps[u] = base.user_capacity(u);
        }
        const algo::CliquePartition partition =
            algo::GreedyCliquePartition(forced);
        algo::BoundInputs inputs;
        inputs.num_events = num_events;
        inputs.num_users = num_users;
        inputs.sim = eff_sim.data();
        inputs.event_bound = event_bound.data();
        inputs.event_capacity = event_caps.data();
        inputs.user_capacity = user_caps.data();
        inputs.conflicts = &forced;
        inputs.order = order.data();
        suffix_tight = algo::ComputeSuffixBounds(inputs, bound_mode, partition);
      }
    }

    SlotSolveResult result;
    result.slotting.assign(num_events, kInvalidSlot);
    result.arrangement = Arrangement(num_events, base.num_users());

    Context ctx{slotted,
                mass,
                max_mass,
                choices,
                suffix_count,
                suffix_plain,
                suffix_tight.empty() ? nullptr : &suffix_tight,
                result,
                -std::numeric_limits<double>::infinity(),
                0};
    Slotting partial(num_events, kInvalidSlot);
    Descend(ctx, partial, 0, /*assigned=*/0.0);

    result.max_sum = ctx.best_sum;
    GEACC_STATS_ADD("slot.bound.clique_cuts", result.stats.bound_clique_cuts);
    result.stats.logical_peak_bytes =
        ctx.peak_bytes + VectorBytes(max_mass) + VectorBytes(suffix_count) +
        VectorBytes(suffix_plain) + VectorBytes(suffix_tight) +
        static_cast<uint64_t>(num_events) * num_slots * sizeof(double);
    result.stats.wall_seconds = timer.Seconds();
    return result;
  }

 private:
  struct Context {
    const SlottedInstance& slotted;
    const std::vector<std::vector<double>>& mass;
    const std::vector<double>& max_mass;
    const std::vector<std::vector<SlotId>>& choices;
    const std::vector<int64_t>& suffix_count;
    const std::vector<double>& suffix_plain;
    const std::vector<double>* suffix_tight;  // null = per-event mass only
    SlotSolveResult& result;
    double best_sum;
    uint64_t peak_bytes;
  };

  // DFS over events in id order, slots ascending — the same lexicographic
  // order the exhaustive oracle enumerates, so with the strict-improvement
  // incumbent the returned slotting is bit-identical to brute force.
  // `assigned` is Σ mass[w][slot_w] over the assigned prefix; each child's
  // admissible bound adds the unassigned suffix's per-event masses,
  // tightened (outer min) by the forced-conflict clique caps when those
  // were built. A prune that only the tightening achieved is credited to
  // bound_clique_cuts.
  void Descend(Context& ctx, Slotting& partial, EventId v,
               double assigned) const {
    const int num_events = ctx.slotted.base.num_events();
    if (v == num_events) {
      ++ctx.result.slottings_considered;
      ++ctx.result.leaf_solves;
      const Instance sub = MakeSubInstance(ctx.slotted, partial);
      SolveResult solve = leaf_solver_.Solve(sub);
      ctx.result.stats.search_invocations += solve.stats.search_invocations;
      ctx.result.stats.complete_searches += solve.stats.complete_searches;
      ctx.result.stats.prune_events += solve.stats.prune_events;
      ctx.result.stats.branches_matched += solve.stats.branches_matched;
      ctx.peak_bytes = std::max(
          ctx.peak_bytes, solve.stats.logical_peak_bytes + sub.ByteEstimate());
      const double sum = LeafMaxSum(solve.arrangement, sub);
      if (sum > ctx.best_sum) {
        ctx.best_sum = sum;
        ctx.result.slotting = partial;
        ctx.result.arrangement = std::move(solve.arrangement);
      }
      return;
    }
    for (const SlotId s : ctx.choices[v]) {
      const double child_assigned = assigned + ctx.mass[v][s];
      const double plain_bound = child_assigned + ctx.suffix_plain[v + 1];
      double child_bound = plain_bound;
      if (ctx.suffix_tight != nullptr) {
        child_bound = std::min(
            child_bound, child_assigned + (*ctx.suffix_tight)[v + 1]);
      }
      if (child_bound + algo::kBoundEps < ctx.best_sum) {
        // Every leaf below scores ≤ child_bound < the incumbent; skip the
        // subtree but account its slottings (saturating).
        const int64_t below = ctx.suffix_count[v + 1];
        int64_t& considered = ctx.result.slottings_considered;
        considered =
            considered > std::numeric_limits<int64_t>::max() - below
                ? std::numeric_limits<int64_t>::max()
                : considered + below;
        ++ctx.result.stats.prune_events;
        if (child_bound != plain_bound &&
            !(plain_bound + algo::kBoundEps < ctx.best_sum)) {
          ++ctx.result.stats.bound_clique_cuts;
        }
        continue;
      }
      partial[v] = s;
      Descend(ctx, partial, v + 1, child_assigned);
      partial[v] = kInvalidSlot;
    }
  }

  SolverOptions options_;
  PruneSolver leaf_solver_;
};

}  // namespace

std::unique_ptr<SlotSolver> CreateSlotSolver(const std::string& name,
                                             SolverOptions options) {
  const std::string error = ValidateSolverOptions(options);
  GEACC_CHECK(error.empty());
  if (name == "slot-greedy") {
    return std::make_unique<SlotGreedySolver>(options);
  }
  if (name == "slot-mcf-sweep") {
    return std::make_unique<SlotMcfSweepSolver>(options);
  }
  if (name == "slot-exact") {
    return std::make_unique<SlotExactSolver>(options);
  }
  return nullptr;
}

std::vector<std::string> SlotSolverNames() {
  return {"slot-greedy", "slot-mcf-sweep", "slot-exact"};
}

}  // namespace slot
}  // namespace geacc
