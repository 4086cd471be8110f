// The solve workloads: `batch` (Greedy- and MinCostFlow-GEACC on the
// paper's Table III instances plus the EBSN auckland preset) and `exact`
// (Prune-GEACC and slot-exact on instances they can finish). Solves go
// through the solver registry, serially, with default SolverOptions.

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "algo/bounds.h"
#include "algo/conflict_resolution.h"
#include "algo/min_cost_flow_solver.h"
#include "algo/solvers.h"
#include "common.h"
#include "core/preprocess.h"
#include "gen/ebsn.h"
#include "gen/schedule.h"
#include "gen/synthetic.h"
#include "index/knn_index.h"
#include "slot/slot_solvers.h"
#include "slot/slotted_gen.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "verify/audit.h"
#include "workloads.h"

namespace perfbench {
namespace {

using geacc::Arrangement;
using geacc::EventId;
using geacc::Instance;
using geacc::UserId;
using geacc::obs::StatsSnapshot;

struct NamedInstance {
  std::string name;
  Instance instance;
};

// Generating a solve workload's inputs takes milliseconds, so it is
// repeated and the median reported as the set-up time: kSetupRepeats times
// before the first solve, and once more after each greedy repeat (batch) or
// exact pass, so that the samples span the whole run rather than the few
// milliseconds at its start, when the host may be busy with something
// else.
constexpr int kSetupRepeats = 9;
// Greedy solves the batch set in milliseconds; it repeats this often per
// pass so that its per-instance median rests on more samples.
constexpr int kGreedyRepeats = 3;

uint64_t MaxSumBits(double max_sum) {
  uint64_t bits = 0;
  std::memcpy(&bits, &max_sum, sizeof(bits));
  return bits;
}

// --- batch ---------------------------------------------------------------

// Table III's generator (d = 20, c_v ~ U[1,50], c_u ~ U[1,4]) at |V| = 20,
// |U| = 200, kBatchSynthetic instances with rho cycling through 0.25, 0.5
// and 0.75, plus kBatchEbsn instances of the EBSN auckland preset (clustered
// tag geometry) at half its size, 18 x 285 instead of 37 x 569. Not the
// paper's default |U| = 1000, |V| = 100 and 150: there one MinCostFlow
// solve takes 2 to 4 s, so a run would hold five or six of them, and the
// flow work of a single instance (auckland's augmenting paths: 791 to 1105
// over ten seeds) moves its time by more than the time bound from seed to
// seed. Many small instances average that out, and a run solves each of
// them a few dozen times.
constexpr int kBatchSynthetic = 24;
constexpr int kBatchEbsn = 12;

std::vector<NamedInstance> MakeBatchSet(const RunOptions& options) {
  const std::vector<double> densities = {0.25, 0.5, 0.75};
  std::vector<NamedInstance> set;
  for (int i = 0; i < (options.tiny ? 2 : kBatchSynthetic); ++i) {
    geacc::SyntheticConfig config;  // Table III: d=20, c_v~U[1,50], c_u~U[1,4]
    config.num_events = 20;
    config.num_users = 200;
    config.conflict_density = densities[i % densities.size()];
    config.seed = DeriveSeed(options.seed, i);
    set.push_back({geacc::StrFormat("synthetic_v20_rho%.2f_%d",
                                    config.conflict_density, i),
                   geacc::GenerateSynthetic(config)});
  }
  for (int i = 0; i < (options.tiny ? 1 : kBatchEbsn); ++i) {
    geacc::EbsnConfig ebsn = geacc::EbsnCityPreset("auckland");
    ebsn.num_events = options.tiny ? 10 : 18;
    ebsn.num_users = options.tiny ? 100 : 285;
    ebsn.seed = DeriveSeed(options.seed, 100 + i);
    set.push_back({geacc::StrFormat("ebsn_auckland_half_%d", i),
                   geacc::GenerateEbsn(ebsn)});
  }
  return set;
}

// Breaks one arrangement on purpose: one more pair on an event that is
// already full, or, failing that, a pair stored twice.
void InjectInfeasiblePair(const Instance& instance, Arrangement* arrangement) {
  for (EventId v = 0; v < instance.num_events(); ++v) {
    if (arrangement->EventLoad(v) < instance.event_capacity(v)) continue;
    for (UserId u = 0; u < instance.num_users(); ++u) {
      if (!arrangement->Contains(v, u)) {
        arrangement->AddUnchecked(v, u);
        return;
      }
    }
  }
  const auto pairs = arrangement->SortedPairs();
  if (!pairs.empty()) {
    arrangement->AddUnchecked(pairs.front().first, pairs.front().second);
  }
}

// Audits one solve; false (and a recorded check failure) if it is broken.
bool AuditSolve(const std::string& solver, const NamedInstance& item,
                const Arrangement& arrangement, Outcome* out) {
  geacc::verify::AuditOptions audit_options;
  audit_options.check_maximality =
      geacc::verify::SolverGuaranteesMaximality(solver);
  audit_options.max_violations = 8;
  const geacc::verify::AuditReport report =
      geacc::verify::AuditArrangement(item.instance, arrangement,
                                      audit_options);
  out->Check(report.ok(), solver + " on " + item.name +
                              " fails the audit: " + report.Summary());
  return report.ok();
}

// MinCostFlow-GEACC assembled from its layers' public entry points — the
// flow solve without conflicts, then Greedy conflict resolution per user —
// exactly as MinCostFlowSolver::Solve composes them with threads = 1.
Arrangement ComposedMinCostFlow(const Instance& instance, Tracer* tracer,
                                StatsSnapshot* stats, int64_t* evictions) {
  const geacc::MinCostFlowSolver solver;
  Arrangement unconstrained;
  geacc::SolverStats solver_stats;
  Accumulate(tracer->RunObserved("flow.solve_without_conflicts",
                                 [&] {
                                   unconstrained = solver.SolveWithoutConflicts(
                                       instance, &solver_stats);
                                 }),
             stats);
  Arrangement result(instance.num_events(), instance.num_users());
  tracer->Run("algo.resolve", [&] {
    for (UserId u = 0; u < instance.num_users(); ++u) {
      const std::vector<EventId>& assigned = unconstrained.EventsOf(u);
      if (assigned.empty()) continue;
      const std::vector<EventId> kept =
          geacc::GreedySelectNonConflicting(instance, u, assigned);
      *evictions += static_cast<int64_t>(assigned.size() - kept.size());
      for (const EventId v : kept) result.Add(v, u);
    }
  });
  return result;
}

void RunBatchTraced(const RunOptions& options,
                    const std::vector<NamedInstance>& set, Outcome* out) {
  const auto greedy = geacc::CreateSolver("greedy");
  const auto mcf = geacc::CreateSolver("mincostflow");

  // Untraced reference pass: the registry solves the traced pass must
  // reproduce, and the time the overhead share is measured against.
  geacc::WallTimer untraced_clock;
  std::vector<geacc::SolveResult> reference;
  for (const NamedInstance& item : set) {
    reference.push_back(greedy->Solve(item.instance));
    reference.push_back(mcf->Solve(item.instance));
  }
  const double untraced_seconds = untraced_clock.Seconds();

  Tracer tracer;
  StatsSnapshot greedy_stats;
  StatsSnapshot flow_stats;
  int64_t evictions = 0;
  for (size_t i = 0; i < set.size(); ++i) {
    const Instance& instance = set[i].instance;
    geacc::SolveResult greedy_result;
    Accumulate(tracer.RunObserved("e2e.greedy",
                                  [&] {
                                    greedy_result = greedy->Solve(instance);
                                  }),
               &greedy_stats);
    Arrangement mcf_result;
    tracer.Run("e2e.mincostflow", [&] {
      mcf_result =
          ComposedMinCostFlow(instance, &tracer, &flow_stats, &evictions);
    });
    out->Check(greedy_result.arrangement.SortedPairs() ==
                   reference[2 * i].arrangement.SortedPairs(),
               "traced greedy differs from the untraced solve on " +
                   set[i].name);
    out->Check(mcf_result.SortedPairs() ==
                   reference[2 * i + 1].arrangement.SortedPairs(),
               "composed MinCostFlow differs from the registry solve on " +
                   set[i].name);
    out->failed +=
        !AuditSolve("greedy", set[i], greedy_result.arrangement, out);
    out->failed += !AuditSolve("mincostflow", set[i], mcf_result, out);
    out->attempted += 2;

    // Probes: each layer's public entry point on the same instance.
    tracer.Run("core.reduce",
               [&] { (void)geacc::ReduceInstance(instance, /*threads=*/1); });
    tracer.Run("index.build", [&] {
      (void)geacc::MakeIndex("linear", instance.user_attributes(),
                             instance.similarity());
      (void)geacc::MakeIndex("linear", instance.event_attributes(),
                             instance.similarity());
    });
    std::vector<double> row(instance.num_users());
    tracer.Run("simd.score", [&] {
      for (EventId v = 0; v < instance.num_events(); ++v) {
        instance.SimilarityRow(v, geacc::simd::FpMode::kStrict, row.data());
      }
    });
  }

  StatsSnapshot solves = greedy_stats;
  Accumulate(flow_stats, &solves);
  const int dim = set.front().instance.dim();
  const double batched_evals = Counter(solves, "simd.batched_evals");
  auto& v = out->values;
  v["core.reduce_s"] = tracer.Total("core.reduce");
  v["simd.score_s"] = tracer.Total("simd.score");
  v["simd.evals"] = batched_evals + Counter(solves, "simd.scalar_evals");
  v["simd.bytes_computed"] = batched_evals * dim * sizeof(double);
  v["index.build_s"] = tracer.Total("index.build");
  v["index.cursor_steps"] = Counter(solves, "index.linear.cursor_steps");
  v["index.points_scanned"] = Counter(solves, "index.linear.points_scanned");
  v["index.scans_per_step"] =
      SafeRatio(v["index.points_scanned"], v["index.cursor_steps"]);
  v["algo.greedy_heap_pops"] = Counter(greedy_stats, "greedy.heap_pops");
  v["algo.greedy_cursor_skips"] = Counter(greedy_stats, "greedy.cursor_skips");
  v["algo.greedy_match_share"] = SafeRatio(
      Counter(greedy_stats, "greedy.matches"), v["algo.greedy_heap_pops"]);
  v["flow.sweep_s"] = tracer.Total("mcf.flow_sweep");
  v["flow.augmenting_paths"] = Counter(flow_stats, "flow.augmenting_paths");
  v["flow.relaxations"] = Counter(flow_stats, "flow.dijkstra.relaxations") +
                          Counter(flow_stats, "flow.spfa.relaxations");
  v["flow.relaxations_per_path"] =
      SafeRatio(v["flow.relaxations"], v["flow.augmenting_paths"]);
  v["algo.resolve_s"] = tracer.Total("algo.resolve");
  v["algo.resolve_evictions"] = static_cast<double>(evictions);
  v["trace.unattributed_share"] = tracer.UnattributedShare();
  v["trace.overhead_share"] =
      SafeRatio(tracer.EndToEndTotal() - untraced_seconds, untraced_seconds);
  tracer.Write(options.workdir + "/spans.json");
}

// --- exact ---------------------------------------------------------------

// What the bound layer (algo/bounds.h) reads for one instance: row-major
// similarities and each event's solo cap, the sum of its top-c_v
// similarities. `allowed`, when given, zeroes pairs that can never be
// matched (slotted instances).
struct BoundTables {
  std::vector<double> sim;
  std::vector<double> event_bound;
  std::vector<int> event_capacity;
  std::vector<int> user_capacity;
  std::vector<EventId> order;  // identity

  BoundTables(const Instance& instance, const std::vector<uint8_t>* allowed)
      : sim(static_cast<size_t>(instance.num_events()) * instance.num_users()),
        event_bound(instance.num_events(), 0.0),
        event_capacity(instance.num_events()),
        user_capacity(instance.num_users()),
        order(instance.num_events()) {
    const int num_users = instance.num_users();
    for (EventId v = 0; v < instance.num_events(); ++v) {
      double* row = sim.data() + static_cast<size_t>(v) * num_users;
      for (UserId u = 0; u < num_users; ++u) {
        const bool ok = allowed == nullptr ||
                        (*allowed)[static_cast<size_t>(v) * num_users + u];
        row[u] = ok ? std::max(0.0, instance.Similarity(v, u)) : 0.0;
      }
      std::vector<double> best(row, row + num_users);
      std::sort(best.rbegin(), best.rend());
      const int take = std::min(num_users, instance.event_capacity(v));
      for (int k = 0; k < take; ++k) event_bound[v] += best[k];
      event_capacity[v] = instance.event_capacity(v);
      order[v] = v;
    }
    for (UserId u = 0; u < num_users; ++u) {
      user_capacity[u] = instance.user_capacity(u);
    }
  }

  geacc::algo::BoundInputs Inputs(const geacc::ConflictGraph& conflicts) const {
    geacc::algo::BoundInputs inputs;
    inputs.num_events = static_cast<int>(event_bound.size());
    inputs.num_users = static_cast<int>(user_capacity.size());
    inputs.sim = sim.data();
    inputs.event_bound = event_bound.data();
    inputs.event_capacity = event_capacity.data();
    inputs.user_capacity = user_capacity.data();
    inputs.conflicts = &conflicts;
    inputs.order = order.data();
    return inputs;
  }
};

// Upper bound on an instance's optimum: the clique-lp suffix bound over the
// whole event set.
double CliqueLpBound(const Instance& instance,
                     const geacc::ConflictGraph& conflicts,
                     const std::vector<uint8_t>* allowed) {
  const BoundTables tables(instance, allowed);
  return geacc::algo::ComputeSuffixBounds(
      tables.Inputs(conflicts), geacc::algo::BoundMode::kCliqueLp,
      geacc::algo::GreedyCliquePartition(conflicts))[0];
}

struct ExactSet {
  std::vector<NamedInstance> flat;
  std::vector<geacc::slot::SlottedInstance> slotted;
};

// Replaces an instance's conflict graph, keeping everything else.
Instance WithConflicts(const Instance& base, geacc::ConflictGraph conflicts) {
  std::vector<int> event_capacities(base.num_events());
  std::vector<int> user_capacities(base.num_users());
  for (EventId v = 0; v < base.num_events(); ++v) {
    event_capacities[v] = base.event_capacity(v);
  }
  for (UserId u = 0; u < base.num_users(); ++u) {
    user_capacities[u] = base.user_capacity(u);
  }
  return Instance(base.event_attributes(), std::move(event_capacities),
                  base.user_attributes(), std::move(user_capacities),
                  std::move(conflicts), base.similarity().Clone());
}

ExactSet MakeExactSet(const RunOptions& options) {
  // Per family: instances of |V| = 4 events and 6 users, c_v ~ U[1,10],
  // c_u ~ U[1,2] (the fig6 setting, smaller: at |V| = 5 single solves take
  // 0.3-5.6 s, too few per run to be steady). Many small instances keep
  // the set's total work within a few percent across seeds: a Prune solve
  // here takes about 1 ms, with a standard deviation across instances of
  // 1.2 times the mean, so 1280 of them sum to within about 3% (one
  // standard deviation); with 320 the prune time of two seeds differed by
  // 18% on the same host.
  const int events = 4;
  const int kExactUsers = 6;
  const std::vector<double> densities = {0.25, 0.5, 0.75};
  const int rounds = options.tiny ? 1 : 320;
  ExactSet set;
  uint64_t stream = 0;
  for (int r = 0; r < rounds; ++r) {
    for (size_t i = 0; i < 2; ++i) {
      geacc::SyntheticConfig config;
      config.num_events = events;
      config.num_users = kExactUsers;
      config.event_capacity = geacc::DistributionSpec::Uniform(1.0, 10.0);
      config.user_capacity = geacc::DistributionSpec::Uniform(1.0, 2.0);
      config.conflict_density = densities[(r + i) % densities.size()];
      config.seed = DeriveSeed(options.seed, 1000 + stream++);
      set.flat.push_back(
          {geacc::StrFormat("random_v%d_rho%.2f_%d_%zu", events,
                            config.conflict_density, r, i),
           geacc::GenerateSynthetic(config)});

      // Timetable family: the same kind of instance, conflicts from
      // overlapping time windows (an interval graph).
      config.conflict_density = 0.0;
      config.seed = DeriveSeed(options.seed, 1000 + stream++);
      const Instance base = geacc::GenerateSynthetic(config);
      geacc::Rng rng(DeriveSeed(options.seed, 1000 + stream++));
      const auto windows = geacc::RandomSchedule(
          events, /*horizon_hours=*/8.0, /*min_duration_hours=*/1.0,
          /*max_duration_hours=*/3.0, /*city_km=*/30.0, rng);
      set.flat.push_back(
          {geacc::StrFormat("timetable_v%d_%d_%zu", events, r, i),
           WithConflicts(base, geacc::ConflictsFromSchedule(
                                   windows, /*speed_kmph=*/0.0))});
    }
    // fig_slotted-style joint slot + participant instances, every second
    // round (960 in all; a slot-exact solve takes about 0.5 ms with a
    // standard deviation of 1.7 times that).
    if (r % 2 != 0) continue;
    geacc::slot::SlottedGenConfig slotted;
    slotted.num_events = 3;
    slotted.num_users = options.tiny ? 6 : 8;
    slotted.dim = 4;
    slotted.max_attribute = 100.0;
    slotted.num_slots = 4;
    slotted.allow_probability = 0.5;
    slotted.availability_count = geacc::DistributionSpec::Uniform(1.0, 4.0);
    for (int k = 0; k < 6; ++k) {
      slotted.seed = DeriveSeed(options.seed, 1000 + stream++);
      set.slotted.push_back(geacc::slot::GenerateSlotted(slotted));
    }
  }
  return set;
}

// Pairs a user could attend in some slot its event may take.
std::vector<uint8_t> SlottablePairs(
    const geacc::slot::SlottedInstance& slotted) {
  const int num_events = slotted.base.num_events();
  const int num_users = slotted.base.num_users();
  std::vector<uint8_t> allowed(static_cast<size_t>(num_events) * num_users);
  for (EventId v = 0; v < num_events; ++v) {
    for (UserId u = 0; u < num_users; ++u) {
      allowed[static_cast<size_t>(v) * num_users + u] =
          (slotted.event_allowed[v] & slotted.user_availability[u]) != 0;
    }
  }
  return allowed;
}

struct ExactPass {
  std::vector<double> prune_seconds;  // per instance
  std::vector<double> slot_seconds;
  std::vector<geacc::SolveResult> prune;
  std::vector<geacc::slot::SlotSolveResult> slot;
  int64_t broken = 0;  // solves whose output check failed
};

ExactPass SolveExactSet(const ExactSet& set) {
  const auto prune = geacc::CreateSolver("prune");
  const auto slot_exact = geacc::slot::CreateSlotSolver("slot-exact");
  ExactPass pass;
  for (const NamedInstance& item : set.flat) {
    const geacc::WallTimer clock;
    pass.prune.push_back(prune->Solve(item.instance));
    pass.prune_seconds.push_back(clock.Seconds());
  }
  for (const auto& slotted : set.slotted) {
    const geacc::WallTimer clock;
    pass.slot.push_back(slot_exact->Solve(slotted));
    pass.slot_seconds.push_back(clock.Seconds());
  }
  return pass;
}

// Output checks on one pass of the exact set: audits, optimum ≥ Greedy,
// optimum ≤ the clique-lp bound.
void CheckExactPass(const RunOptions& options, const ExactSet& set,
                    ExactPass* pass, Outcome* out) {
  const auto greedy = geacc::CreateSolver("greedy");
  const auto slot_greedy = geacc::slot::CreateSlotSolver("slot-greedy");
  for (size_t i = 0; i < set.flat.size(); ++i) {
    const NamedInstance& item = set.flat[i];
    Arrangement& optimum = pass->prune[i].arrangement;
    if (i == 0 && options.fault == "infeasible-pair") {
      InjectInfeasiblePair(item.instance, &optimum);
    }
    pass->broken += !AuditSolve("prune", item, optimum, out);
    const double best = optimum.MaxSum(item.instance);
    const double heuristic =
        greedy->Solve(item.instance).arrangement.MaxSum(item.instance);
    const double bound =
        CliqueLpBound(item.instance, item.instance.conflicts(), nullptr);
    out->Check(best + geacc::algo::kBoundEps >= heuristic,
               geacc::StrFormat("prune optimum %.9f below greedy %.9f on %s",
                                best, heuristic, item.name.c_str()));
    out->Check(best <= bound + geacc::algo::kBoundEps,
               geacc::StrFormat("prune optimum %.9f above the clique-lp bound "
                                "%.9f on %s",
                                best, bound, item.name.c_str()));
  }
  for (size_t i = 0; i < set.slotted.size(); ++i) {
    const auto& slotted = set.slotted[i];
    const auto& result = pass->slot[i];
    const std::string name = geacc::StrFormat("slotted_%zu", i);
    const std::string problem =
        geacc::slot::AuditSlotted(slotted, result.slotting, result.arrangement);
    out->Check(problem.empty(), "slot-exact on " + name + ": " + problem);
    pass->broken += !problem.empty();
    const double heuristic = slot_greedy->Solve(slotted).max_sum;
    const std::vector<uint8_t> allowed = SlottablePairs(slotted);
    const double bound = CliqueLpBound(
        slotted.base, geacc::ConflictGraph(slotted.base.num_events()),
        &allowed);
    out->Check(result.max_sum + geacc::algo::kBoundEps >= heuristic,
               geacc::StrFormat("slot-exact optimum %.9f below slot-greedy "
                                "%.9f on %s",
                                result.max_sum, heuristic, name.c_str()));
    out->Check(result.max_sum <= bound + geacc::algo::kBoundEps,
               geacc::StrFormat("slot-exact optimum %.9f above the lp bound "
                                "%.9f on %s",
                                result.max_sum, bound, name.c_str()));
  }
}

double ExactMaxSum(const ExactSet& set, const ExactPass& pass) {
  double total = 0.0;
  for (size_t i = 0; i < set.flat.size(); ++i) {
    total += pass.prune[i].arrangement.MaxSum(set.flat[i].instance);
  }
  for (const auto& result : pass.slot) total += result.max_sum;
  return total;
}

void RunExactTraced(const RunOptions& options, const ExactSet& set,
                    Outcome* out) {
  geacc::WallTimer untraced_clock;
  ExactPass reference = SolveExactSet(set);
  const double untraced_seconds = untraced_clock.Seconds();
  CheckExactPass(options, set, &reference, out);
  out->failed = reference.broken;

  const auto prune = geacc::CreateSolver("prune");
  const auto slot_exact = geacc::slot::CreateSlotSolver("slot-exact");
  Tracer tracer;
  StatsSnapshot prune_stats;
  StatsSnapshot slot_stats;
  double slottings = 0.0;
  double leaf_solves = 0.0;
  for (size_t i = 0; i < set.flat.size(); ++i) {
    const Instance& instance = set.flat[i].instance;
    geacc::SolveResult result;
    Accumulate(tracer.RunObserved("e2e.prune",
                                  [&] { result = prune->Solve(instance); }),
               &prune_stats);
    out->Check(MaxSumBits(result.arrangement.MaxSum(instance)) ==
                   MaxSumBits(reference.prune[i].arrangement.MaxSum(instance)),
               "traced prune differs from the untraced solve on " +
                   set.flat[i].name);
    ++out->attempted;

    // Probes: the bound layer's precompute on the same instance.
    geacc::algo::CliquePartition partition;
    tracer.Run("algo.bounds.partition", [&] {
      partition = geacc::algo::GreedyCliquePartition(instance.conflicts());
    });
    const BoundTables tables(instance, nullptr);
    tracer.Run("algo.bounds.suffix", [&] {
      (void)geacc::algo::ComputeSuffixBounds(
          tables.Inputs(instance.conflicts()),
          geacc::algo::BoundMode::kClique, partition);
    });
  }
  for (size_t i = 0; i < set.slotted.size(); ++i) {
    geacc::slot::SlotSolveResult result;
    Accumulate(tracer.RunObserved(
                   "e2e.slot_exact",
                   [&] { result = slot_exact->Solve(set.slotted[i]); }),
               &slot_stats);
    out->Check(MaxSumBits(result.max_sum) ==
                   MaxSumBits(reference.slot[i].max_sum),
               geacc::StrFormat("traced slot-exact differs on slotted_%zu", i));
    slottings += static_cast<double>(result.slottings_considered);
    leaf_solves += static_cast<double>(result.leaf_solves);
    ++out->attempted;
  }

  StatsSnapshot solves = prune_stats;
  Accumulate(slot_stats, &solves);
  auto timer_seconds = [](const StatsSnapshot& stats, const std::string& name) {
    const auto it = stats.timers.find(name);
    return it == stats.timers.end() ? 0.0 : it->second.seconds;
  };
  const double batched_evals = Counter(solves, "simd.batched_evals");
  auto& v = out->values;
  v["simd.evals"] = batched_evals + Counter(solves, "simd.scalar_evals");
  v["simd.bytes_computed"] =
      batched_evals * set.flat.front().instance.dim() * sizeof(double);
  v["algo.bounds_partition_s"] = tracer.Total("algo.bounds.partition");
  v["algo.bounds_suffix_s"] = tracer.Total("algo.bounds.suffix");
  v["algo.bounds_clique_cuts"] = Counter(solves, "prune.bound.clique_cuts") +
                                 Counter(solves, "slot.bound.clique_cuts");
  v["algo.prune_search_s"] = timer_seconds(prune_stats, "prune.search");
  v["algo.prune_nodes"] = Counter(prune_stats, "prune.nodes_visited");
  v["algo.prune_complete"] = Counter(prune_stats, "prune.complete_searches");
  v["algo.prune_cut_share"] = SafeRatio(
      Counter(prune_stats, "prune.nodes_pruned"), v["algo.prune_nodes"]);
  v["slot.slottings"] = slottings;
  v["slot.leaf_solves"] = leaf_solves;
  v["slot.leaf_s"] = timer_seconds(slot_stats, "prune.greedy_seed") +
                     timer_seconds(slot_stats, "prune.precompute") +
                     timer_seconds(slot_stats, "prune.search");
  v["trace.unattributed_share"] = tracer.UnattributedShare();
  v["trace.overhead_share"] =
      SafeRatio(tracer.EndToEndTotal() - untraced_seconds, untraced_seconds);
  tracer.Write(options.workdir + "/spans.json");
}

}  // namespace

void RunBatch(const RunOptions& options, Outcome* out) {
  std::vector<double> setup_times;
  std::vector<NamedInstance> set;
  for (int i = 0; i < kSetupRepeats; ++i) {
    geacc::WallTimer clock;
    set = MakeBatchSet(options);
    setup_times.push_back(clock.Seconds());
  }
  if (options.trace) {
    RunBatchTraced(options, set, out);
    return;
  }
  const auto greedy = geacc::CreateSolver("greedy");
  const auto mcf = geacc::CreateSolver("mincostflow");

  // Solve the whole set with each solver, pass after pass, until the run's
  // time is up; every pass must reproduce the first bit for bit.
  std::vector<std::vector<double>> greedy_times;  // [pass][instance]
  std::vector<std::vector<double>> mcf_times;
  std::vector<geacc::SolveResult> first_greedy;
  std::vector<geacc::SolveResult> first_mcf;
  ReferenceClock reference;
  const double cpu_start = ProcessCpuSeconds();
  geacc::WallTimer run_clock;
  do {
    std::vector<geacc::SolveResult> greedy_pass;
    std::vector<geacc::SolveResult> mcf_pass;
    mcf_times.emplace_back();
    for (int repeat = 0; repeat < kGreedyRepeats; ++repeat) {
      greedy_pass.clear();
      greedy_times.emplace_back();
      for (const NamedInstance& item : set) {
        const geacc::WallTimer clock;
        greedy_pass.push_back(greedy->Solve(item.instance));
        greedy_times.back().push_back(clock.Seconds());
      }
      const geacc::WallTimer clock;
      MakeBatchSet(options);
      setup_times.push_back(clock.Seconds());
    }
    for (const NamedInstance& item : set) {
      const geacc::WallTimer clock;
      mcf_pass.push_back(mcf->Solve(item.instance));
      mcf_times.back().push_back(clock.Seconds());
    }
    reference.Sample();
    out->attempted += (kGreedyRepeats + 1) * static_cast<int64_t>(set.size());
    if (first_greedy.empty()) {
      first_greedy = std::move(greedy_pass);
      first_mcf = std::move(mcf_pass);
      continue;
    }
    for (size_t i = 0; i < set.size(); ++i) {
      const Instance& instance = set[i].instance;
      out->Check(MaxSumBits(greedy_pass[i].arrangement.MaxSum(instance)) ==
                         MaxSumBits(
                             first_greedy[i].arrangement.MaxSum(instance)) &&
                     MaxSumBits(mcf_pass[i].arrangement.MaxSum(instance)) ==
                         MaxSumBits(first_mcf[i].arrangement.MaxSum(instance)),
                 "a repeated solve differs from the first on " + set[i].name);
    }
  } while (run_clock.Seconds() < options.seconds);
  const double wall = run_clock.Seconds();
  const double cpu_wall = (ProcessCpuSeconds() - cpu_start) / wall;

  double greedy_sum = 0.0;
  double mcf_sum = 0.0;
  int64_t broken_greedy = 0;
  int64_t broken_mcf = 0;
  for (size_t i = 0; i < set.size(); ++i) {
    if (i == 0 && options.fault == "infeasible-pair") {
      InjectInfeasiblePair(set[i].instance, &first_mcf[i].arrangement);
    }
    broken_greedy +=
        !AuditSolve("greedy", set[i], first_greedy[i].arrangement, out);
    broken_mcf +=
        !AuditSolve("mincostflow", set[i], first_mcf[i].arrangement, out);
    greedy_sum += first_greedy[i].arrangement.MaxSum(set[i].instance);
    mcf_sum += first_mcf[i].arrangement.MaxSum(set[i].instance);
  }
  // Every repeat reproduces the same arrangements, so a broken one fails
  // that solve in every repeat.
  out->failed = broken_greedy * static_cast<int64_t>(greedy_times.size()) +
                broken_mcf * static_cast<int64_t>(mcf_times.size());

  const double greedy_s = SumOfMedians(greedy_times);
  const double mcf_s = SumOfMedians(mcf_times);
  const double setup_s = Median(setup_times);
  auto& v = out->values;
  v["setup_s"] = reference.AtReferenceSpeed(setup_s);
  v["peak_rss_mb"] = PeakRssMiB();
  v["fast_path_ms"] = reference.AtReferenceSpeed(greedy_s) * 1e3;
  v["slow_path_ms"] = reference.AtReferenceSpeed(mcf_s) * 1e3;
  v["max_sum"] = greedy_sum + mcf_sum;
  v["throughput_per_s"] = 2.0 * static_cast<double>(set.size()) /
                          reference.AtReferenceSpeed(greedy_s + mcf_s);
  out->Report("greedy_solve_s", greedy_s, "s", "lower");
  out->Report("mcf_solve_s", mcf_s, "s", "lower");
  out->Report("generate_s", setup_s, "s", "lower");
  out->Report("reference_s", reference.MedianSeconds(), "s", "lower");
  out->Report("greedy_max_sum", greedy_sum, "maxsum", "higher");
  out->Report("mcf_max_sum", mcf_sum, "maxsum", "higher");
  out->Report("passes", static_cast<double>(mcf_times.size()), "count",
              "higher");
  out->context.Set("cpu_wall_ratio", cpu_wall);
  out->context.Set("cpu_wall_below_0.9", cpu_wall < 0.9);
}

void RunExact(const RunOptions& options, Outcome* out) {
  std::vector<double> setup_times;
  ExactSet set;
  for (int i = 0; i < kSetupRepeats; ++i) {
    geacc::WallTimer clock;
    set = MakeExactSet(options);
    setup_times.push_back(clock.Seconds());
  }
  if (options.trace) {
    RunExactTraced(options, set, out);
    return;
  }
  std::vector<std::vector<double>> prune_times;  // [pass][instance]
  std::vector<std::vector<double>> slot_times;
  ExactPass first;
  int64_t passes = 0;
  ReferenceClock reference;
  const double cpu_start = ProcessCpuSeconds();
  geacc::WallTimer run_clock;
  do {
    ExactPass pass = SolveExactSet(set);
    reference.Sample();
    prune_times.push_back(pass.prune_seconds);
    slot_times.push_back(pass.slot_seconds);
    const geacc::WallTimer clock;
    MakeExactSet(options);
    setup_times.push_back(clock.Seconds());
    out->attempted +=
        static_cast<int64_t>(set.flat.size() + set.slotted.size());
    if (passes++ == 0) {
      first = std::move(pass);
    } else {
      out->Check(MaxSumBits(ExactMaxSum(set, pass)) ==
                     MaxSumBits(ExactMaxSum(set, first)),
                 "a repeated exact pass found a different optimum");
    }
  } while (run_clock.Seconds() < options.seconds);
  const double wall = run_clock.Seconds();
  const double cpu_wall = (ProcessCpuSeconds() - cpu_start) / wall;

  const double max_sum = ExactMaxSum(set, first);
  CheckExactPass(options, set, &first, out);
  out->failed = first.broken * passes;

  const double prune_s = SumOfMedians(prune_times);
  const double slot_s = SumOfMedians(slot_times);
  const double setup_s = Median(setup_times);
  auto& v = out->values;
  v["setup_s"] = reference.AtReferenceSpeed(setup_s);
  v["peak_rss_mb"] = PeakRssMiB();
  v["fast_path_ms"] = reference.AtReferenceSpeed(prune_s) * 1e3;
  v["slow_path_ms"] = reference.AtReferenceSpeed(slot_s) * 1e3;
  v["max_sum"] = max_sum;
  v["throughput_per_s"] =
      static_cast<double>(set.flat.size() + set.slotted.size()) /
      reference.AtReferenceSpeed(prune_s + slot_s);
  out->Report("prune_solve_s", prune_s, "s", "lower");
  out->Report("slot_exact_solve_s", slot_s, "s", "lower");
  out->Report("generate_s", setup_s, "s", "lower");
  out->Report("reference_s", reference.MedianSeconds(), "s", "lower");
  out->Report("exact_max_sum", max_sum, "maxsum", "higher");
  out->Report("instances", static_cast<double>(set.flat.size()), "count",
              "higher");
  out->Report("slotted_instances", static_cast<double>(set.slotted.size()),
              "count", "higher");
  out->Report("passes", static_cast<double>(passes), "count", "higher");
  out->context.Set("cpu_wall_ratio", cpu_wall);
  out->context.Set("cpu_wall_below_0.9", cpu_wall < 0.9);
}

}  // namespace perfbench
