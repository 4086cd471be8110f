// Tests for the time-slotted scenario (src/slot/, DESIGN.md §17): the
// slotted model and its derived-conflict primitives, the joint audit,
// the three joint solvers, and the seeded generator.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "core/arrangement.h"
#include "core/types.h"
#include "slot/slot_solvers.h"
#include "slot/slotted.h"
#include "slot/slotted_gen.h"
#include "tests/test_util.h"

namespace geacc {
namespace {

// Two events × two users with hand-picked similarities, two overlapping
// slots (so any two scheduled events conflict), and complementary user
// availability: u0 can only attend slot 0, u1 only slot 1. The joint
// optimum is slotting {0, 1} matching v0–u0 (0.9) and v1–u1 (0.7).
slot::SlottedInstance TinySlotted() {
  Instance base = geacc::testing::MakeTableInstance(
      {{0.9, 0.5}, {0.8, 0.7}}, {1, 1}, {1, 1}, {});
  slot::SlotTable slots;
  slots.windows = {TimeWindow{0.0, 2.0, 0.0, 0.0},
                   TimeWindow{1.0, 3.0, 0.0, 0.0}};
  slots.speed_kmph = 0.0;
  return slot::SlottedInstance{std::move(base), std::move(slots),
                               {0b11u, 0b11u}, {0b01u, 0b10u}};
}

slot::SlottedGenConfig SmallGenConfig(uint64_t seed) {
  slot::SlottedGenConfig config;
  config.num_events = 5;
  config.num_users = 12;
  config.dim = 3;
  config.num_slots = 3;
  config.availability_count = DistributionSpec::Uniform(1.0, 3.0);
  config.seed = seed;
  return config;
}

TEST(SlotTable, ConflictingFollowsWindowOverlap) {
  slot::SlotTable table;
  table.windows = {TimeWindow{0.0, 2.0, 0.0, 0.0},
                   TimeWindow{1.0, 3.0, 0.0, 0.0},
                   TimeWindow{2.0, 4.0, 0.0, 0.0}};
  table.speed_kmph = 0.0;
  EXPECT_TRUE(table.Conflicting(0, 1));   // overlap
  EXPECT_FALSE(table.Conflicting(0, 2));  // shared endpoint, [a, b)
  EXPECT_TRUE(table.Conflicting(1, 2));
  // Two events in the same (non-degenerate) slot always conflict.
  EXPECT_TRUE(table.Conflicting(1, 1));
}

TEST(SlottedInstance, ValidateAcceptsWellFormed) {
  EXPECT_EQ(TinySlotted().Validate(), "");
}

TEST(SlottedInstance, ValidateRejectsStructuralErrors) {
  {
    slot::SlottedInstance s = TinySlotted();
    s.slots.windows.clear();
    EXPECT_NE(s.Validate(), "");  // S = 0
  }
  {
    slot::SlottedInstance s = TinySlotted();
    s.event_allowed[1] = 0;
    EXPECT_NE(s.Validate(), "");  // event with no allowed slot
  }
  {
    slot::SlottedInstance s = TinySlotted();
    s.event_allowed[0] = 0b100;  // bit 2 with S = 2
    EXPECT_NE(s.Validate(), "");
  }
  {
    slot::SlottedInstance s = TinySlotted();
    s.user_availability[0] = 0b1000;
    EXPECT_NE(s.Validate(), "");
  }
  {
    slot::SlottedInstance s = TinySlotted();
    s.user_availability.pop_back();
    EXPECT_NE(s.Validate(), "");  // mask vector size mismatch
  }
  {
    slot::SlottedInstance s = TinySlotted();
    s.slots.windows[0].end_hours = -1.0;
    EXPECT_NE(s.Validate(), "");  // inverted window
  }
}

TEST(SlottedInstance, UserMayBeFullyUnavailable) {
  slot::SlottedInstance s = TinySlotted();
  s.user_availability[0] = 0;  // allowed: the user just matches nothing
  EXPECT_EQ(s.Validate(), "");
}

TEST(DeriveConflicts, EdgesOnlyBetweenScheduledOverlappingSlots) {
  const slot::SlottedInstance s = TinySlotted();
  {
    // Both in slot 0: same-slot conflict.
    const ConflictGraph g = slot::DeriveConflicts(s, {0, 0});
    EXPECT_TRUE(g.AreConflicting(0, 1));
  }
  {
    // Slots 0 and 1 overlap in time.
    const ConflictGraph g = slot::DeriveConflicts(s, {0, 1});
    EXPECT_TRUE(g.AreConflicting(0, 1));
  }
  {
    // Unscheduled events get no edges.
    const ConflictGraph g = slot::DeriveConflicts(s, {0, kInvalidSlot});
    EXPECT_FALSE(g.AreConflicting(0, 1));
  }
}

TEST(MakeSubInstance, MasksUnavailableAndUnscheduledPairs) {
  const slot::SlottedInstance s = TinySlotted();
  {
    // v0 in slot 0, v1 in slot 1: each event only admits "its" user.
    const Instance sub = slot::MakeSubInstance(s, {0, 1});
    EXPECT_EQ(sub.Similarity(0, 0), s.base.Similarity(0, 0));
    EXPECT_EQ(sub.Similarity(0, 1), 0.0);  // u1 not available in slot 0
    EXPECT_EQ(sub.Similarity(1, 0), 0.0);  // u0 not available in slot 1
    EXPECT_EQ(sub.Similarity(1, 1), s.base.Similarity(1, 1));
  }
  {
    // Unscheduled v1 admits nobody.
    const Instance sub = slot::MakeSubInstance(s, {0, kInvalidSlot});
    EXPECT_EQ(sub.Similarity(1, 0), 0.0);
    EXPECT_EQ(sub.Similarity(1, 1), 0.0);
    EXPECT_EQ(sub.Similarity(0, 0), s.base.Similarity(0, 0));
  }
  {
    const std::vector<uint8_t> mask = slot::PairMask(s, {0, 1});
    ASSERT_EQ(mask.size(), 4u);
    EXPECT_EQ(mask[0], 1);  // (v0, u0)
    EXPECT_EQ(mask[1], 0);  // (v0, u1)
    EXPECT_EQ(mask[2], 0);  // (v1, u0)
    EXPECT_EQ(mask[3], 1);  // (v1, u1)
  }
}

TEST(AuditSlotted, AcceptsTheJointOptimum) {
  const slot::SlottedInstance s = TinySlotted();
  Arrangement arrangement(2, 2);
  arrangement.Add(0, 0);
  arrangement.Add(1, 1);
  EXPECT_EQ(slot::AuditSlotted(s, {0, 1}, arrangement), "");
}

TEST(AuditSlotted, RejectsJointViolations) {
  const slot::SlottedInstance s = TinySlotted();
  {
    // Slot not in the event's allowed set.
    slot::SlottedInstance narrow = TinySlotted();
    narrow.event_allowed[0] = 0b10;
    Arrangement a(2, 2);
    EXPECT_NE(slot::AuditSlotted(narrow, {0, 1}, a), "");
  }
  {
    // Matched event left unscheduled.
    Arrangement a(2, 2);
    a.Add(0, 0);
    EXPECT_NE(slot::AuditSlotted(s, {kInvalidSlot, kInvalidSlot}, a), "");
  }
  {
    // u1 is not available in slot 0.
    Arrangement a(2, 2);
    a.Add(0, 1);
    EXPECT_NE(slot::AuditSlotted(s, {0, 1}, a), "");
  }
  {
    // One user in two events whose slots overlap: derived conflict.
    slot::SlottedInstance wide = TinySlotted();
    wide.user_availability = {0b11u, 0b11u};
    Arrangement a(2, 2);
    a.AddUnchecked(0, 0);
    a.AddUnchecked(1, 0);
    EXPECT_NE(slot::AuditSlotted(wide, {0, 1}, a), "");
  }
}

TEST(SlotSolvers, RegistryRoundTrip) {
  for (const std::string& name : slot::SlotSolverNames()) {
    const auto solver = slot::CreateSlotSolver(name);
    ASSERT_NE(solver, nullptr) << name;
    EXPECT_EQ(solver->Name(), name);
  }
  EXPECT_EQ(slot::CreateSlotSolver("slot-nope"), nullptr);
  EXPECT_EQ(slot::CreateSlotSolver("greedy"), nullptr);  // base registry name
}

TEST(SlotSolvers, ExactFindsTheHandComputedOptimum) {
  const slot::SlottedInstance s = TinySlotted();
  const auto exact = slot::CreateSlotSolver("slot-exact");
  const slot::SlotSolveResult result = exact->Solve(s);
  EXPECT_EQ(slot::AuditSlotted(s, result.slotting, result.arrangement), "");
  EXPECT_DOUBLE_EQ(result.max_sum, 0.9 + 0.7);
  ASSERT_EQ(result.slotting.size(), 2u);
  EXPECT_EQ(result.slotting[0], 0);
  EXPECT_EQ(result.slotting[1], 1);
  EXPECT_TRUE(result.arrangement.Contains(0, 0));
  EXPECT_TRUE(result.arrangement.Contains(1, 1));
  EXPECT_GE(result.leaf_solves, 1);
  EXPECT_GE(result.slottings_considered, result.leaf_solves);
}

TEST(SlotSolvers, AllSolversProduceJointlyFeasibleResults) {
  const slot::SlottedInstance s = slot::GenerateSlotted(SmallGenConfig(19));
  for (const std::string& name : slot::SlotSolverNames()) {
    const auto solver = slot::CreateSlotSolver(name);
    const slot::SlotSolveResult result = solver->Solve(s);
    EXPECT_EQ(slot::AuditSlotted(s, result.slotting, result.arrangement), "")
        << name;
    EXPECT_GE(result.slottings_considered, 1) << name;
    // The reported sum must match the arrangement it came with.
    double recomputed = 0.0;
    for (const auto& [v, u] : result.arrangement.SortedPairs()) {
      recomputed += s.base.Similarity(v, u);
    }
    EXPECT_EQ(result.max_sum, recomputed) << name;
  }
}

TEST(SlotSolvers, ExactDominatesTheHeuristics) {
  for (const uint64_t seed : {1u, 2u, 3u}) {
    const slot::SlottedInstance s = slot::GenerateSlotted(SmallGenConfig(seed));
    const auto exact = slot::CreateSlotSolver("slot-exact")->Solve(s);
    const auto greedy = slot::CreateSlotSolver("slot-greedy")->Solve(s);
    const auto sweep = slot::CreateSlotSolver("slot-mcf-sweep")->Solve(s);
    EXPECT_GE(exact.max_sum, greedy.max_sum - 1e-9) << "seed " << seed;
    EXPECT_GE(exact.max_sum, sweep.max_sum - 1e-9) << "seed " << seed;
  }
}

TEST(SlotSolvers, DeterministicAcrossRuns) {
  const slot::SlottedInstance s = slot::GenerateSlotted(SmallGenConfig(23));
  for (const std::string& name : slot::SlotSolverNames()) {
    const auto solver = slot::CreateSlotSolver(name);
    const slot::SlotSolveResult a = solver->Solve(s);
    const slot::SlotSolveResult b = solver->Solve(s);
    EXPECT_EQ(a.slotting, b.slotting) << name;
    EXPECT_EQ(a.arrangement.SortedPairs(), b.arrangement.SortedPairs()) << name;
    EXPECT_EQ(a.max_sum, b.max_sum) << name;
    EXPECT_EQ(a.slottings_considered, b.slottings_considered) << name;
  }
}

// FNV-1a over slot-greedy's complete output: the slotting, the sorted
// pairs and the bits of the MaxSum.
uint64_t SlotGreedyFingerprint(const slot::SlotSolveResult& result) {
  uint64_t hash = 0xcbf29ce484222325ull;
  const auto mix = [&hash](int64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= static_cast<uint64_t>(value >> (8 * byte)) & 0xffu;
      hash *= 0x100000001b3ull;
    }
  };
  for (const SlotId s : result.slotting) mix(s);
  for (const auto& [v, u] : result.arrangement.SortedPairs()) {
    mix(v);
    mix(u);
  }
  int64_t sum_bits = 0;
  std::memcpy(&sum_bits, &result.max_sum, sizeof(sum_bits));
  mix(sum_bits);
  return hash;
}

// Pins slot-greedy's arrangement bit for bit on seeded instances, so a
// rewrite of its admission loop cannot change a single pair or slot.
TEST(SlotSolvers, GreedyOutputIsPinned) {
  struct Case {
    uint64_t seed;
    int num_events;
    int num_users;
    int num_slots;
    uint64_t fingerprint;
  };
  const Case cases[] = {
      {1, 5, 12, 3, 9168057460203844757ull},
      {2, 5, 12, 3, 10504010320458136854ull},
      {3, 8, 30, 4, 6775030084537525686ull},
      {4, 8, 30, 4, 15117953306675308365ull},
      {5, 20, 100, 6, 3667159249452885706ull},
      {6, 20, 100, 6, 11981266385730334238ull},
      {7, 30, 200, 8, 9942213948360194618ull},
      {8, 30, 200, 8, 10469521557880654319ull},
  };
  const auto greedy = slot::CreateSlotSolver("slot-greedy");
  for (const Case& c : cases) {
    slot::SlottedGenConfig config = SmallGenConfig(c.seed);
    config.num_events = c.num_events;
    config.num_users = c.num_users;
    config.num_slots = c.num_slots;
    config.availability_count =
        DistributionSpec::Uniform(1.0, static_cast<double>(c.num_slots));
    const slot::SlotSolveResult result =
        greedy->Solve(slot::GenerateSlotted(config));
    EXPECT_EQ(SlotGreedyFingerprint(result), c.fingerprint)
        << "seed " << c.seed << " pairs " << result.arrangement.size();
  }
}

TEST(GenerateSlotted, ProducesAValidInstanceWithinBounds) {
  const slot::SlottedGenConfig config = SmallGenConfig(7);
  const slot::SlottedInstance s = slot::GenerateSlotted(config);
  EXPECT_EQ(s.Validate(), "");
  EXPECT_EQ(s.base.num_events(), config.num_events);
  EXPECT_EQ(s.base.num_users(), config.num_users);
  EXPECT_EQ(s.num_slots(), config.num_slots);
  // The base conflict graph is empty: conflicts come from slottings.
  for (int v = 0; v < s.base.num_events(); ++v) {
    for (int w = v + 1; w < s.base.num_events(); ++w) {
      EXPECT_FALSE(s.base.conflicts().AreConflicting(v, w));
    }
  }
  const uint32_t full = (uint32_t{1} << config.num_slots) - 1;
  for (const uint32_t mask : s.event_allowed) {
    EXPECT_NE(mask, 0u);
    EXPECT_EQ(mask & ~full, 0u);
  }
  for (const uint32_t mask : s.user_availability) {
    EXPECT_NE(mask, 0u);  // availability_count is clamped to ≥ 1
    EXPECT_EQ(mask & ~full, 0u);
  }
}

TEST(GenerateSlotted, IsDeterministicPerSeed) {
  const slot::SlottedInstance a = slot::GenerateSlotted(SmallGenConfig(31));
  const slot::SlottedInstance b = slot::GenerateSlotted(SmallGenConfig(31));
  const slot::SlottedInstance c = slot::GenerateSlotted(SmallGenConfig(32));
  EXPECT_EQ(a.event_allowed, b.event_allowed);
  EXPECT_EQ(a.user_availability, b.user_availability);
  ASSERT_EQ(a.slots.size(), b.slots.size());
  for (int i = 0; i < a.slots.size(); ++i) {
    EXPECT_EQ(a.slots.windows[i].start_hours, b.slots.windows[i].start_hours);
    EXPECT_EQ(a.slots.windows[i].end_hours, b.slots.windows[i].end_hours);
  }
  EXPECT_TRUE(a.event_allowed != c.event_allowed ||
              a.user_availability != c.user_availability)
      << "seed 32 reproduced seed 31's slot structure";
}

}  // namespace
}  // namespace geacc
