// Differential tests for the batched SIMD similarity kernels
// (src/simd, DESIGN.md §15): every available dispatch level against the
// per-pair scalar path, bit-for-bit in strict mode, across awkward
// shapes (dims and row counts that are not multiples of the vector width
// or block size), zero vectors, and denormals.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/attributes.h"
#include "core/similarity.h"
#include "simd/kernels.h"
#include "simd/simd.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace geacc {
namespace {

// Shapes chosen to straddle the AVX2 lane width (4), the block size (8),
// and the padded tail: dims/rows below, at, and above each boundary.
const int kDims[] = {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 20, 31, 32, 100};
const int kRowCounts[] = {1, 2, 7, 8, 9, 16, 17, 63, 100};

uint64_t Bits(double x) {
  uint64_t u;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

// Bitwise equality — stricter than EXPECT_DOUBLE_EQ (distinguishes ±0,
// catches last-ulp drift the strict contract forbids).
void ExpectBitEqual(double got, double want, const std::string& context) {
  EXPECT_EQ(Bits(got), Bits(want))
      << context << ": got " << got << " want " << want;
}

// The dispatch levels this machine can actually run.
std::vector<simd::Level> AvailableLevels() {
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  if (simd::CpuSupportsAvx2()) levels.push_back(simd::Level::kAvx2);
  return levels;
}

// 64-byte-aligned buffer of `doubles` doubles.
class AlignedBuffer {
 public:
  explicit AlignedBuffer(int64_t doubles)
      : storage_(static_cast<size_t>(doubles) + simd::kBlockAlignment /
                                                    sizeof(double)) {
    void* p = storage_.data();
    std::size_t space = storage_.size() * sizeof(double);
    p = std::align(simd::kBlockAlignment,
                   static_cast<size_t>(doubles) * sizeof(double), p, space);
    ptr_ = static_cast<double*>(p);
  }
  double* get() { return ptr_; }

 private:
  std::vector<double> storage_;
  double* ptr_;
};

AttributeMatrix RandomMatrix(int rows, int dim, Rng& rng) {
  AttributeMatrix m(rows, dim);
  for (int i = 0; i < rows; ++i) {
    double* row = m.MutableRow(i);
    for (int j = 0; j < dim; ++j) row[j] = rng.UniformReal(0.0, 100.0);
  }
  return m;
}

// --------------------------------------------------------- BuildBlocked ---

TEST(BuildBlocked, LayoutFormulaAndZeroPadding) {
  const int rows = 11, dim = 3;  // two blocks, five padded lanes
  Rng rng(7);
  AttributeMatrix m = RandomMatrix(rows, dim, rng);
  AlignedBuffer buf(simd::BlockedSize(rows, dim));
  simd::BuildBlocked(m.Row(0), rows, dim, buf.get());
  const double* blocked = buf.get();
  for (int64_t block = 0; block < simd::NumBlocks(rows); ++block) {
    for (int j = 0; j < dim; ++j) {
      for (int r = 0; r < simd::kBlockRows; ++r) {
        const int64_t i = block * simd::kBlockRows + r;
        const double got =
            blocked[(block * dim + j) * simd::kBlockRows + r];
        const double want = i < rows ? m.At(i, j) : 0.0;
        ExpectBitEqual(got, want,
                       "block " + std::to_string(block) + " dim " +
                           std::to_string(j) + " lane " + std::to_string(r));
      }
    }
  }
}

TEST(BlockedAttributes, AlignedAndInvalidatedOnMutation) {
  Rng rng(3);
  AttributeMatrix m = RandomMatrix(9, 4, rng);
  const BlockedAttributes& blocked = m.Blocked();
  EXPECT_EQ(reinterpret_cast<uintptr_t>(blocked.data()) %
                simd::kBlockAlignment,
            0u);
  EXPECT_EQ(blocked.rows(), 9);
  EXPECT_EQ(blocked.dim(), 4);
  EXPECT_EQ(blocked.num_blocks(), 2);
  ExpectBitEqual(blocked.data()[0 * simd::kBlockRows + 2], m.At(2, 0),
                 "pre-mutation lane");

  m.Set(2, 0, -5.0);  // must invalidate the mirror
  const BlockedAttributes& rebuilt = m.Blocked();
  ExpectBitEqual(rebuilt.data()[0 * simd::kBlockRows + 2], -5.0,
                 "post-mutation lane");
}

TEST(BlockedAttributes, CopyAndMoveStartCold) {
  Rng rng(4);
  AttributeMatrix m = RandomMatrix(10, 2, rng);
  (void)m.Blocked();  // warm the source mirror

  AttributeMatrix copy = m;  // payload copied, mirror rebuilt on demand
  const BlockedAttributes& b = copy.Blocked();
  for (int i = 0; i < 10; ++i) {
    const int64_t block = i / simd::kBlockRows, lane = i % simd::kBlockRows;
    ExpectBitEqual(
        b.data()[(block * 2 + 0) * simd::kBlockRows + lane], m.At(i, 0),
        "copied row " + std::to_string(i));
  }

  AttributeMatrix moved = std::move(copy);
  EXPECT_EQ(moved.rows(), 10);
  (void)moved.Blocked();
}

// --------------------------------------------- strict-mode bit identity ---

// Builds a fn × dim × rows × level sweep and pins ComputeBatch(strict)
// bitwise to the per-pair Compute path.
void CheckStrictIdentity(const AttributeMatrix& m,
                         const std::vector<double>& query,
                         const std::string& tag) {
  const struct {
    const char* name;
    double param;
  } kFns[] = {{"euclidean", 100.0}, {"cosine", 0.0}, {"rbf", 25.0},
              {"dot", 0.0}};
  const int dim = m.dim();
  const int64_t rows = m.rows();
  std::vector<double> out(static_cast<size_t>(rows));
  for (const auto& fn : kFns) {
    const auto sim = MakeSimilarity(fn.name, fn.param);
    for (simd::Level level : AvailableLevels()) {
      std::string error;
      ASSERT_TRUE(simd::SetDispatchOverride(simd::LevelName(level), &error))
          << error;
      sim->ComputeBatch(query.data(), m.Blocked(), simd::FpMode::kStrict,
                        out.data());
      for (int64_t i = 0; i < rows; ++i) {
        ExpectBitEqual(out[i], sim->Compute(query.data(), m.Row(i), dim),
                       std::string(fn.name) + "/" +
                           simd::LevelName(level) + "/" + tag + "/row " +
                           std::to_string(i));
      }
    }
  }
  std::string error;
  ASSERT_TRUE(simd::SetDispatchOverride("auto", &error)) << error;
}

TEST(BatchKernels, StrictBitIdenticalAcrossShapes) {
  for (int dim : kDims) {
    for (int rows : kRowCounts) {
      Rng rng(1000 + dim * 131 + rows);
      AttributeMatrix m = RandomMatrix(rows, dim, rng);
      std::vector<double> query(static_cast<size_t>(dim));
      for (double& q : query) q = rng.UniformReal(0.0, 100.0);
      CheckStrictIdentity(m, query, StrFormat("d%dxn%d", dim, rows));
    }
  }
}

TEST(BatchKernels, StrictBitIdenticalZeroVectors) {
  // Zero rows (cosine's 0-norm guard) and a zero query, mixed with
  // ordinary rows so the same batch exercises both branches.
  const int dim = 20, rows = 13;
  Rng rng(99);
  AttributeMatrix m = RandomMatrix(rows, dim, rng);
  for (int j = 0; j < dim; ++j) {
    m.Set(0, j, 0.0);
    m.Set(8, j, 0.0);  // zero row in the tail block
  }
  std::vector<double> query(dim, 0.0);
  CheckStrictIdentity(m, query, "zero-query");
  for (double& q : query) q = rng.UniformReal(0.0, 100.0);
  CheckStrictIdentity(m, query, "zero-rows");
}

TEST(BatchKernels, StrictBitIdenticalDenormals) {
  // Denormal attributes: strict identity must survive gradual underflow.
  const int dim = 9, rows = 17;
  const double tiny = 4.9406564584124654e-324;  // smallest denormal
  AttributeMatrix m(rows, dim);
  Rng rng(5);
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < dim; ++j) {
      m.Set(i, j, tiny * static_cast<double>(rng.UniformInt(0, 1 << 20)));
    }
  }
  std::vector<double> query(dim);
  for (double& q : query) {
    q = tiny * static_cast<double>(rng.UniformInt(0, 1 << 20));
  }
  CheckStrictIdentity(m, query, "denormals");
}

// --------------------------------------------------------- fast mode ------

TEST(BatchKernels, FastModeNearStrictAndScalarFastIsStrict) {
  const int dim = 33, rows = 29;
  Rng rng(42);
  AttributeMatrix m = RandomMatrix(rows, dim, rng);
  std::vector<double> query(dim);
  for (double& q : query) q = rng.UniformReal(0.0, 100.0);

  const auto sim = MakeSimilarity("euclidean", 100.0);
  std::vector<double> strict(rows), fast(rows);
  for (simd::Level level : AvailableLevels()) {
    std::string error;
    ASSERT_TRUE(simd::SetDispatchOverride(simd::LevelName(level), &error))
        << error;
    sim->ComputeBatch(query.data(), m.Blocked(), simd::FpMode::kStrict,
                      strict.data());
    sim->ComputeBatch(query.data(), m.Blocked(), simd::FpMode::kFast,
                      fast.data());
    for (int i = 0; i < rows; ++i) {
      if (level == simd::Level::kScalar) {
        // kFast *permits* contraction; the scalar level never contracts,
        // so fast must alias strict exactly.
        ExpectBitEqual(fast[i], strict[i], "scalar fast row " +
                                               std::to_string(i));
      } else {
        // One rounding saved per accumulate: relative drift stays tiny.
        EXPECT_NEAR(fast[i], strict[i],
                    1e-12 * std::max(1.0, std::abs(strict[i])))
            << "avx2 fast row " << i;
      }
    }
  }
  std::string error;
  ASSERT_TRUE(simd::SetDispatchOverride("auto", &error)) << error;
}

// ------------------------------------------------------ raw batch drivers --

TEST(BatchKernels, SquaredDistanceMatchesReferenceLoop) {
  for (int dim : {1, 5, 8, 17}) {
    for (int rows : {3, 8, 21}) {
      Rng rng(dim * 31 + rows);
      AttributeMatrix m = RandomMatrix(rows, dim, rng);
      std::vector<double> query(dim);
      for (double& q : query) q = rng.UniformReal(0.0, 100.0);
      AlignedBuffer blocked(simd::BlockedSize(rows, dim));
      simd::BuildBlocked(m.Row(0), rows, dim, blocked.get());
      std::vector<double> out(rows);
      for (simd::Level level : AvailableLevels()) {
        simd::BatchSquaredDistance(level, simd::FpMode::kStrict,
                                   query.data(), blocked.get(), dim, rows,
                                   out.data());
        for (int i = 0; i < rows; ++i) {
          // Reference: ascending-j accumulation with separate mul/add —
          // the exact association the strict contract promises.
          double acc = 0.0;
          for (int j = 0; j < dim; ++j) {
            const double diff = query[j] - m.At(i, j);
            acc += diff * diff;
          }
          ExpectBitEqual(out[i], acc,
                         std::string("sqdist/") + simd::LevelName(level) +
                             "/d" + std::to_string(dim) + "/row " +
                             std::to_string(i));
        }
      }
    }
  }
}

TEST(BatchKernels, VaLowerBoundMatchesReferenceLoop) {
  const int cells = 16;
  for (int dim : {1, 2, 4, 7, 8, 13}) {
    for (int rows : {1, 6, 8, 19}) {
      Rng rng(dim * 17 + rows);
      // Random signatures (padded lanes stay cell 0, a valid id) and a
      // random contribution table.
      std::vector<uint8_t> sig(
          static_cast<size_t>(simd::BlockedSize(rows, dim)), 0);
      std::vector<std::vector<uint8_t>> row_sigs(rows,
                                                 std::vector<uint8_t>(dim));
      for (int i = 0; i < rows; ++i) {
        const int64_t block = i / simd::kBlockRows;
        const int64_t lane = i % simd::kBlockRows;
        for (int j = 0; j < dim; ++j) {
          row_sigs[i][j] =
              static_cast<uint8_t>(rng.UniformInt(0, cells - 1));
          sig[(block * dim + j) * simd::kBlockRows + lane] = row_sigs[i][j];
        }
      }
      std::vector<double> table(static_cast<size_t>(dim) * cells);
      for (double& t : table) t = rng.UniformReal(0.0, 50.0);
      std::vector<double> out(rows);
      for (simd::Level level : AvailableLevels()) {
        simd::BatchVaLowerBound(level, table.data(), cells, sig.data(), dim,
                                rows, out.data());
        for (int i = 0; i < rows; ++i) {
          double acc = 0.0;
          for (int j = 0; j < dim; ++j) {
            acc += table[static_cast<size_t>(j) * cells + row_sigs[i][j]];
          }
          ExpectBitEqual(out[i], acc,
                         std::string("va/") + simd::LevelName(level) +
                             "/d" + std::to_string(dim) + "/row " +
                             std::to_string(i));
        }
      }
    }
  }
}

// The flow engine's row relax: every level against the literal loop of
// its contract, on rows that mix relaxing and non-relaxing lanes, used
// (+inf) pairs, negative reduced costs clamped to 0 and exact ties, with
// lengths that end mid-vector and mid-block.
TEST(BatchKernels, RelaxRowMatchesReferenceLoop) {
  const double inf = std::numeric_limits<double>::infinity();
  for (int n : {1, 3, 4, 31, 32, 33, 70, 200}) {
    Rng rng(n);
    std::vector<double> cost(n), head_potential(n), distance(n);
    for (int i = 0; i < n; ++i) {
      cost[i] = rng.Bernoulli(0.1) ? inf : 0.25 * rng.UniformInt(0, 4);
      head_potential[i] = 0.25 * rng.UniformInt(0, 6);
      distance[i] = rng.Bernoulli(0.3) ? inf : 0.25 * rng.UniformInt(0, 8);
    }
    const double tail_potential = 0.5;
    const double tail_distance = 0.75;
    const int blocks = (n + simd::kRelaxBlock - 1) / simd::kRelaxBlock;
    // Reference: the contract's loop, element by element.
    std::vector<double> want_distance = distance, want_key = distance;
    std::vector<int> want_parent(n, -1);
    std::vector<double> want_block(blocks, 9.0);
    int64_t want_relaxed = 0;
    for (int i = 0; i < n; ++i) {
      double reduced = (cost[i] + tail_potential) - head_potential[i];
      if (reduced < 0.0) reduced = 0.0;
      const double candidate = tail_distance + reduced;
      if (candidate + 1e-9 < want_distance[i]) {
        want_distance[i] = want_key[i] = candidate;
        want_parent[i] = 7;
        double& low = want_block[i / simd::kRelaxBlock];
        low = candidate < low ? candidate : low;
        ++want_relaxed;
      }
    }
    for (simd::Level level : AvailableLevels()) {
      std::vector<double> got_distance = distance, got_key = distance;
      std::vector<int> got_parent(n, -1);
      std::vector<double> got_block(blocks, 9.0);
      const int64_t relaxed = simd::GetKernels(level).relax_row(
          cost.data(), tail_potential, head_potential.data(), tail_distance,
          7, n, got_distance.data(), got_key.data(), got_parent.data(),
          got_block.data());
      const std::string where =
          std::string("relax/") + simd::LevelName(level) + "/n" +
          std::to_string(n);
      EXPECT_EQ(relaxed, want_relaxed) << where;
      EXPECT_EQ(got_parent, want_parent) << where;
      for (int i = 0; i < n; ++i) {
        ExpectBitEqual(got_distance[i], want_distance[i], where);
        ExpectBitEqual(got_key[i], want_key[i], where);
      }
      for (int b = 0; b < blocks; ++b) {
        ExpectBitEqual(got_block[b], want_block[b], where);
      }
    }
  }
}

// ------------------------------------------------------------- dispatch ---

TEST(Dispatch, OverrideRoundTripsAndRejectsUnknown) {
  std::string error;
  ASSERT_TRUE(simd::SetDispatchOverride("scalar", &error)) << error;
  EXPECT_EQ(simd::ActiveLevel(), simd::Level::kScalar);
  EXPECT_FALSE(simd::SetDispatchOverride("sse9000", &error));
  EXPECT_FALSE(error.empty());
  // A bad request must not clobber the previous override.
  EXPECT_EQ(simd::ActiveLevel(), simd::Level::kScalar);
  if (simd::CpuSupportsAvx2()) {
    ASSERT_TRUE(simd::SetDispatchOverride("avx2", &error)) << error;
    EXPECT_EQ(simd::ActiveLevel(), simd::Level::kAvx2);
  } else {
    EXPECT_FALSE(simd::SetDispatchOverride("avx2", &error));
  }
  ASSERT_TRUE(simd::SetDispatchOverride("auto", &error)) << error;
}

}  // namespace
}  // namespace geacc
