// Portable per-block reducers. This translation unit is compiled with the
// project's baseline flags only (no -mfma), so on x86-64 the compiler has
// no fused multiply-add to contract into and every `acc += x * y` below
// rounds twice, exactly like the per-pair loops in core/similarity.cc —
// which is what the strict-mode bit-identity contract (kernels.h) needs.
// The compiler is free to auto-vectorize these loops: lanes are rows, so
// any lane width produces the same per-row arithmetic.

#include "simd/kernels.h"

namespace geacc::simd::internal {
namespace {

void SquaredDistanceBlock(const double* query, const double* block, int dim,
                          double* out8) {
  double acc[kBlockRows] = {};
  for (int j = 0; j < dim; ++j) {
    const double qj = query[j];
    const double* lane = block + static_cast<std::size_t>(j) * kBlockRows;
    for (int r = 0; r < kBlockRows; ++r) {
      const double diff = qj - lane[r];
      acc[r] += diff * diff;
    }
  }
  for (int r = 0; r < kBlockRows; ++r) out8[r] = acc[r];
}

void DotBlock(const double* query, const double* block, int dim,
              double* out8) {
  double acc[kBlockRows] = {};
  for (int j = 0; j < dim; ++j) {
    const double qj = query[j];
    const double* lane = block + static_cast<std::size_t>(j) * kBlockRows;
    for (int r = 0; r < kBlockRows; ++r) acc[r] += qj * lane[r];
  }
  for (int r = 0; r < kBlockRows; ++r) out8[r] = acc[r];
}

void DotNormBlock(const double* query, const double* block, int dim,
                  double* dot8, double* norm8) {
  double dot[kBlockRows] = {};
  double norm[kBlockRows] = {};
  for (int j = 0; j < dim; ++j) {
    const double qj = query[j];
    const double* lane = block + static_cast<std::size_t>(j) * kBlockRows;
    for (int r = 0; r < kBlockRows; ++r) {
      dot[r] += qj * lane[r];
      norm[r] += lane[r] * lane[r];
    }
  }
  for (int r = 0; r < kBlockRows; ++r) {
    dot8[r] = dot[r];
    norm8[r] = norm[r];
  }
}

void VaLowerBoundBlock(const double* cell_table, int cells,
                       const uint8_t* sig_block, int dim, double* out8) {
  double acc[kBlockRows] = {};
  for (int j = 0; j < dim; ++j) {
    const double* table = cell_table + static_cast<std::size_t>(j) * cells;
    const uint8_t* lane = sig_block + static_cast<std::size_t>(j) * kBlockRows;
    for (int r = 0; r < kBlockRows; ++r) acc[r] += table[lane[r]];
  }
  for (int r = 0; r < kBlockRows; ++r) out8[r] = acc[r];
}

}  // namespace

int64_t RelaxRowScalar(const double* cost, double tail_potential,
                       const double* head_potential, double tail_distance,
                       int tail, int64_t n, double* distance, double* key,
                       int* parent, double* block_min) {
  int64_t relaxed = 0;
  for (int64_t i = 0; i < n; ++i) {
    double reduced = (cost[i] + tail_potential) - head_potential[i];
    if (reduced < 0.0) reduced = 0.0;
    const double candidate = tail_distance + reduced;
    if (candidate + 1e-9 < distance[i]) {
      distance[i] = candidate;
      key[i] = candidate;
      parent[i] = tail;
      double& low = block_min[i / kRelaxBlock];
      if (candidate < low) low = candidate;
      ++relaxed;
    }
  }
  return relaxed;
}

const KernelTable& ScalarKernels() {
  static const KernelTable table = {
      /*squared_distance=*/SquaredDistanceBlock,
      /*squared_distance_fma=*/SquaredDistanceBlock,
      /*dot=*/DotBlock,
      /*dot_fma=*/DotBlock,
      /*dot_norm=*/DotNormBlock,
      /*dot_norm_fma=*/DotNormBlock,
      /*va_lower_bound=*/VaLowerBoundBlock,
      /*relax_row=*/RelaxRowScalar,
  };
  return table;
}

}  // namespace geacc::simd::internal
