// AVX2 per-block reducers. Compiled with -mavx2 -mfma -ffp-contract=off
// (see src/CMakeLists.txt): the contract=off keeps the strict reducers'
// separate _mm256_mul_pd / _mm256_add_pd from being fused behind our
// back, so strict results stay bit-identical to the scalar level; the
// *_fma variants opt into fusion explicitly with _mm256_fmadd_pd.
//
// Lane geometry: a block holds 8 rows, one cache line (two __m256d) per
// dimension, so each reducer runs two accumulator registers and the
// whole inner loop is two aligned loads + arithmetic per dimension.

#include "simd/kernels.h"
#include "util/check.h"

#if defined(GEACC_HAVE_AVX2)
#include <immintrin.h>
#endif

namespace geacc::simd::internal {

#if defined(GEACC_HAVE_AVX2)

namespace {

void SquaredDistanceBlock(const double* query, const double* block, int dim,
                          double* out8) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  for (int j = 0; j < dim; ++j) {
    const __m256d qj = _mm256_broadcast_sd(query + j);
    const double* lane = block + static_cast<std::size_t>(j) * kBlockRows;
    const __m256d d0 = _mm256_sub_pd(qj, _mm256_load_pd(lane));
    const __m256d d1 = _mm256_sub_pd(qj, _mm256_load_pd(lane + 4));
    acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(d0, d0));
    acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(d1, d1));
  }
  _mm256_storeu_pd(out8, acc0);
  _mm256_storeu_pd(out8 + 4, acc1);
}

void SquaredDistanceBlockFma(const double* query, const double* block, int dim,
                             double* out8) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  for (int j = 0; j < dim; ++j) {
    const __m256d qj = _mm256_broadcast_sd(query + j);
    const double* lane = block + static_cast<std::size_t>(j) * kBlockRows;
    const __m256d d0 = _mm256_sub_pd(qj, _mm256_load_pd(lane));
    const __m256d d1 = _mm256_sub_pd(qj, _mm256_load_pd(lane + 4));
    acc0 = _mm256_fmadd_pd(d0, d0, acc0);
    acc1 = _mm256_fmadd_pd(d1, d1, acc1);
  }
  _mm256_storeu_pd(out8, acc0);
  _mm256_storeu_pd(out8 + 4, acc1);
}

void DotBlock(const double* query, const double* block, int dim,
              double* out8) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  for (int j = 0; j < dim; ++j) {
    const __m256d qj = _mm256_broadcast_sd(query + j);
    const double* lane = block + static_cast<std::size_t>(j) * kBlockRows;
    acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(qj, _mm256_load_pd(lane)));
    acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(qj, _mm256_load_pd(lane + 4)));
  }
  _mm256_storeu_pd(out8, acc0);
  _mm256_storeu_pd(out8 + 4, acc1);
}

void DotBlockFma(const double* query, const double* block, int dim,
                 double* out8) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  for (int j = 0; j < dim; ++j) {
    const __m256d qj = _mm256_broadcast_sd(query + j);
    const double* lane = block + static_cast<std::size_t>(j) * kBlockRows;
    acc0 = _mm256_fmadd_pd(qj, _mm256_load_pd(lane), acc0);
    acc1 = _mm256_fmadd_pd(qj, _mm256_load_pd(lane + 4), acc1);
  }
  _mm256_storeu_pd(out8, acc0);
  _mm256_storeu_pd(out8 + 4, acc1);
}

void DotNormBlock(const double* query, const double* block, int dim,
                  double* dot8, double* norm8) {
  __m256d dot0 = _mm256_setzero_pd();
  __m256d dot1 = _mm256_setzero_pd();
  __m256d norm0 = _mm256_setzero_pd();
  __m256d norm1 = _mm256_setzero_pd();
  for (int j = 0; j < dim; ++j) {
    const __m256d qj = _mm256_broadcast_sd(query + j);
    const double* lane = block + static_cast<std::size_t>(j) * kBlockRows;
    const __m256d x0 = _mm256_load_pd(lane);
    const __m256d x1 = _mm256_load_pd(lane + 4);
    dot0 = _mm256_add_pd(dot0, _mm256_mul_pd(qj, x0));
    dot1 = _mm256_add_pd(dot1, _mm256_mul_pd(qj, x1));
    norm0 = _mm256_add_pd(norm0, _mm256_mul_pd(x0, x0));
    norm1 = _mm256_add_pd(norm1, _mm256_mul_pd(x1, x1));
  }
  _mm256_storeu_pd(dot8, dot0);
  _mm256_storeu_pd(dot8 + 4, dot1);
  _mm256_storeu_pd(norm8, norm0);
  _mm256_storeu_pd(norm8 + 4, norm1);
}

void DotNormBlockFma(const double* query, const double* block, int dim,
                     double* dot8, double* norm8) {
  __m256d dot0 = _mm256_setzero_pd();
  __m256d dot1 = _mm256_setzero_pd();
  __m256d norm0 = _mm256_setzero_pd();
  __m256d norm1 = _mm256_setzero_pd();
  for (int j = 0; j < dim; ++j) {
    const __m256d qj = _mm256_broadcast_sd(query + j);
    const double* lane = block + static_cast<std::size_t>(j) * kBlockRows;
    const __m256d x0 = _mm256_load_pd(lane);
    const __m256d x1 = _mm256_load_pd(lane + 4);
    dot0 = _mm256_fmadd_pd(qj, x0, dot0);
    dot1 = _mm256_fmadd_pd(qj, x1, dot1);
    norm0 = _mm256_fmadd_pd(x0, x0, norm0);
    norm1 = _mm256_fmadd_pd(x1, x1, norm1);
  }
  _mm256_storeu_pd(dot8, dot0);
  _mm256_storeu_pd(dot8 + 4, dot1);
  _mm256_storeu_pd(norm8, norm0);
  _mm256_storeu_pd(norm8 + 4, norm1);
}

void VaLowerBoundBlock(const double* cell_table, int cells,
                       const uint8_t* sig_block, int dim, double* out8) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  // All-lanes mask + explicit zero source: the plain 3-arg gather leaves
  // its pass-through operand undefined, which trips -Wmaybe-uninitialized
  // inside avx2intrin.h on GCC.
  const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  const __m256d zero = _mm256_setzero_pd();
  for (int j = 0; j < dim; ++j) {
    const __m128i bytes = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(
        sig_block + static_cast<std::size_t>(j) * kBlockRows));
    const __m128i lo = _mm_cvtepu8_epi32(bytes);
    const __m128i hi = _mm_cvtepu8_epi32(_mm_srli_si128(bytes, 4));
    const double* table = cell_table + static_cast<std::size_t>(j) * cells;
    acc0 = _mm256_add_pd(acc0,
                         _mm256_mask_i32gather_pd(zero, table, lo, all, 8));
    acc1 = _mm256_add_pd(acc1,
                         _mm256_mask_i32gather_pd(zero, table, hi, all, 8));
  }
  _mm256_storeu_pd(out8, acc0);
  _mm256_storeu_pd(out8 + 4, acc1);
}

int64_t RelaxRow(const double* cost, double tail_potential,
                 const double* head_potential, double tail_distance, int tail,
                 int64_t n, double* distance, double* key, int* parent,
                 double* block_min) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d eps = _mm256_set1_pd(1e-9);
  const __m256d pt = _mm256_set1_pd(tail_potential);
  const __m256d dt = _mm256_set1_pd(tail_distance);
  int64_t relaxed = 0;
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // max(0, r) is `0 > r ? 0 : r`: exactly the scalar clamp.
    const __m256d reduced = _mm256_max_pd(
        zero, _mm256_sub_pd(_mm256_add_pd(_mm256_loadu_pd(cost + i), pt),
                            _mm256_loadu_pd(head_potential + i)));
    const __m256d candidate = _mm256_add_pd(dt, reduced);
    const __m256d old = _mm256_loadu_pd(distance + i);
    const __m256d better =
        _mm256_cmp_pd(_mm256_add_pd(candidate, eps), old, _CMP_LT_OQ);
    int mask = _mm256_movemask_pd(better);
    if (mask == 0) continue;
    _mm256_storeu_pd(distance + i, _mm256_blendv_pd(old, candidate, better));
    _mm256_storeu_pd(key + i, _mm256_blendv_pd(_mm256_loadu_pd(key + i),
                                               candidate, better));
    relaxed += __builtin_popcount(mask);
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, candidate);
    double& low = block_min[i / kRelaxBlock];
    for (; mask != 0; mask &= mask - 1) {
      const int lane = __builtin_ctz(mask);
      parent[i + lane] = tail;
      low = lanes[lane] < low ? lanes[lane] : low;
    }
  }
  // The ragged end (< 4 lanes, all in one block) goes element-wise.
  return relaxed + RelaxRowScalar(cost + i, tail_potential,
                                  head_potential + i, tail_distance, tail,
                                  n - i, distance + i, key + i, parent + i,
                                  block_min + i / kRelaxBlock);
}

}  // namespace

const KernelTable& Avx2Kernels() {
  static const KernelTable table = {
      /*squared_distance=*/SquaredDistanceBlock,
      /*squared_distance_fma=*/SquaredDistanceBlockFma,
      /*dot=*/DotBlock,
      /*dot_fma=*/DotBlockFma,
      /*dot_norm=*/DotNormBlock,
      /*dot_norm_fma=*/DotNormBlockFma,
      /*va_lower_bound=*/VaLowerBoundBlock,
      /*relax_row=*/RelaxRow,
  };
  return table;
}

#else  // !GEACC_HAVE_AVX2

const KernelTable& Avx2Kernels() {
  GEACC_CHECK(false) << "AVX2 kernels were not compiled into this binary";
  return ScalarKernels();  // unreachable
}

#endif  // GEACC_HAVE_AVX2

}  // namespace geacc::simd::internal
