// AVX2 tier: each tile's 16 lanes run as two __m256 accumulators. The
// vector axis is the target-point axis, so every lane's j-loop is the
// same scalar recurrence as kernels_scalar.cc — sub, mul, add in
// ascending j — just 8 lanes at once. Compiled with -mavx2 (no FMA ISA)
// and -ffp-contract=off, so mul+add can never fuse; vsqrtps is IEEE
// correctly rounded like std::sqrt. See docs/performance.md.

#include <immintrin.h>

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "simd/kernels_impl.h"

#if !SWEETKNN_SIMD_HAVE_AVX2
#error "kernels_avx2.cc requires SWEETKNN_SIMD_HAVE_AVX2"
#endif

namespace sweetknn::simd::internal {

namespace {

// abs by clearing the sign bit — exactly what std::fabs(float) does,
// including for NaN payloads.
inline __m256 Abs256(__m256 v) {
  return _mm256_andnot_ps(_mm256_set1_ps(-0.0f), v);
}

inline void TileDistances(const float* query, const float* tile, size_t dims,
                          Dist dist, float* out16) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  if (dist == Dist::kManhattan) {
    for (size_t j = 0; j < dims; ++j) {
      const __m256 qj = _mm256_set1_ps(query[j]);
      const float* row = tile + j * kTileLanes;
      acc0 = _mm256_add_ps(acc0, Abs256(_mm256_sub_ps(qj,
                                                      _mm256_loadu_ps(row))));
      acc1 = _mm256_add_ps(
          acc1, Abs256(_mm256_sub_ps(qj, _mm256_loadu_ps(row + 8))));
    }
  } else {
    for (size_t j = 0; j < dims; ++j) {
      const __m256 qj = _mm256_set1_ps(query[j]);
      const float* row = tile + j * kTileLanes;
      const __m256 d0 = _mm256_sub_ps(qj, _mm256_loadu_ps(row));
      const __m256 d1 = _mm256_sub_ps(qj, _mm256_loadu_ps(row + 8));
      acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(d0, d0));
      acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(d1, d1));
    }
    if (dist == Dist::kEuclidean) {
      acc0 = _mm256_sqrt_ps(acc0);
      acc1 = _mm256_sqrt_ps(acc1);
    }
  }
  _mm256_storeu_ps(out16, acc0);
  _mm256_storeu_ps(out16 + 8, acc1);
}

}  // namespace

void QueryDistancesAvx2(const float* query, const float* tiles, size_t dims,
                        size_t row_begin, size_t row_end, Dist dist,
                        float* out) {
  float lanes[kTileLanes];
  for (size_t row = row_begin; row < row_end; row += kTileLanes) {
    const float* tile = tiles + (row / kTileLanes) * kTileLanes * dims;
    const size_t active =
        row_end - row < kTileLanes ? row_end - row : kTileLanes;
    if (active == kTileLanes) {
      TileDistances(query, tile, dims, dist, out + (row - row_begin));
    } else {
      TileDistances(query, tile, dims, dist, lanes);
      std::memcpy(out + (row - row_begin), lanes, active * sizeof(float));
    }
  }
}

void SelectNearestAvx2(const float* dists, size_t n, uint32_t index_base,
                       TopK* heap) {
  size_t i = 0;
  while (i < n && !heap->full()) {
    heap->PushIfCloser(
        Neighbor{index_base + static_cast<uint32_t>(i), dists[i]});
    ++i;
  }
  // Block-skip: 8 candidates at a time against the current kth distance.
  // The strict < test is exact for an ascending scan (simd_kernels.h);
  // surviving blocks re-test every lane through PushIfCloser, so a lane
  // that only qualified against the pre-block threshold is still
  // rejected correctly.
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(dists + i);
    const __m256 thr = _mm256_set1_ps(heap->max());
    if (_mm256_movemask_ps(_mm256_cmp_ps(v, thr, _CMP_LT_OQ)) == 0) continue;
    for (size_t l = 0; l < 8; ++l) {
      heap->PushIfCloser(
          Neighbor{index_base + static_cast<uint32_t>(i + l), dists[i + l]});
    }
  }
  for (; i < n; ++i) {
    heap->PushIfCloser(
        Neighbor{index_base + static_cast<uint32_t>(i), dists[i]});
  }
}

void AddRowAvx2(float* acc, const float* row, size_t dims) {
  size_t j = 0;
  for (; j + 8 <= dims; j += 8) {
    _mm256_storeu_ps(acc + j, _mm256_add_ps(_mm256_loadu_ps(acc + j),
                                            _mm256_loadu_ps(row + j)));
  }
  for (; j < dims; ++j) acc[j] += row[j];
}

}  // namespace sweetknn::simd::internal
