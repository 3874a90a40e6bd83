// AVX-512F tier: one __m512 accumulator covers a whole 16-lane tile.
// Same canonical per-lane recurrence as the scalar tier. AVX-512F
// includes fused multiply-add forms, so this translation unit MUST keep
// -ffp-contract=off — a contracted vfmadd would change low bits and
// break the cross-tier bit-identity the equivalence suite enforces.

#include <immintrin.h>

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "simd/kernels_impl.h"

#if !SWEETKNN_SIMD_HAVE_AVX512
#error "kernels_avx512.cc requires SWEETKNN_SIMD_HAVE_AVX512"
#endif

namespace sweetknn::simd::internal {

namespace {

inline __m512 Abs512(__m512 v) {
  return _mm512_castsi512_ps(_mm512_andnot_si512(
      _mm512_set1_epi32(static_cast<int>(0x80000000u)),
      _mm512_castps_si512(v)));
}

inline void TileDistances(const float* query, const float* tile, size_t dims,
                          Dist dist, float* out16) {
  __m512 acc = _mm512_setzero_ps();
  if (dist == Dist::kManhattan) {
    for (size_t j = 0; j < dims; ++j) {
      const __m512 qj = _mm512_set1_ps(query[j]);
      acc = _mm512_add_ps(
          acc, Abs512(_mm512_sub_ps(qj,
                                    _mm512_loadu_ps(tile + j * kTileLanes))));
    }
  } else {
    for (size_t j = 0; j < dims; ++j) {
      const __m512 qj = _mm512_set1_ps(query[j]);
      const __m512 d =
          _mm512_sub_ps(qj, _mm512_loadu_ps(tile + j * kTileLanes));
      acc = _mm512_add_ps(acc, _mm512_mul_ps(d, d));
    }
    if (dist == Dist::kEuclidean) acc = _mm512_sqrt_ps(acc);
  }
  _mm512_storeu_ps(out16, acc);
}

}  // namespace

void QueryDistancesAvx512(const float* query, const float* tiles, size_t dims,
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

void SelectNearestAvx512(const float* dists, size_t n, uint32_t index_base,
                         TopK* heap) {
  size_t i = 0;
  while (i < n && !heap->full()) {
    heap->PushIfCloser(
        Neighbor{index_base + static_cast<uint32_t>(i), dists[i]});
    ++i;
  }
  for (; i + 16 <= n; i += 16) {
    const __m512 v = _mm512_loadu_ps(dists + i);
    const __m512 thr = _mm512_set1_ps(heap->max());
    if (_mm512_cmp_ps_mask(v, thr, _CMP_LT_OQ) == 0) continue;
    for (size_t l = 0; l < 16; ++l) {
      heap->PushIfCloser(
          Neighbor{index_base + static_cast<uint32_t>(i + l), dists[i + l]});
    }
  }
  for (; i < n; ++i) {
    heap->PushIfCloser(
        Neighbor{index_base + static_cast<uint32_t>(i), dists[i]});
  }
}

void AddRowAvx512(float* acc, const float* row, size_t dims) {
  size_t j = 0;
  for (; j + 16 <= dims; j += 16) {
    _mm512_storeu_ps(acc + j, _mm512_add_ps(_mm512_loadu_ps(acc + j),
                                            _mm512_loadu_ps(row + j)));
  }
  for (; j < dims; ++j) acc[j] += row[j];
}

}  // namespace sweetknn::simd::internal
