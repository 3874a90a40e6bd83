// The portable fallback tier, and the definition of the canonical
// accumulation order: every vector tier must reproduce these loops
// bit for bit. Per row, the j-loop matches core::AccessorDistance
// exactly (float accumulator, ascending j, std::sqrt at the end), so
// rewired callers keep the repo's bit-exactness invariants.

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "simd/kernels_impl.h"

namespace sweetknn::simd::internal {

void QueryDistancesScalar(const float* query, const float* tiles, size_t dims,
                          size_t row_begin, size_t row_end, Dist dist,
                          float* out) {
  for (size_t row = row_begin; row < row_end; ++row) {
    const float* col =
        tiles + (row / kTileLanes) * kTileLanes * dims + row % kTileLanes;
    float acc = 0.0f;
    if (dist == Dist::kManhattan) {
      for (size_t j = 0; j < dims; ++j) {
        acc += std::fabs(query[j] - col[j * kTileLanes]);
      }
    } else {
      for (size_t j = 0; j < dims; ++j) {
        const float diff = query[j] - col[j * kTileLanes];
        acc += diff * diff;
      }
      if (dist == Dist::kEuclidean) acc = std::sqrt(acc);
    }
    out[row - row_begin] = acc;
  }
}

void SelectNearestScalar(const float* dists, size_t n, uint32_t index_base,
                         TopK* heap) {
  for (size_t i = 0; i < n; ++i) {
    heap->PushIfCloser(
        Neighbor{index_base + static_cast<uint32_t>(i), dists[i]});
  }
}

void AddRowScalar(float* acc, const float* row, size_t dims) {
  for (size_t j = 0; j < dims; ++j) acc[j] += row[j];
}

}  // namespace sweetknn::simd::internal
