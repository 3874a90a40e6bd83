// Runtime dispatch for the vectorized host kernels: picks the best
// compiled-in tier the CPU supports once, honors SWEETKNN_FORCE_SCALAR,
// and exposes a test hook for pinning the tier. Also holds the
// tier-independent pieces: packing, chunking, and PackedKnn.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/parallel_for.h"
#include "simd/kernels_impl.h"
#include "simd/simd_kernels.h"

namespace sweetknn::simd {

namespace {

// Target-row chunk per SelectNearest pass of PackedKnn: 4096 rows of
// distances (16 KiB) stay L1-resident between the distance and select
// sweeps. Tile-aligned as QueryDistances requires.
constexpr size_t kKnnChunkRows = 4096;
static_assert(kKnnChunkRows % kTileLanes == 0);

std::atomic<int> g_forced_level{-1};

bool ForceScalarFromEnv() {
  const char* env = std::getenv("SWEETKNN_FORCE_SCALAR");
  return env != nullptr && env[0] != '\0' && std::strcmp(env, "0") != 0;
}

Level DetectLevel() {
  if (ForceScalarFromEnv()) return Level::kScalar;
  if (CompiledIn(Level::kAvx512) && CpuSupports(Level::kAvx512)) {
    return Level::kAvx512;
  }
  if (CompiledIn(Level::kAvx2) && CpuSupports(Level::kAvx2)) {
    return Level::kAvx2;
  }
  return Level::kScalar;
}

/// Writes `count` <= kTileLanes rows into one dimension-major tile, row r
/// in lane r; element (r, j) is base[r * row_stride + j * col_stride].
void PackTile(const float* base, size_t count, size_t dims,
              size_t row_stride, size_t col_stride, float* tile) {
  for (size_t r = 0; r < count; ++r) {
    const float* src = base + r * row_stride;
    for (size_t j = 0; j < dims; ++j) {
      tile[j * kTileLanes + r] = src[j * col_stride];
    }
  }
}

/// QueryDistances over a raw tile stream at a given tier.
void QueryTileDistances(Level level, const float* query, const float* tiles,
                        size_t dims, size_t row_begin, size_t row_end,
                        Dist dist, float* out) {
  switch (level) {
#if SWEETKNN_SIMD_HAVE_AVX512
    case Level::kAvx512:
      internal::QueryDistancesAvx512(query, tiles, dims, row_begin, row_end,
                                     dist, out);
      return;
#endif
#if SWEETKNN_SIMD_HAVE_AVX2
    case Level::kAvx2:
      internal::QueryDistancesAvx2(query, tiles, dims, row_begin, row_end,
                                   dist, out);
      return;
#endif
    default:
      internal::QueryDistancesScalar(query, tiles, dims, row_begin, row_end,
                                     dist, out);
      return;
  }
}

}  // namespace

const char* LevelName(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kAvx2:
      return "avx2";
    case Level::kAvx512:
      return "avx512";
  }
  return "unknown";
}

bool CompiledIn(Level level) {
  switch (level) {
    case Level::kScalar:
      return true;
    case Level::kAvx2:
      return SWEETKNN_SIMD_HAVE_AVX2 != 0;
    case Level::kAvx512:
      return SWEETKNN_SIMD_HAVE_AVX512 != 0;
  }
  return false;
}

bool CpuSupports(Level level) {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  switch (level) {
    case Level::kScalar:
      return true;
    case Level::kAvx2:
      return __builtin_cpu_supports("avx2") != 0;
    case Level::kAvx512:
      return __builtin_cpu_supports("avx512f") != 0;
  }
  return false;
#else
  return level == Level::kScalar;
#endif
}

Level ActiveLevel() {
  const int forced = g_forced_level.load(std::memory_order_relaxed);
  if (forced >= 0) {
    const Level level = static_cast<Level>(forced);
    if (CompiledIn(level) && CpuSupports(level)) return level;
    return Level::kScalar;
  }
  static const Level detected = DetectLevel();
  return detected;
}

void ForceLevelForTest(int level) {
  g_forced_level.store(level, std::memory_order_relaxed);
}

PackedTargets PackedTargets::PackStrided(const float* base, size_t n,
                                         size_t dims, size_t row_stride,
                                         size_t col_stride) {
  PackedTargets out;
  out.n_ = n;
  out.dims_ = dims;
  out.data_.assign(out.num_tiles() * kTileLanes * dims, 0.0f);
  for (size_t begin = 0; begin < n; begin += kTileLanes) {
    PackTile(base + begin * row_stride, std::min(kTileLanes, n - begin), dims,
             row_stride, col_stride, out.data_.data() + begin * dims);
  }
  return out;
}

PackedTargets PackedTargets::PackGather(const float* rows, size_t dims,
                                        const uint32_t* ids, size_t n) {
  PackedTargets out;
  out.n_ = n;
  out.dims_ = dims;
  out.data_.assign(out.num_tiles() * kTileLanes * dims, 0.0f);
  for (size_t r = 0; r < n; ++r) {
    const float* src = rows + static_cast<size_t>(ids[r]) * dims;
    float* tile = out.data_.data() + (r - r % kTileLanes) * dims;
    for (size_t j = 0; j < dims; ++j) {
      tile[j * kTileLanes + r % kTileLanes] = src[j];
    }
  }
  return out;
}

void QueryDistances(const float* query, const PackedTargets& targets,
                    size_t row_begin, size_t row_end, Dist dist, float* out) {
  SK_DCHECK(row_begin % kTileLanes == 0);
  SK_DCHECK(row_end <= targets.n());
  if (row_begin >= row_end) return;
  QueryTileDistances(ActiveLevel(), query, targets.tiles(), targets.dims(),
                     row_begin, row_end, dist, out);
}

void BlockDistances(const float* queries, size_t nq,
                    const PackedTargets& targets, Dist dist, float* out) {
  for (size_t q = 0; q < nq; ++q) {
    QueryDistances(queries + q * targets.dims(), targets, 0, targets.n(),
                   dist, out + q * targets.n());
  }
}

void QueryBlockDistances(const float* query, const float* rows, size_t n,
                         size_t dims, Dist dist, float* out) {
  // Pack one tile-sized stripe at a time into a single reused buffer; the
  // stripe result is identical to the corresponding rows of a full pack.
  // Lanes past a short last stripe keep an earlier stripe's rows, which
  // are computed and discarded like a full pack's zero padding.
  const Level level = ActiveLevel();
  std::vector<float> stripe(kTileLanes * dims, 0.0f);
  for (size_t begin = 0; begin < n; begin += kTileLanes) {
    const size_t count = std::min(kTileLanes, n - begin);
    PackTile(rows + begin * dims, count, dims, dims, 1, stripe.data());
    QueryTileDistances(level, query, stripe.data(), dims, 0, count, dist,
                       out + begin);
  }
}

void AddRow(float* acc, const float* row, size_t dims) {
  switch (ActiveLevel()) {
#if SWEETKNN_SIMD_HAVE_AVX512
    case Level::kAvx512:
      internal::AddRowAvx512(acc, row, dims);
      return;
#endif
#if SWEETKNN_SIMD_HAVE_AVX2
    case Level::kAvx2:
      internal::AddRowAvx2(acc, row, dims);
      return;
#endif
    default:
      internal::AddRowScalar(acc, row, dims);
      return;
  }
}

void SelectNearest(const float* dists, size_t n, uint32_t index_base,
                   TopK* heap) {
  switch (ActiveLevel()) {
#if SWEETKNN_SIMD_HAVE_AVX512
    case Level::kAvx512:
      internal::SelectNearestAvx512(dists, n, index_base, heap);
      return;
#endif
#if SWEETKNN_SIMD_HAVE_AVX2
    case Level::kAvx2:
      internal::SelectNearestAvx2(dists, n, index_base, heap);
      return;
#endif
    default:
      internal::SelectNearestScalar(dists, n, index_base, heap);
      return;
  }
}

KnnResult PackedKnn(const HostMatrix& queries, const PackedTargets& targets,
                    int k, Dist dist, int workers) {
  SK_CHECK_EQ(queries.cols(), targets.dims());
  KnnResult result(queries.rows(), k);
  common::ParallelFor(
      workers, queries.rows(), /*grain=*/8, [&](size_t begin, size_t end) {
        std::vector<float> dists(std::min(targets.n(), kKnnChunkRows));
        for (size_t q = begin; q < end; ++q) {
          TopK heap(k);
          for (size_t chunk = 0; chunk < targets.n();
               chunk += kKnnChunkRows) {
            const size_t chunk_end =
                std::min(targets.n(), chunk + kKnnChunkRows);
            QueryDistances(queries.row(q), targets, chunk, chunk_end, dist,
                           dists.data());
            SelectNearest(dists.data(), chunk_end - chunk,
                          static_cast<uint32_t>(chunk), &heap);
          }
          result.SetRow(q, heap.Sorted());
        }
      });
  return result;
}

}  // namespace sweetknn::simd
