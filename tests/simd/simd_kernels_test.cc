// Kernel-equivalence suite: every compiled-in SIMD tier must return
// bytes identical to the canonical scalar fallback — for all distance
// kinds, dims 1..130 (odd sizes and remainder lanes included),
// unaligned bases and NaN/inf inputs. This is the contract that lets the
// rewired callers (BruteForceCpu, ScanDelta, clustering, the host
// route's TI scans, graph search) keep the repo's bit-exactness
// invariants.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "core/device_points.h"
#include "gtest/gtest.h"
#include "simd/simd_kernels.h"
#include "test_util.h"

namespace sweetknn::simd {
namespace {

using testing::AvailableLevels;
using testing::LevelGuard;

std::vector<float> RandomBlock(Rng* rng, size_t n, size_t dims) {
  std::vector<float> out(n * dims);
  for (float& x : out) {
    x = rng->NextFloat() * 4.0f - 2.0f;
  }
  return out;
}

/// The pre-existing scalar reference, straight from core.
std::vector<float> ReferenceDistances(const float* query, const float* rows,
                                      size_t n, size_t dims, Dist dist) {
  std::vector<float> out(n);
  for (size_t i = 0; i < n; ++i) {
    const core::PointAccessor a{query, 1};
    const core::PointAccessor b{rows + i * dims, 1};
    if (dist == Dist::kManhattan) {
      out[i] = core::AccessorDistance(a, b, dims, core::Metric::kManhattan);
    } else {
      float acc = 0.0f;
      for (size_t j = 0; j < dims; ++j) {
        const float diff = a[j] - b[j];
        acc += diff * diff;
      }
      out[i] = dist == Dist::kEuclidean ? std::sqrt(acc) : acc;
    }
  }
  return out;
}

void ExpectBitEqual(const std::vector<float>& want,
                    const std::vector<float>& got, const char* what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(std::memcmp(&want[i], &got[i], sizeof(float)), 0)
        << what << ": element " << i << " want " << want[i] << " got "
        << got[i];
  }
}

TEST(SimdDispatchTest, ScalarAlwaysAvailable) {
  EXPECT_TRUE(CompiledIn(Level::kScalar));
  EXPECT_TRUE(CpuSupports(Level::kScalar));
  EXPECT_STREQ(LevelName(Level::kScalar), "scalar");
  EXPECT_STREQ(LevelName(Level::kAvx2), "avx2");
  EXPECT_STREQ(LevelName(Level::kAvx512), "avx512");
}

TEST(SimdDispatchTest, ForceLevelClampsUnavailableTiers) {
  LevelGuard guard;
  ForceLevelForTest(static_cast<int>(Level::kScalar));
  EXPECT_EQ(ActiveLevel(), Level::kScalar);
  for (Level l : {Level::kAvx2, Level::kAvx512}) {
    ForceLevelForTest(static_cast<int>(l));
    if (CompiledIn(l) && CpuSupports(l)) {
      EXPECT_EQ(ActiveLevel(), l);
    } else {
      EXPECT_EQ(ActiveLevel(), Level::kScalar);
    }
  }
}

TEST(SimdKernelsTest, AllTiersBitIdenticalAcrossDims1To130) {
  LevelGuard guard;
  Rng rng(20260809);
  for (size_t dims : {1u, 2u, 3u, 5u, 7u, 8u, 9u, 15u, 16u, 17u, 31u, 32u,
                      33u, 63u, 64u, 65u, 127u, 128u, 129u, 130u}) {
    for (size_t n : {0u, 1u, 5u, 15u, 16u, 17u, 40u, 100u}) {
      const std::vector<float> rows = RandomBlock(&rng, n, dims);
      const std::vector<float> query = RandomBlock(&rng, 1, dims);
      const PackedTargets packed = PackedTargets::Pack(rows.data(), n, dims);
      ASSERT_EQ(packed.n(), n);
      ASSERT_EQ(packed.dims(), dims);
      for (Dist dist :
           {Dist::kEuclidean, Dist::kSquaredEuclidean, Dist::kManhattan}) {
        const std::vector<float> want =
            ReferenceDistances(query.data(), rows.data(), n, dims, dist);
        for (Level level : AvailableLevels()) {
          ForceLevelForTest(static_cast<int>(level));
          std::vector<float> got(n);
          QueryDistances(query.data(), packed, dist, got.data());
          SCOPED_TRACE(::testing::Message()
                       << "level=" << LevelName(level) << " dims=" << dims
                       << " n=" << n << " dist=" << static_cast<int>(dist));
          ExpectBitEqual(want, got, "QueryDistances");
          // The on-the-fly packing path must agree too.
          std::vector<float> unpacked(n);
          QueryBlockDistances(query.data(), rows.data(), n, dims, dist,
                              unpacked.data());
          ExpectBitEqual(want, unpacked, "QueryBlockDistances");
        }
      }
    }
  }
}

TEST(SimdKernelsTest, UnalignedBasesMatch) {
  LevelGuard guard;
  Rng rng(99);
  const size_t dims = 19;
  const size_t n = 37;
  // Shift every base pointer off natural vector alignment by one float.
  std::vector<float> raw = RandomBlock(&rng, n + 1, dims);
  std::vector<float> qraw = RandomBlock(&rng, 2, dims);
  const float* rows = raw.data() + 1;
  const float* query = qraw.data() + 1;
  const PackedTargets packed = PackedTargets::Pack(rows, n, dims);
  const std::vector<float> want =
      ReferenceDistances(query, rows, n, dims, Dist::kEuclidean);
  for (Level level : AvailableLevels()) {
    ForceLevelForTest(static_cast<int>(level));
    std::vector<float> got(n);
    QueryDistances(query, packed, Dist::kEuclidean, got.data());
    SCOPED_TRACE(LevelName(level));
    ExpectBitEqual(want, got, "unaligned QueryDistances");
  }
}

TEST(SimdKernelsTest, NanAndInfPropagateIdentically) {
  LevelGuard guard;
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const size_t dims = 9;
  const size_t n = 33;
  Rng rng(7);
  std::vector<float> rows = RandomBlock(&rng, n, dims);
  std::vector<float> query = RandomBlock(&rng, 1, dims);
  rows[3] = kNan;
  rows[5 * dims + 2] = kInf;
  rows[17 * dims + 8] = -kInf;
  query[4] = kInf;
  const PackedTargets packed = PackedTargets::Pack(rows.data(), n, dims);
  for (Dist dist :
       {Dist::kEuclidean, Dist::kSquaredEuclidean, Dist::kManhattan}) {
    const std::vector<float> want =
        ReferenceDistances(query.data(), rows.data(), n, dims, dist);
    for (Level level : AvailableLevels()) {
      ForceLevelForTest(static_cast<int>(level));
      std::vector<float> got(n);
      QueryDistances(query.data(), packed, dist, got.data());
      SCOPED_TRACE(::testing::Message() << LevelName(level) << " dist="
                                      << static_cast<int>(dist));
      ASSERT_EQ(std::memcmp(want.data(), got.data(), n * sizeof(float)), 0);
    }
  }
}

TEST(SimdKernelsTest, StridedPackMatchesRowMajorPack) {
  Rng rng(11);
  const size_t dims = 6;
  const size_t n = 21;
  const std::vector<float> rows = RandomBlock(&rng, n, dims);
  // Build the column-major image and pack it with strides.
  std::vector<float> colmajor(n * dims);
  for (size_t r = 0; r < n; ++r) {
    for (size_t j = 0; j < dims; ++j) {
      colmajor[j * n + r] = rows[r * dims + j];
    }
  }
  const PackedTargets a = PackedTargets::Pack(rows.data(), n, dims);
  const PackedTargets b = PackedTargets::PackStrided(colmajor.data(), n, dims,
                                                     /*row_stride=*/1,
                                                     /*col_stride=*/n);
  ASSERT_EQ(a.num_tiles(), b.num_tiles());
  EXPECT_EQ(std::memcmp(a.tiles(), b.tiles(),
                        a.num_tiles() * kTileLanes * dims * sizeof(float)),
            0);
}

TEST(SimdKernelsTest, SelectNearestMatchesScalarPushLoop) {
  LevelGuard guard;
  Rng rng(4242);
  for (int k : {1, 3, 8, 40}) {
    for (size_t n : {0u, 1u, 7u, 16u, 50u, 400u}) {
      std::vector<float> dists(n);
      for (float& d : dists) {
        // Coarse quantization forces plenty of exact distance ties.
        d = static_cast<float>(rng.NextBounded(16)) * 0.125f;
      }
      if (n > 20) dists[20] = std::numeric_limits<float>::quiet_NaN();
      TopK want(k);
      for (size_t i = 0; i < n; ++i) {
        want.PushIfCloser(Neighbor{static_cast<uint32_t>(i), dists[i]});
      }
      for (Level level : AvailableLevels()) {
        ForceLevelForTest(static_cast<int>(level));
        TopK got(k);
        // Two chunks to exercise the cross-call ascending-scan contract.
        const size_t split = (n / 2 / kTileLanes) * kTileLanes;
        SelectNearest(dists.data(), split, 0, &got);
        SelectNearest(dists.data() + split, n - split,
                      static_cast<uint32_t>(split), &got);
        SCOPED_TRACE(::testing::Message()
                     << "level=" << LevelName(level) << " k=" << k
                     << " n=" << n);
        const auto ws = want.Sorted();
        const auto gs = got.Sorted();
        ASSERT_EQ(ws.size(), gs.size());
        for (size_t i = 0; i < ws.size(); ++i) {
          EXPECT_EQ(ws[i].index, gs[i].index) << "rank " << i;
          EXPECT_EQ(std::memcmp(&ws[i].distance, &gs[i].distance,
                                sizeof(float)),
                    0)
              << "rank " << i;
        }
      }
    }
  }
}

TEST(SimdKernelsTest, AddRowMatchesScalar) {
  LevelGuard guard;
  Rng rng(5);
  for (size_t dims : {1u, 7u, 8u, 16u, 33u, 130u}) {
    const std::vector<float> row = RandomBlock(&rng, 1, dims);
    const std::vector<float> base = RandomBlock(&rng, 1, dims);
    std::vector<float> want = base;
    for (size_t j = 0; j < dims; ++j) want[j] += row[j];
    for (Level level : AvailableLevels()) {
      ForceLevelForTest(static_cast<int>(level));
      std::vector<float> acc = base;
      AddRow(acc.data(), row.data(), dims);
      SCOPED_TRACE(::testing::Message() << LevelName(level) << " dims="
                                      << dims);
      ExpectBitEqual(want, acc, "AddRow");
    }
  }
}

TEST(SimdKernelsTest, PackedKnnBitIdenticalAcrossTiersAndWorkers) {
  LevelGuard guard;
  Rng rng(31337);
  const size_t dims = 12;
  const size_t n = 203;
  const size_t nq = 17;
  HostMatrix queries(nq, dims);
  std::vector<float> rows = RandomBlock(&rng, n, dims);
  for (size_t q = 0; q < nq; ++q) {
    for (size_t j = 0; j < dims; ++j) {
      queries.at(q, j) = rng.NextFloat();
    }
  }
  const PackedTargets packed = PackedTargets::Pack(rows.data(), n, dims);
  ForceLevelForTest(static_cast<int>(Level::kScalar));
  const KnnResult want = PackedKnn(queries, packed, 9, Dist::kEuclidean, 1);
  for (Level level : AvailableLevels()) {
    ForceLevelForTest(static_cast<int>(level));
    for (int workers : {1, 4}) {
      const KnnResult got =
          PackedKnn(queries, packed, 9, Dist::kEuclidean, workers);
      SCOPED_TRACE(::testing::Message() << LevelName(level) << " workers="
                                      << workers);
      ASSERT_EQ(want.num_queries(), got.num_queries());
      for (size_t q = 0; q < nq; ++q) {
        ASSERT_EQ(std::memcmp(want.row(q), got.row(q),
                              sizeof(Neighbor) * 9),
                  0)
            << "query " << q;
      }
    }
  }
}

}  // namespace
}  // namespace sweetknn::simd
