#ifndef SWEETKNN_TESTS_TEST_UTIL_H_
#define SWEETKNN_TESTS_TEST_UTIL_H_

#include <string>
#include <vector>

#include "common/knn_result.h"
#include "common/matrix.h"
#include "common/rng.h"
#include "dataset/generators.h"
#include "gtest/gtest.h"
#include "simd/simd_kernels.h"

namespace sweetknn::testing {

/// Small clustered dataset for correctness tests.
inline HostMatrix ClusteredPoints(size_t n, size_t dims, int clusters,
                                  uint64_t seed, float spread = 0.05f) {
  dataset::MixtureConfig cfg;
  cfg.n = n;
  cfg.dims = dims;
  cfg.clusters = clusters;
  cfg.spread = spread;
  cfg.seed = seed;
  return dataset::MakeGaussianMixture("test", cfg).points;
}

/// Uniform random points.
inline HostMatrix UniformPoints(size_t n, size_t dims, uint64_t seed) {
  return dataset::MakeUniform("test", n, dims, seed).points;
}

/// Asserts two results agree on every neighbor distance (indices may
/// differ on exact ties).
inline void ExpectResultsMatch(const KnnResult& expected,
                               const KnnResult& actual,
                               float tolerance = 2e-4f) {
  std::string mismatch;
  const size_t bad =
      CountResultMismatches(expected, actual, tolerance, &mismatch);
  EXPECT_EQ(bad, 0u) << "first mismatch: " << mismatch;
}

/// Every SIMD tier this build and CPU can run, scalar first.
inline std::vector<simd::Level> AvailableLevels() {
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  for (const simd::Level l : {simd::Level::kAvx2, simd::Level::kAvx512}) {
    if (simd::CompiledIn(l) && simd::CpuSupports(l)) levels.push_back(l);
  }
  return levels;
}

/// Restores normal SIMD dispatch when a test exits.
struct LevelGuard {
  ~LevelGuard() { simd::ForceLevelForTest(-1); }
};

}  // namespace sweetknn::testing

#endif  // SWEETKNN_TESTS_TEST_UTIL_H_
