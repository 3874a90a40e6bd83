#include "baseline/brute_force_cpu.h"
#include "baseline/brute_force_gpu.h"
#include "core/sweet_knn.h"
#include "dataset/paper_datasets.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace sweetknn {
namespace {

using testing::ExpectResultsMatch;

/// Every engine must produce identical neighbors on miniature versions of
/// every paper dataset (the full pipeline: generation, clustering,
/// 2-level filtering, adaptive decisions).
class PaperDatasetAgreement : public ::testing::TestWithParam<const char*> {
};

TEST_P(PaperDatasetAgreement, AllEnginesAgree) {
  const auto& info = dataset::PaperDatasetByName(GetParam());
  // Miniature: cap points and dims so the quadratic oracle stays fast.
  dataset::MixtureConfig cfg;
  cfg.n = std::min<size_t>(info.scaled_points, 300);
  cfg.dims = std::min<size_t>(info.scaled_dims, 48);
  cfg.clusters = std::min(info.gen_clusters, 12);
  cfg.spread = info.gen_spread;
  cfg.size_skew = info.gen_size_skew;
  cfg.intrinsic_dim = info.gen_intrinsic_dim;
  cfg.seed = info.seed;
  const dataset::Dataset data = dataset::MakeGaussianMixture(info.name, cfg);
  const int k = 5;

  const KnnResult oracle =
      baseline::BruteForceCpu(data.points, data.points, k);

  // The host route's TI scan (a default index routes every batch there).
  {
    SweetKnnIndex index(data.points);
    ExpectResultsMatch(oracle, index.Query(data.points, k));
    EXPECT_EQ(index.planner().host_routes(), 1u);
  }

  // GPU brute force (exact mode).
  {
    gpusim::Device dev(gpusim::DeviceSpec::TeslaK20c());
    baseline::BruteForceOptions options;
    options.exact = true;
    ExpectResultsMatch(
        oracle,
        baseline::BruteForceGpu(&dev, data.points, data.points, k, options,
                                nullptr),
        5e-3f);
  }

  // Basic TI on GPU and Sweet KNN.
  {
    gpusim::Device dev(gpusim::DeviceSpec::TeslaK20c());
    ExpectResultsMatch(oracle, core::TiKnnEngine::RunOnce(
                                   &dev, data.points, data.points, k,
                                   core::TiOptions::BasicTi(), nullptr));
  }
  {
    SweetKnn knn;
    ExpectResultsMatch(oracle, knn.SelfJoin(data.points, k));
  }
}

INSTANTIATE_TEST_SUITE_P(AllPaperDatasets, PaperDatasetAgreement,
                         ::testing::Values("3DNet", "kegg", "keggD",
                                           "ipums", "skin", "arcene", "kdd",
                                           "dor", "blog"));

TEST(EndToEndTest, KSweepOnScaledDevice) {
  const HostMatrix points = testing::ClusteredPoints(400, 12, 8, 131);
  const auto oracle_for = [&](int k) {
    return baseline::BruteForceCpu(points, points, k);
  };
  SweetKnn::Config config;
  config.device =
      gpusim::DeviceSpec::ScaledK20c(dataset::ScaledDeviceMemoryBytes());
  for (int k : {1, 2, 10, 40, 120}) {
    SweetKnn knn(config);
    ExpectResultsMatch(oracle_for(k), knn.SelfJoin(points, k));
  }
}

TEST(EndToEndTest, AdaptivePartialFilterEndToEnd) {
  // d=2, k=20 -> k/d = 10 > 8 -> partial filter, verified exact.
  const HostMatrix points = testing::ClusteredPoints(500, 2, 6, 132);
  SweetKnn knn;
  core::KnnRunStats stats;
  const KnnResult result = knn.SelfJoin(points, 20, &stats);
  EXPECT_EQ(stats.filter_used, core::Level2Filter::kPartial);
  ExpectResultsMatch(baseline::BruteForceCpu(points, points, 20), result);
}

TEST(EndToEndTest, DuplicatePointsAreHandled) {
  // Many exact duplicates stress tie-breaking and zero distances.
  HostMatrix points(120, 3);
  for (size_t i = 0; i < 120; ++i) {
    for (size_t j = 0; j < 3; ++j) {
      points.at(i, j) = static_cast<float>((i / 10) * 10 + j);
    }
  }
  SweetKnn knn;
  const KnnResult result = knn.SelfJoin(points, 12);
  ExpectResultsMatch(baseline::BruteForceCpu(points, points, 12), result);
}

TEST(EndToEndTest, OneDimensionalData) {
  const dataset::Dataset grid = dataset::MakeGrid1D("grid", 200);
  SweetKnn knn;
  const KnnResult result = knn.SelfJoin(grid.points, 3);
  // On a grid, the neighbors of interior point i are {i, i-1 or i+1, ...}.
  EXPECT_EQ(result.row(100)[0].index, 100u);
  EXPECT_FLOAT_EQ(result.row(100)[1].distance, 1.0f);
  EXPECT_FLOAT_EQ(result.row(100)[2].distance, 1.0f);
  ExpectResultsMatch(baseline::BruteForceCpu(grid.points, grid.points, 3),
                     result);
}

TEST(EndToEndTest, TinyInputs) {
  for (size_t n : {1, 2, 3, 33}) {
    const HostMatrix points = testing::UniformPoints(n, 4, 133 + n);
    SweetKnn knn;
    const KnnResult result =
        knn.SelfJoin(points, std::min<int>(3, static_cast<int>(n)));
    ExpectResultsMatch(
        baseline::BruteForceCpu(points, points,
                                std::min<int>(3, static_cast<int>(n))),
        result);
  }
}

}  // namespace
}  // namespace sweetknn
