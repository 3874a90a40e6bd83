// Cross-validation of the profiling counters: the host route's TI scan
// (HostImage::Knn) and the GPU basic TI implementation run the same two
// filters, so their saved-computation fractions must be in the same
// ballpark (they differ only through the clusterings' landmark streams,
// the host windows' pruning slack and theta-update ordering).

#include "core/sweet_knn.h"
#include "core/ti_knn_gpu.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace sweetknn {
namespace {

TEST(CounterConsistencyTest, CpuAndGpuSavedFractionsAgree) {
  // Enough rows that every cluster fills a tile: a smaller image takes
  // the small-shard rule's one-window scan and saves nothing.
  const HostMatrix points = testing::ClusteredPoints(2400, 8, 10, 201,
                                                     /*spread=*/0.01f);
  const SweetKnnIndex index(points);
  ASSERT_FALSE(index.host_image().single_window());
  core::RangeScanStats cpu_stats;
  index.host_image().Knn(points, 8, simd::Dist::kEuclidean, 1, &cpu_stats);
  const double cpu_saved =
      1.0 - static_cast<double>(cpu_stats.candidates) /
                static_cast<double>(cpu_stats.total_pairs);

  gpusim::Device dev(gpusim::DeviceSpec::TeslaK20c());
  core::KnnRunStats gpu_stats;
  core::TiKnnEngine::RunOnce(&dev, points, points, 8,
                             core::TiOptions::BasicTi(), &gpu_stats);

  EXPECT_EQ(cpu_stats.total_pairs, gpu_stats.total_pairs);
  EXPECT_GT(cpu_saved, 0.8);
  EXPECT_GT(gpu_stats.SavedFraction(), 0.8);
  EXPECT_NEAR(cpu_saved, gpu_stats.SavedFraction(), 0.1);
}

TEST(CounterConsistencyTest, SweetMultiThreadingMayOnlyWeakenFiltering) {
  // Shared-theta multi-threading never computes fewer distances than the
  // single-thread full filter on the same clustering.
  const HostMatrix points = testing::ClusteredPoints(150, 6, 4, 202);
  core::TiOptions single = core::TiOptions::Sweet();
  single.elastic_parallelism = false;
  core::TiOptions multi = core::TiOptions::Sweet();
  multi.threads_per_query_override = 8;

  gpusim::Device dev_a(gpusim::DeviceSpec::TeslaK20c());
  core::KnnRunStats stats_single;
  core::TiKnnEngine::RunOnce(&dev_a, points, points, 5, single,
                             &stats_single);
  gpusim::Device dev_b(gpusim::DeviceSpec::TeslaK20c());
  core::KnnRunStats stats_multi;
  core::TiKnnEngine::RunOnce(&dev_b, points, points, 5, multi,
                             &stats_multi);

  EXPECT_GE(stats_multi.distance_calcs, stats_single.distance_calcs);
}

TEST(CounterConsistencyTest, PartialFilterComputesMoreButSavesMost) {
  const HostMatrix points = testing::ClusteredPoints(500, 6, 8, 203,
                                                     /*spread=*/0.01f);
  core::TiOptions full = core::TiOptions::Sweet();
  full.filter_override = core::Level2Filter::kFull;
  core::TiOptions partial = core::TiOptions::Sweet();
  partial.filter_override = core::Level2Filter::kPartial;

  gpusim::Device dev_a(gpusim::DeviceSpec::TeslaK20c());
  core::KnnRunStats stats_full;
  core::TiKnnEngine::RunOnce(&dev_a, points, points, 10, full, &stats_full);
  gpusim::Device dev_b(gpusim::DeviceSpec::TeslaK20c());
  core::KnnRunStats stats_partial;
  core::TiKnnEngine::RunOnce(&dev_b, points, points, 10, partial,
                             &stats_partial);

  EXPECT_GE(stats_partial.distance_calcs, stats_full.distance_calcs);
  // The paper's observation: "most distance computations could still be
  // saved even with the weakened level-2 filtering".
  EXPECT_GT(stats_partial.SavedFraction(), 0.8);
}

}  // namespace
}  // namespace sweetknn
