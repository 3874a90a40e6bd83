// The host route's TI scan (core::HostImage::Knn) against its contract:
// byte-identical to simd::PackedKnn over the row-order base on every
// shape — dims from 1 to 1024, both metrics, k from 1 past the base
// size, duplicated rows and kth-place distance ties, queries equal to
// base rows — on both sides of the small-shard rule, and through a
// mutated ShardHost on either route. A scan whose pruning admitted one
// row too few would lose a true neighbor here.

#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/host_image.h"
#include "core/shard_host.h"
#include "core/shard_merge.h"
#include "core/ti_knn_gpu.h"
#include "gtest/gtest.h"
#include "simd/simd_kernels.h"
#include "test_util.h"

namespace sweetknn {
namespace {

/// The Step-1 clustering of `target` under `landmarks` forced landmarks,
/// packed into a host image.
core::HostImage BuildImage(const HostMatrix& target, int landmarks,
                           core::Metric metric) {
  core::TiOptions options = core::TiOptions::Sweet();
  options.metric = metric;
  options.landmarks_override = landmarks;
  gpusim::Device dev(gpusim::DeviceSpec::TeslaK20c());
  core::TiKnnEngine engine(&dev, options);
  engine.PrepareTarget(target);
  return core::HostImage(target, engine.ExportTargetClustering());
}

void ExpectSameBytes(const KnnResult& want, const KnnResult& got,
                     const std::string& what) {
  ASSERT_EQ(want.num_queries(), got.num_queries()) << what;
  ASSERT_EQ(want.k(), got.k()) << what;
  for (size_t q = 0; q < want.num_queries(); ++q) {
    ASSERT_EQ(std::memcmp(want.row(q), got.row(q),
                          static_cast<size_t>(want.k()) * sizeof(Neighbor)),
              0)
        << what << ": query " << q << " first entry want ("
        << want.row(q)[0].index << ", " << want.row(q)[0].distance
        << ") got (" << got.row(q)[0].index << ", " << got.row(q)[0].distance
        << ")";
  }
}

/// Distinct queries followed by every 7th base row (distance-0 matches).
HostMatrix MixedQueries(const HostMatrix& target, size_t distinct,
                        uint64_t seed) {
  const HostMatrix fresh = testing::ClusteredPoints(
      distinct, target.cols(), 4, seed, 0.08f);
  const size_t copies = (target.rows() + 6) / 7;
  HostMatrix out(distinct + copies, target.cols());
  std::memcpy(out.mutable_data(), fresh.data(),
              distinct * target.cols() * sizeof(float));
  for (size_t i = 0; i < copies; ++i) {
    std::memcpy(out.mutable_row(distinct + i), target.row(i * 7),
                target.cols() * sizeof(float));
  }
  return out;
}

/// Scans `image` at k in {1, 10, n, n + 3} and demands PackedKnn's bytes.
void ExpectMatchesPackedKnn(const core::HostImage& image,
                            const HostMatrix& target,
                            const HostMatrix& queries, simd::Dist dist,
                            const std::string& what) {
  const simd::PackedTargets packed =
      simd::PackedTargets::Pack(target.data(), target.rows(), target.cols());
  const int n = static_cast<int>(target.rows());
  for (const int k : {1, 10, n, n + 3}) {
    core::RangeScanStats stats;
    const KnnResult got = image.Knn(queries, k, dist, /*workers=*/1, &stats);
    ExpectSameBytes(simd::PackedKnn(queries, packed, k, dist, 1), got,
                    what + " k=" + std::to_string(k));
    EXPECT_EQ(stats.total_pairs, queries.rows() * target.rows()) << what;
    EXPECT_EQ(stats.candidates + stats.members_pruned, stats.total_pairs)
        << what;
  }
}

TEST(HostImageTest, MatchesPackedKnnAcrossDimsMetricsAndRuleSides) {
  constexpr size_t kRows = 300;
  for (const size_t dims : {1, 4, 42, 281, 1024}) {
    const HostMatrix target =
        testing::ClusteredPoints(kRows, dims, 6, 500 + dims, 0.08f);
    const HostMatrix queries = MixedQueries(target, 12, 900 + dims);
    for (const core::Metric metric :
         {core::Metric::kEuclidean, core::Metric::kManhattan}) {
      // 3 landmarks fill their tiles (pruning side); 24 cannot
      // (24 * 16 > 300: one window over the whole base).
      for (const int landmarks : {3, 24}) {
        const core::HostImage image = BuildImage(target, landmarks, metric);
        EXPECT_EQ(image.single_window(), landmarks == 24);
        ExpectMatchesPackedKnn(
            image, target, queries, core::SimdDistFor(metric),
            "dims=" + std::to_string(dims) +
                " metric=" + std::to_string(static_cast<int>(metric)) +
                " landmarks=" + std::to_string(landmarks));
      }
    }
  }
}

TEST(HostImageTest, DuplicatesAndKthPlaceTiesMatchPackedKnn) {
  // Points on a 4-level integer lattice, every row stored twice: exact
  // duplicates, and whole shells of equal distances at every rank.
  constexpr size_t kDims = 3;
  constexpr size_t kDistinct = 160;
  Rng rng(4242);
  HostMatrix target(2 * kDistinct, kDims);
  for (size_t i = 0; i < kDistinct; ++i) {
    for (size_t j = 0; j < kDims; ++j) {
      const float v = static_cast<float>(rng.NextBounded(4));
      target.at(i, j) = v;
      target.at(kDistinct + i, j) = v;
    }
  }
  HostMatrix queries(20, kDims);
  for (size_t q = 0; q < queries.rows(); ++q) {
    for (size_t j = 0; j < kDims; ++j) {
      // Half on the lattice (ties with base rows), half between nodes.
      queries.at(q, j) = static_cast<float>(rng.NextBounded(4)) +
                         (q % 2 == 0 ? 0.0f : 0.5f);
    }
  }
  for (const core::Metric metric :
       {core::Metric::kEuclidean, core::Metric::kManhattan}) {
    for (const int landmarks : {4, 40}) {
      const core::HostImage image = BuildImage(target, landmarks, metric);
      EXPECT_EQ(image.single_window(), landmarks == 40);
      ExpectMatchesPackedKnn(image, target, queries,
                             core::SimdDistFor(metric),
                             "lattice landmarks=" + std::to_string(landmarks));
      ExpectMatchesPackedKnn(image, target, target,
                             core::SimdDistFor(metric),
                             "self landmarks=" + std::to_string(landmarks));
    }
  }
}

TEST(HostImageTest, EveryTierAndWorkerCountGivesTheSameBytes) {
  testing::LevelGuard guard;
  const HostMatrix target = testing::ClusteredPoints(600, 16, 8, 31, 0.05f);
  const HostMatrix queries = MixedQueries(target, 40, 32);
  const core::HostImage image =
      BuildImage(target, 8, core::Metric::kEuclidean);
  simd::ForceLevelForTest(0);
  core::RangeScanStats want_stats;
  const KnnResult want =
      image.Knn(queries, 10, simd::Dist::kEuclidean, 1, &want_stats);
  for (const simd::Level level : testing::AvailableLevels()) {
    simd::ForceLevelForTest(static_cast<int>(level));
    for (const int workers : {1, 4}) {
      core::RangeScanStats stats;
      ExpectSameBytes(want,
                      image.Knn(queries, 10, simd::Dist::kEuclidean, workers,
                                &stats),
                      std::string(simd::LevelName(level)) +
                          " workers=" + std::to_string(workers));
      EXPECT_EQ(stats.candidates, want_stats.candidates);
      EXPECT_EQ(stats.clusters_pruned, want_stats.clusters_pruned);
    }
  }
}

TEST(HostImageTest, PruningSideScoresFewRowsOneWindowSideScoresAll) {
  const HostMatrix target = testing::ClusteredPoints(2000, 8, 10, 77, 0.02f);
  const HostMatrix queries = MixedQueries(target, 30, 78);
  const core::HostImage pruned =
      BuildImage(target, 40, core::Metric::kEuclidean);
  ASSERT_FALSE(pruned.single_window());
  core::RangeScanStats stats;
  pruned.Knn(queries, 5, simd::Dist::kEuclidean, 1, &stats);
  EXPECT_LT(stats.candidates * 4, stats.total_pairs)
      << "the TI filters should skip most of a well-clustered base";
  EXPECT_GT(stats.clusters_pruned, 0u);

  const core::HostImage whole =
      BuildImage(target, 200, core::Metric::kEuclidean);
  ASSERT_TRUE(whole.single_window());
  core::RangeScanStats all;
  whole.Knn(queries, 5, simd::Dist::kEuclidean, 1, &all);
  EXPECT_EQ(all.candidates, all.total_pairs);
}

TEST(HostImageTest, MutatedShardHostAnswersIdenticallyOnBothRoutes) {
  for (const core::Metric metric :
       {core::Metric::kEuclidean, core::Metric::kManhattan}) {
    const size_t dims = 6;
    const HostMatrix base = testing::ClusteredPoints(400, dims, 5, 61, 0.06f);
    core::TiOptions options = core::TiOptions::Sweet();
    options.metric = metric;
    options.sim_threads = 1;
    options.landmarks_override = 6;  // pruning side: 6 * 16 <= 400
    core::ShardHost shard(gpusim::DeviceSpec::TeslaK20c(), options);
    shard.offset = 1000;
    shard.BuildCold(base);
    ASSERT_FALSE(shard.image.single_window());
    // Tombstone every 9th base row; insert near-copies of a few rows.
    for (uint32_t i = 0; i < base.rows(); i += 9) {
      ASSERT_TRUE(shard.ApplyRemove(shard.BaseId(i)));
    }
    for (uint32_t i = 0; i < 12; ++i) {
      std::vector<float> point(base.row(i * 31), base.row(i * 31) + dims);
      point[0] += 0.001f * static_cast<float>(i);
      shard.delta.Append(5000 + i, point.data());
    }
    const HostMatrix queries = MixedQueries(base, 10, 62);
    const int k = 7;
    const int base_k = k + static_cast<int>(shard.delta.tombstones.size());

    // Reference: PackedKnn over the row-order base at the same base_k,
    // merged with the delta scan exactly as SearchGroup merges.
    const simd::PackedTargets packed =
        simd::PackedTargets::Pack(base.data(), base.rows(), dims);
    const KnnResult base_ref = simd::PackedKnn(
        queries, packed, base_k, core::SimdDistFor(metric), 1);
    const KnnResult delta_ref =
        core::ScanDelta(shard.delta, queries, k, metric);
    core::MergeSource base_src;
    base_src.result = &base_ref;
    base_src.offset = shard.offset;
    base_src.tombstones = &shard.delta.tombstones;
    core::MergeSource delta_src;
    delta_src.result = &delta_ref;
    delta_src.id_map = shard.delta.ids.data();
    const KnnResult want =
        core::MergeMutableResults({base_src, delta_src}, k);

    const core::ShardAnswer host =
        shard.SearchGroup(queries, k, core::QueryRoute::kHost, metric);
    const core::ShardAnswer device =
        shard.SearchGroup(queries, k, core::QueryRoute::kDevice, metric);
    ExpectSameBytes(want, host.result, "kHost");
    ExpectSameBytes(want, device.result, "kDevice");
    EXPECT_FALSE(host.device_routed);
    EXPECT_EQ(host.total_pairs, queries.rows() * base.rows());
    EXPECT_GT(host.distance_calcs, 0u);
    EXPECT_LT(host.distance_calcs, host.total_pairs);
  }
}

}  // namespace
}  // namespace sweetknn
