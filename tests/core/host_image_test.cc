// The host route's TI scan (core::HostImage::Knn) against its contract:
// byte-identical to simd::PackedKnn over the row-order base on every
// shape — dims from 1 to 1024, both metrics, k from 1 past the base
// size, duplicated rows and kth-place distance ties, queries equal to
// base rows — on both sides of the small-shard rule, and through a
// mutated ShardHost on either route. A second sweep holds small bases,
// clustered and uniform, to the same bytes, and tighter clusters must
// let the filters skip more work. A scan whose pruning admitted one row
// too few would lose a true neighbor here.

#include <algorithm>
#include <cstring>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "core/host_image.h"
#include "core/shard_host.h"
#include "core/shard_merge.h"
#include "core/ti_knn_gpu.h"
#include "gtest/gtest.h"
#include "simd/simd_kernels.h"
#include "store/snapshot.h"
#include "test_util.h"

namespace sweetknn {
namespace core {

/// Names the metric in the sweep's parameter values (found by ADL).
inline void PrintTo(Metric metric, std::ostream* os) {
  *os << (metric == Metric::kEuclidean ? "euclidean" : "manhattan");
}

}  // namespace core

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

core::TiOptions MutationOptions(core::Metric metric, int landmarks) {
  core::TiOptions options = core::TiOptions::Sweet();
  options.metric = metric;
  options.sim_threads = 1;
  options.landmarks_override = landmarks;
  return options;
}

/// A copy of base row `row`, its first coordinate nudged by `nudge`.
std::vector<float> NearCopy(const HostMatrix& base, size_t row, float nudge) {
  std::vector<float> point(base.row(row), base.row(row) + base.cols());
  point[0] += nudge;
  return point;
}

/// Both routes of `shard` against the over-query reference: PackedKnn
/// over the row-order base at k + |removed base rows|, masked by the
/// caller's own record of the ids it removed, merged with a delta scan —
/// what the device route merges. Also holds the shard's dead_rows and
/// delta tombstones to that record, and, on the pruning side of the
/// small-shard rule with k live base rows to prune against, the host
/// route to scoring fewer rows than all.
void ExpectBothRoutesMatchOverQuery(core::ShardHost* shard,
                                    const std::set<uint32_t>& removed,
                                    const HostMatrix& queries, int k,
                                    core::Metric metric,
                                    const std::string& what) {
  SCOPED_TRACE(what);
  const size_t n = shard->base.rows();
  std::vector<uint8_t> dead(n, 0);
  size_t dead_count = 0;
  for (size_t i = 0; i < n; ++i) {
    if (removed.count(shard->BaseId(i)) != 0) {
      dead[i] = 1;
      ++dead_count;
    }
  }
  if (dead_count == 0) {
    EXPECT_EQ(shard->dead_rows(), nullptr);
  } else {
    ASSERT_NE(shard->dead_rows(), nullptr);
    EXPECT_TRUE(std::equal(dead.begin(), dead.end(), shard->dead_rows()))
        << "dead_rows differ from the removed base rows";
  }
  std::unordered_set<uint32_t> delta_dead;
  for (const uint32_t id : shard->delta.ids) {
    if (removed.count(id) != 0) delta_dead.insert(id);
  }
  EXPECT_EQ(shard->delta.tombstones, delta_dead);
  EXPECT_EQ(shard->tombstone_count(), dead_count + delta_dead.size());

  const simd::PackedTargets packed = simd::PackedTargets::Pack(
      shard->base.data(), n, shard->base.cols());
  const KnnResult base_ref =
      simd::PackedKnn(queries, packed, k + static_cast<int>(dead_count),
                      core::SimdDistFor(metric), 1);
  const KnnResult delta_ref = core::ScanDelta(shard->delta, queries, k, metric);
  core::MergeSource base_src;
  base_src.result = &base_ref;
  base_src.id_map = shard->id_map.empty() ? nullptr : shard->id_map.data();
  base_src.offset = shard->offset;
  base_src.dead_rows = dead.data();
  core::MergeSource delta_src;
  delta_src.result = &delta_ref;
  delta_src.id_map = shard->delta.ids.data();
  const KnnResult want = core::MergeMutableResults({base_src, delta_src}, k);

  const core::ShardAnswer host =
      shard->SearchGroup(queries, k, core::QueryRoute::kHost, metric);
  const core::ShardAnswer device =
      shard->SearchGroup(queries, k, core::QueryRoute::kDevice, metric);
  ExpectSameBytes(want, host.result, what + " kHost");
  ExpectSameBytes(want, device.result, what + " kDevice");
  EXPECT_EQ(host.sim_time_s, 0.0);  // no simulated device ran
  EXPECT_EQ(host.total_pairs, queries.rows() * n);
  EXPECT_GT(host.distance_calcs, 0u);
  const bool can_prune = n - dead_count >= static_cast<size_t>(k);
  if (!shard->image.single_window() && can_prune) {
    EXPECT_LT(host.distance_calcs, host.total_pairs);
  }
}

/// Removes `id` from `shard` and records it in `removed`.
void Remove(core::ShardHost* shard, uint32_t id, std::set<uint32_t>* removed) {
  EXPECT_TRUE(shard->ApplyRemove(id)) << id;
  removed->insert(id);
}

// A mutated ShardHost answers with the over-query reference's bytes on
// both routes, on both sides of the small-shard rule: 6 landmarks fill
// their tiles over 400 rows, 30 cannot (30 * 16 > 400). The host route
// skips dead rows inside its scan at k; the device route over-queries.
TEST(HostImageTest, MutatedShardHostAnswersIdenticallyOnBothRoutes) {
  const gpusim::DeviceSpec spec = gpusim::DeviceSpec::TeslaK20c();
  const size_t dims = 6;
  const int k = 7;
  const HostMatrix base = testing::ClusteredPoints(400, dims, 5, 61, 0.06f);
  const HostMatrix queries = MixedQueries(base, 10, 62);
  for (const core::Metric metric :
       {core::Metric::kEuclidean, core::Metric::kManhattan}) {
    for (const int landmarks : {6, 30}) {
      const core::TiOptions options = MutationOptions(metric, landmarks);
      const bool one_window = landmarks == 30;
      const std::string side =
          std::string(one_window ? "one window" : "pruning") +
          (metric == core::Metric::kEuclidean ? " euclidean" : " manhattan");

      // Scattered tombstones and near-copy inserts at offset 1000, then
      // the same shard through its snapshot (what FromSnapshots and a
      // worker's PrepareSnapshot run), then compacted: an id-mapped
      // base with new removes and inserts.
      std::set<uint32_t> removed;
      core::ShardHost shard(spec, options);
      shard.offset = 1000;
      shard.BuildCold(base);
      ASSERT_EQ(shard.image.single_window(), one_window);
      for (uint32_t i = 0; i < base.rows(); i += 9) {
        Remove(&shard, shard.BaseId(i), &removed);
      }
      for (uint32_t i = 0; i < 12; ++i) {
        shard.delta.Append(5000 + i,
                           NearCopy(base, i * 31, 0.001f * i).data());
      }
      ExpectBothRoutesMatchOverQuery(&shard, removed, queries, k, metric,
                                     side + " scattered");

      const store::IndexSnapshot snap =
          shard.Export("mutated", "test", 0, 1, /*next_id=*/6000);
      core::ShardHost restored(spec, options);
      restored.AdoptOverlay(snap);
      restored.RestoreBase(snap.target, snap.clustering);
      ExpectBothRoutesMatchOverQuery(&restored, removed, queries, k, metric,
                                     side + " restored");

      const std::unique_ptr<core::ShardHost> compacted =
          core::CompactNow(&shard);
      ASSERT_NE(compacted, nullptr);
      ASSERT_FALSE(compacted->id_map.empty());
      ASSERT_EQ(compacted->image.single_window(), one_window);
      for (size_t i = 2; i < compacted->base.rows(); i += 11) {
        Remove(compacted.get(), compacted->BaseId(i), &removed);
      }
      compacted->delta.Append(6000, NearCopy(base, 14, 0.002f).data());
      ExpectBothRoutesMatchOverQuery(compacted.get(), removed, queries, k,
                                     metric, side + " id-mapped");

      // A tombstoned row tied at the kth place with live rows: every row
      // is stored twice, and each query's kth row (the lower id of a
      // tied pair, since k is odd) is removed.
      HostMatrix twice(base.rows(), dims);
      for (size_t i = 0; i < base.rows(); ++i) {
        std::memcpy(twice.mutable_row(i), base.row(i % (base.rows() / 2)),
                    dims * sizeof(float));
      }
      std::set<uint32_t> tied_removed;
      core::ShardHost tied(spec, options);
      tied.BuildCold(twice);
      const simd::PackedTargets packed =
          simd::PackedTargets::Pack(twice.data(), twice.rows(), dims);
      const KnnResult ranked = simd::PackedKnn(
          queries, packed, k + 1, core::SimdDistFor(metric), 1);
      for (size_t q = 0; q < queries.rows(); ++q) {
        const Neighbor* row = ranked.row(q);
        ASSERT_EQ(std::memcmp(&row[k - 1].distance, &row[k].distance,
                              sizeof(float)),
                  0);
        tied.ApplyRemove(row[k - 1].index);  // false once already removed
        tied_removed.insert(row[k - 1].index);
      }
      ExpectBothRoutesMatchOverQuery(&tied, tied_removed, queries, k, metric,
                                     side + " kth-place tie");

      // The same shard compacted, with more removes, then through its
      // snapshot: id-mapped bases at offset 0 whose ids mostly fall
      // inside their row range, so a row taken as id - offset would be
      // the wrong one.
      const std::unique_ptr<core::ShardHost> remapped = core::CompactNow(&tied);
      ASSERT_NE(remapped, nullptr);
      ASSERT_FALSE(remapped->id_map.empty());
      for (size_t i = 5; i < remapped->base.rows(); i += 17) {
        Remove(remapped.get(), remapped->BaseId(i), &tied_removed);
      }
      ExpectBothRoutesMatchOverQuery(remapped.get(), tied_removed, queries, k,
                                     metric, side + " tie, id-mapped");
      const store::IndexSnapshot remapped_snap =
          remapped->Export("mutated", "test", 0, 1, /*next_id=*/400);
      core::ShardHost remapped_restored(spec, options);
      remapped_restored.AdoptOverlay(remapped_snap);
      remapped_restored.RestoreBase(remapped_snap.target,
                                    remapped_snap.clustering);
      ExpectBothRoutesMatchOverQuery(&remapped_restored, tied_removed,
                                     queries, k, metric,
                                     side + " tie, id-mapped restored");

      // Fewer live base rows than k: five base rows and one insert
      // survive, so every row pads.
      std::set<uint32_t> sparse_removed;
      core::ShardHost sparse(spec, options);
      sparse.BuildCold(base);
      for (uint32_t i = 0; i < base.rows(); ++i) {
        if (i % 80 != 0) Remove(&sparse, i, &sparse_removed);
      }
      sparse.delta.Append(400, NearCopy(base, 7, 0.001f).data());
      ExpectBothRoutesMatchOverQuery(&sparse, sparse_removed, queries, k,
                                     metric, side + " padding");

      // Mid-compaction: after the capture, removing the last captured
      // delta entry tombstones it, and removing the first entry past the
      // watermark erases it. The install then carries both forward.
      std::set<uint32_t> busy_removed;
      core::ShardHost busy(spec, options);
      busy.offset = 1000;
      busy.BuildCold(base);
      for (uint32_t i = 0; i < base.rows(); i += 13) {
        Remove(&busy, busy.BaseId(i), &busy_removed);
      }
      for (uint32_t i = 0; i < 6; ++i) {
        busy.delta.Append(5000 + i, NearCopy(base, i * 7, 0.001f).data());
      }
      core::CompactionPlan plan;
      core::CaptureCompaction(&busy, &plan);
      ASSERT_EQ(plan.watermark, 6u);
      busy.delta.Append(5006, NearCopy(base, 42, 0.001f).data());
      busy.delta.Append(5007, NearCopy(base, 49, 0.001f).data());
      Remove(&busy, 5005, &busy_removed);
      Remove(&busy, 5006, &busy_removed);
      Remove(&busy, busy.BaseId(3), &busy_removed);
      EXPECT_EQ(busy.delta.tombstones.count(5005), 1u);
      EXPECT_EQ(busy.delta.Find(5005), 5u);
      EXPECT_EQ(busy.delta.Find(5006), core::DeltaBuffer::kNotFound);
      ExpectBothRoutesMatchOverQuery(&busy, busy_removed, queries, k, metric,
                                     side + " mid-compaction");
      const std::unique_ptr<core::ShardHost> installed =
          core::RebuildCompacted(plan, spec, options);
      core::CarryOverlayForward(busy, plan, installed.get());
      EXPECT_EQ(installed->delta.ids, std::vector<uint32_t>{5007});
      EXPECT_TRUE(installed->delta.tombstones.empty());
      ASSERT_NE(installed->BaseRow(5005), core::DeltaBuffer::kNotFound);
      ExpectBothRoutesMatchOverQuery(installed.get(), busy_removed, queries,
                                     k, metric, side + " carried forward");
    }
  }
}

// The host route scans a mutated shard at k with its dead rows skipped,
// so theta is the kth live distance: it scores exactly what the image
// scores at k with the mask, and fewer rows than the over-query at
// k + |tombstones| would.
TEST(HostImageTest, HostRouteScansAMutatedShardAtK) {
  const HostMatrix base = testing::ClusteredPoints(2000, 8, 10, 77, 0.02f);
  const HostMatrix queries = MixedQueries(base, 30, 78);
  core::ShardHost shard(gpusim::DeviceSpec::TeslaK20c(),
                        MutationOptions(core::Metric::kEuclidean, 40));
  shard.BuildCold(base);
  ASSERT_FALSE(shard.image.single_window());
  // 3 rows in every 20: 300 tombstones spread over every cluster.
  for (uint32_t i = 0; i < base.rows(); ++i) {
    if (i * 7 % 20 < 3) {
      ASSERT_TRUE(shard.ApplyRemove(i));
    }
  }
  ASSERT_EQ(shard.tombstone_count(), 300u);
  const int k = 10;
  const core::ShardAnswer host = shard.SearchGroup(
      queries, k, core::QueryRoute::kHost, core::Metric::kEuclidean);
  core::RangeScanStats masked;
  shard.image.Knn(queries, k, simd::Dist::kEuclidean, 1, &masked,
                  shard.dead_rows());
  core::RangeScanStats over_query;
  shard.image.Knn(queries, k + 300, simd::Dist::kEuclidean, 1, &over_query);
  EXPECT_EQ(host.distance_calcs, masked.candidates);
  EXPECT_LT(host.distance_calcs, over_query.candidates);
}

/// A forced landmark count whose clusters average 32 rows, so the image
/// keeps its per-cluster windows (m * 16 <= n) at any base size.
int WindowedLandmarks(size_t n) {
  return std::max(1, static_cast<int>(n / 32));
}

/// Fraction of query-base pairs the scan never scored.
double SavedFraction(const core::RangeScanStats& stats) {
  return 1.0 - static_cast<double>(stats.candidates) /
                   static_cast<double>(stats.total_pairs);
}

TEST(HostImageTest, TighterClustersSaveMore) {
  const HostMatrix loose =
      testing::ClusteredPoints(400, 8, 8, 36, /*spread=*/0.3f);
  const HostMatrix tight =
      testing::ClusteredPoints(400, 8, 8, 36, /*spread=*/0.01f);
  const int landmarks = WindowedLandmarks(400);
  core::RangeScanStats loose_stats;
  core::RangeScanStats tight_stats;
  BuildImage(loose, landmarks, core::Metric::kEuclidean)
      .Knn(loose, 5, simd::Dist::kEuclidean, 1, &loose_stats);
  BuildImage(tight, landmarks, core::Metric::kEuclidean)
      .Knn(tight, 5, simd::Dist::kEuclidean, 1, &tight_stats);
  EXPECT_GT(SavedFraction(tight_stats), 0.3);
  EXPECT_GT(SavedFraction(tight_stats), SavedFraction(loose_stats));
}

// Small bases, the shapes the 300-row sweep above does not reach: 30 to
// 320 rows (down to one landmark), clustered and uniform, at both
// metrics and on both sides of the small-shard rule, each scanned for
// distinct queries and base-row copies at k in {1, 10, n, n + 3}.
class HostImageSmallBaseSweep
    : public ::testing::TestWithParam<
          std::tuple<int, int, bool, core::Metric, bool>> {};

TEST_P(HostImageSmallBaseSweep, MatchesPackedKnn) {
  const auto [rows, dims, uniform, metric, pruning_side] = GetParam();
  const size_t n = static_cast<size_t>(rows);
  const uint64_t seed = static_cast<uint64_t>(rows * 100 + dims);
  const HostMatrix target =
      uniform ? testing::UniformPoints(n, static_cast<size_t>(dims), seed)
              : testing::ClusteredPoints(n, static_cast<size_t>(dims), 4,
                                         seed, 0.08f);
  const HostMatrix queries = MixedQueries(target, 12, seed + 1);
  // n / 32 landmarks fill their tiles; n / 16 + 1 cannot (m * 16 > n).
  const int landmarks =
      pruning_side ? WindowedLandmarks(n) : rows / 16 + 1;
  const core::HostImage image = BuildImage(target, landmarks, metric);
  ASSERT_EQ(image.single_window(), !pruning_side);
  ExpectMatchesPackedKnn(image, target, queries, core::SimdDistFor(metric),
                         "landmarks=" + std::to_string(landmarks));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, HostImageSmallBaseSweep,
    ::testing::Combine(::testing::Values(30, 100, 320),
                       ::testing::Values(2, 9, 33), ::testing::Bool(),
                       ::testing::Values(core::Metric::kEuclidean,
                                         core::Metric::kManhattan),
                       ::testing::Bool()));

}  // namespace
}  // namespace sweetknn
