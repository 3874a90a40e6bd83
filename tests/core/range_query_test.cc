// Boundary-condition suite for the range modalities: r = 0, r exactly on
// a pair distance (the closed-ball tie must be included
// deterministically), empty result sets, all-tombstoned indexes,
// self-match exclusion and duplicate handling in SelfJoin, the TI range
// scan against the exhaustive one, and merge bit-identity.
// docs/modalities.md states the semantics these tests pin down.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "core/device_points.h"
#include "core/host_image.h"
#include "core/range_search.h"
#include "core/sweet_knn.h"
#include "gtest/gtest.h"
#include "simd/simd_kernels.h"
#include "test_util.h"

namespace sweetknn {
namespace {

using testing::ClusteredPoints;

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

/// `fresh` clustered queries followed by every 5th target row, so radius
/// 0 has matches.
HostMatrix QueriesWithBaseRows(const HostMatrix& target, size_t fresh,
                               uint64_t seed) {
  const HostMatrix distinct =
      ClusteredPoints(fresh, target.cols(), 3, seed, 0.08f);
  const size_t copies = (target.rows() + 4) / 5;
  HostMatrix out(fresh + copies, target.cols());
  std::memcpy(out.mutable_data(), distinct.data(),
              fresh * target.cols() * sizeof(float));
  for (size_t i = 0; i < copies; ++i) {
    std::memcpy(out.mutable_row(fresh + i), target.row(i * 5),
                target.cols() * sizeof(float));
  }
  return out;
}

SweetKnn::Config RouteConfig(core::QueryRoute route) {
  SweetKnn::Config config;
  config.route = route;
  return config;
}

/// O(n^2) oracle: closed-ball matches of `query` over (id, point) pairs,
/// through the same canonical distance kernel every route runs.
std::vector<Neighbor> OracleRange(const float* query,
                                  const std::vector<uint32_t>& ids,
                                  const HostMatrix& points, float radius) {
  std::vector<float> dists(points.rows());
  if (points.rows() > 0) {
    simd::QueryBlockDistances(query, points.data(), points.rows(),
                              points.cols(), simd::Dist::kEuclidean,
                              dists.data());
  }
  std::vector<Neighbor> out;
  for (size_t i = 0; i < points.rows(); ++i) {
    if (dists[i] <= radius) out.push_back(Neighbor{ids[i], dists[i]});
  }
  std::sort(out.begin(), out.end(), NeighborLess);
  return out;
}

void ExpectRowEquals(const RangeResult& result, size_t q,
                     const std::vector<Neighbor>& expected) {
  ASSERT_EQ(result.count(q), expected.size());
  const Neighbor* row = result.begin(q);
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(row[i].index, expected[i].index) << "q=" << q << " i=" << i;
    EXPECT_EQ(row[i].distance, expected[i].distance)
        << "q=" << q << " i=" << i;
  }
}

TEST(RangeQueryTest, BoundaryTieIncludedExactly) {
  // (0,0) -> (3,4) is exactly 5.0f in float; the closed ball at r = 5
  // must include it, and the next float below 5 must not.
  HostMatrix target(3, 2);
  target.at(0, 0) = 0.0f;
  target.at(0, 1) = 0.0f;
  target.at(1, 0) = 3.0f;
  target.at(1, 1) = 4.0f;
  target.at(2, 0) = 50.0f;
  target.at(2, 1) = 50.0f;
  HostMatrix query(1, 2);  // at the origin
  for (const core::QueryRoute route :
       {core::QueryRoute::kDevice, core::QueryRoute::kHost}) {
    SweetKnnIndex index(target, RouteConfig(route));
    const RangeResult at = index.RadiusSearch(query, 5.0f);
    ExpectRowEquals(at, 0, {Neighbor{0, 0.0f}, Neighbor{1, 5.0f}});
    const RangeResult below =
        index.RadiusSearch(query, std::nextafterf(5.0f, 0.0f));
    ExpectRowEquals(below, 0, {Neighbor{0, 0.0f}});
  }
}

TEST(RangeQueryTest, RadiusZeroMatchesExactDuplicatesOnly) {
  HostMatrix target(4, 3);
  for (size_t i = 0; i < 3; ++i) {
    target.at(0, i) = 1.25f;
    target.at(1, i) = 1.25f;  // exact duplicate of row 0
    target.at(2, i) = 1.25f + 1e-6f;
    target.at(3, i) = 9.0f;
  }
  HostMatrix query(1, 3);
  for (size_t i = 0; i < 3; ++i) query.at(0, i) = 1.25f;
  for (const core::QueryRoute route :
       {core::QueryRoute::kDevice, core::QueryRoute::kHost}) {
    SweetKnnIndex index(target, RouteConfig(route));
    const RangeResult r = index.RadiusSearch(query, 0.0f);
    ExpectRowEquals(r, 0, {Neighbor{0, 0.0f}, Neighbor{1, 0.0f}});
  }
}

TEST(RangeQueryTest, EmptyResultRows) {
  const HostMatrix target = ClusteredPoints(64, 4, 3, 901);
  HostMatrix query(2, 4);
  for (size_t j = 0; j < 4; ++j) {
    query.at(0, j) = 1000.0f;
    query.at(1, j) = -1000.0f;
  }
  for (const core::QueryRoute route :
       {core::QueryRoute::kDevice, core::QueryRoute::kHost}) {
    SweetKnnIndex index(target, RouteConfig(route));
    const RangeResult r = index.RadiusSearch(query, 0.01f);
    EXPECT_EQ(r.count(0), 0u);
    EXPECT_EQ(r.count(1), 0u);
    EXPECT_EQ(r.total_matches(), 0u);
  }
}

TEST(RangeQueryTest, AllTombstonedAnswersEmpty) {
  const HostMatrix target = ClusteredPoints(40, 3, 2, 902);
  SweetKnnIndex index(target, RouteConfig(core::QueryRoute::kDevice));
  for (uint32_t id = 0; id < 40; ++id) {
    EXPECT_TRUE(index.Remove(id));
  }
  HostMatrix query(1, 3);
  const RangeResult r = index.RadiusSearch(query, 1e9f);
  EXPECT_EQ(r.count(0), 0u);
  EXPECT_TRUE(index.SelfJoin(1e9f).empty());
  const SweetKnnIndex::KnnGraphResult graph = index.KnnGraph(3);
  EXPECT_TRUE(graph.ids.empty());
  EXPECT_EQ(graph.neighbors.num_queries(), 0u);
}

TEST(RangeQueryTest, SelfJoinExcludesSelfKeepsDuplicates) {
  HostMatrix target(4, 2);
  target.at(0, 0) = 1.0f;  // ids 0 and 1 are exact duplicates
  target.at(1, 0) = 1.0f;
  target.at(2, 0) = 1.5f;
  target.at(3, 0) = 40.0f;
  for (const core::QueryRoute route :
       {core::QueryRoute::kDevice, core::QueryRoute::kHost}) {
    SweetKnnIndex index(target, RouteConfig(route));
    const std::vector<SelfJoinPair> dup = index.SelfJoin(0.0f);
    ASSERT_EQ(dup.size(), 1u);  // only the duplicate pair, no (i, i)
    EXPECT_EQ(dup[0], (SelfJoinPair{0, 1, 0.0f}));
    const std::vector<SelfJoinPair> wide = index.SelfJoin(0.5f);
    ASSERT_EQ(wide.size(), 3u);  // (0,1) (0,2) (1,2), each exactly once
    EXPECT_EQ(wide[0], (SelfJoinPair{0, 1, 0.0f}));
    EXPECT_EQ(wide[1], (SelfJoinPair{0, 2, 0.5f}));
    EXPECT_EQ(wide[2], (SelfJoinPair{1, 2, 0.5f}));
  }
}

TEST(RangeQueryTest, RoutesBitIdenticalAndMatchOracle) {
  const HostMatrix target = ClusteredPoints(300, 6, 5, 903);
  const HostMatrix queries = ClusteredPoints(37, 6, 5, 904);
  std::vector<uint32_t> ids(target.rows());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<uint32_t>(i);
  SweetKnnIndex device_index(target,
                             RouteConfig(core::QueryRoute::kDevice));
  SweetKnnIndex host_index(target,
                           RouteConfig(core::QueryRoute::kHost));
  for (const float radius : {0.0f, 0.05f, 0.2f, 0.6f, 2.0f}) {
    core::RangeScanStats ti_stats;
    const RangeResult ti = device_index.RadiusSearch(queries, radius,
                                                     &ti_stats);
    const RangeResult full = host_index.RadiusSearch(queries, radius);
    EXPECT_TRUE(BitIdentical(ti, full)) << "radius=" << radius;
    EXPECT_LE(ti_stats.candidates, ti_stats.total_pairs);
    for (size_t q = 0; q < queries.rows(); ++q) {
      ExpectRowEquals(ti, q, OracleRange(queries.row(q), ids, target, radius));
    }
  }
}

TEST(RangeQueryTest, TiPruningActuallyPrunes) {
  // Well-separated clusters at a small radius: level 1 must skip whole
  // clusters, so candidates stay well below the all-pairs count.
  const HostMatrix target = ClusteredPoints(400, 4, 8, 905, 0.01f);
  const HostMatrix queries = ClusteredPoints(20, 4, 8, 906, 0.01f);
  SweetKnnIndex index(target, RouteConfig(core::QueryRoute::kDevice));
  core::RangeScanStats stats;
  index.RadiusSearch(queries, 0.05f, &stats);
  EXPECT_GT(stats.clusters_pruned, 0u);
  EXPECT_LT(stats.candidates, stats.total_pairs / 2);
}

TEST(RangeQueryTest, MutatedIndexMatchesOracle) {
  const HostMatrix target = ClusteredPoints(120, 5, 4, 907);
  const HostMatrix queries = ClusteredPoints(15, 5, 4, 908);
  Rng rng(909);
  for (const core::QueryRoute route :
       {core::QueryRoute::kDevice, core::QueryRoute::kHost}) {
    SweetKnnIndex index(target, RouteConfig(route));
    // Mutate: remove a third of the base, insert fresh points.
    for (uint32_t id = 0; id < 120; id += 3) index.Remove(id);
    for (int i = 0; i < 30; ++i) {
      std::vector<float> p(5);
      for (float& v : p) v = rng.NextFloat() * 0.8f;
      index.Insert(p);
    }
    std::vector<uint32_t> ids;
    HostMatrix live;
    index.ExportLive(&ids, &live);
    for (const float radius : {0.0f, 0.1f, 0.4f}) {
      const RangeResult r = index.RadiusSearch(queries, radius);
      for (size_t q = 0; q < queries.rows(); ++q) {
        ExpectRowEquals(r, q, OracleRange(queries.row(q), ids, live, radius));
      }
    }
  }
}

TEST(RangeQueryTest, SelfJoinMatchesOracleOncePerPair) {
  const HostMatrix target = ClusteredPoints(90, 4, 3, 910);
  SweetKnnIndex index(target, RouteConfig(core::QueryRoute::kDevice));
  const float radius = 0.15f;
  const std::vector<SelfJoinPair> pairs = index.SelfJoin(radius);
  // Oracle: every unordered pair once, a < b, ascending a then
  // (distance, b).
  std::vector<SelfJoinPair> expected;
  std::vector<float> dists(target.rows());
  for (size_t a = 0; a < target.rows(); ++a) {
    simd::QueryBlockDistances(target.row(a), target.data(), target.rows(),
                              target.cols(), simd::Dist::kEuclidean,
                              dists.data());
    std::vector<Neighbor> row;
    for (size_t b = a + 1; b < target.rows(); ++b) {
      if (dists[b] <= radius) {
        row.push_back(Neighbor{static_cast<uint32_t>(b), dists[b]});
      }
    }
    std::sort(row.begin(), row.end(), NeighborLess);
    for (const Neighbor& nb : row) {
      expected.push_back({static_cast<uint32_t>(a), nb.index, nb.distance});
    }
  }
  ASSERT_EQ(pairs.size(), expected.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(pairs[i], expected[i]) << "pair " << i;
  }
}

TEST(RangeQueryTest, KnnGraphExactIncludingDuplicateHeavySets) {
  // 20 copies of one point plus a scattered tail: each duplicate's own
  // top-(k+1) can miss itself entirely (smaller-id duplicates fill it),
  // exercising the self-absent branch of the graph build.
  HostMatrix target(30, 3);
  for (size_t i = 0; i < 20; ++i) {
    for (size_t j = 0; j < 3; ++j) target.at(i, j) = 0.5f;
  }
  for (size_t i = 20; i < 30; ++i) {
    target.at(i, 0) = static_cast<float>(i);
  }
  const int k = 4;
  SweetKnnIndex index(target, RouteConfig(core::QueryRoute::kDevice));
  const SweetKnnIndex::KnnGraphResult graph = index.KnnGraph(k);
  ASSERT_EQ(graph.ids.size(), 30u);
  ASSERT_EQ(graph.neighbors.num_queries(), 30u);
  std::vector<float> dists(target.rows());
  for (size_t i = 0; i < 30; ++i) {
    simd::QueryBlockDistances(target.row(i), target.data(), target.rows(),
                              target.cols(), simd::Dist::kEuclidean,
                              dists.data());
    std::vector<Neighbor> all;
    for (size_t t = 0; t < 30; ++t) {
      if (t == i) continue;  // the graph excludes self
      all.push_back(Neighbor{static_cast<uint32_t>(t), dists[t]});
    }
    std::sort(all.begin(), all.end(), NeighborLess);
    const Neighbor* row = graph.neighbors.row(i);
    for (int j = 0; j < k; ++j) {
      EXPECT_EQ(row[j].index, all[static_cast<size_t>(j)].index)
          << "i=" << i << " j=" << j;
      EXPECT_EQ(row[j].distance, all[static_cast<size_t>(j)].distance)
          << "i=" << i << " j=" << j;
    }
  }
}

TEST(RangeQueryTest, KnnGraphPadsWhenFewerThanKOthers) {
  HostMatrix target(3, 2);
  target.at(1, 0) = 1.0f;
  target.at(2, 0) = 2.0f;
  SweetKnnIndex index(target, RouteConfig(core::QueryRoute::kHost));
  const SweetKnnIndex::KnnGraphResult graph = index.KnnGraph(5);
  for (size_t i = 0; i < 3; ++i) {
    const Neighbor* row = graph.neighbors.row(i);
    EXPECT_NE(row[0].index, kInvalidNeighbor);
    EXPECT_NE(row[1].index, kInvalidNeighbor);
    for (int j = 2; j < 5; ++j) {
      EXPECT_EQ(row[j].index, kInvalidNeighbor);
    }
  }
}

// The serving path's only range scan against the exhaustive reference,
// byte for byte: clustered, duplicate-heavy and one-window images
// (m * 16 > n), both metrics, every SIMD tier, at radius 0, at a radius
// exactly on a pair distance, and one past the largest query-to-row
// distance (every row matches).
TEST(RangeQueryTest, TiRangeScanMatchesFullRangeScanByteForByte) {
  testing::LevelGuard guard;
  Rng rng(913);
  HostMatrix lattice(2 * 150, 3);  // every row stored twice
  for (size_t i = 0; i < 150; ++i) {
    for (size_t j = 0; j < 3; ++j) {
      const float v = static_cast<float>(rng.NextBounded(4));
      lattice.at(i, j) = v;
      lattice.at(150 + i, j) = v;
    }
  }
  struct Shape {
    const char* name;
    HostMatrix target;
    int landmarks;
  };
  const std::vector<Shape> shapes = {
      {"clustered", ClusteredPoints(400, 6, 5, 914, 0.05f), 5},
      {"duplicates", lattice, 4},
      {"one-window", ClusteredPoints(300, 6, 5, 915, 0.05f), 24},
  };
  for (const Shape& shape : shapes) {
    const HostMatrix queries = QueriesWithBaseRows(shape.target, 12, 916);
    const size_t n = shape.target.rows();
    for (const core::Metric metric :
         {core::Metric::kEuclidean, core::Metric::kManhattan}) {
      const core::HostImage image =
          BuildImage(shape.target, shape.landmarks, metric);
      EXPECT_EQ(image.single_window(),
                static_cast<size_t>(shape.landmarks) * 16 > n);
      const simd::Dist dist = core::SimdDistFor(metric);
      simd::ForceLevelForTest(static_cast<int>(simd::Level::kScalar));
      const RangeResult all = core::FullRangeScan(
          queries, image, std::numeric_limits<float>::infinity(), dist);
      float farthest = 0.0f;
      for (size_t q = 0; q < queries.rows(); ++q) {
        ASSERT_EQ(all.count(q), n);
        farthest = std::max(farthest, all.end(q)[-1].distance);
      }
      const float on_pair = all.begin(0)[n / 2].distance;
      for (const float radius : {0.0f, on_pair, farthest + 1.0f}) {
        SCOPED_TRACE(::testing::Message()
                     << shape.name << " metric=" << static_cast<int>(metric)
                     << " radius=" << radius);
        simd::ForceLevelForTest(static_cast<int>(simd::Level::kScalar));
        const RangeResult want =
            core::FullRangeScan(queries, image, radius, dist);
        for (const simd::Level level : testing::AvailableLevels()) {
          simd::ForceLevelForTest(static_cast<int>(level));
          core::RangeScanStats stats;
          const RangeResult got =
              core::TiRangeScan(queries, image, radius, dist, &stats);
          EXPECT_TRUE(BitIdentical(want, got)) << simd::LevelName(level);
          EXPECT_TRUE(BitIdentical(
              want, core::FullRangeScan(queries, image, radius, dist)))
              << simd::LevelName(level);
          EXPECT_EQ(stats.total_pairs, queries.rows() * n);
          EXPECT_EQ(stats.candidates + stats.members_pruned,
                    stats.total_pairs);
        }
        if (radius == 0.0f) {
          EXPECT_GT(want.total_matches(), 0u);  // the copied base rows
        } else if (radius > farthest) {
          EXPECT_EQ(want.total_matches(), queries.rows() * n);
        } else {
          EXPECT_GE(want.count(0), n / 2 + 1);  // the tie is in the ball
        }
      }
    }
  }
}

TEST(RangeQueryTest, MergeRangeShardAnswersEqualsFlatScan) {
  const HostMatrix target = ClusteredPoints(200, 5, 4, 911);
  const HostMatrix queries = ClusteredPoints(11, 5, 4, 912);
  const float radius = 0.3f;
  // Flat scan over the whole set.
  const SweetKnnIndex whole(target);
  const RangeResult flat = core::FullRangeScan(
      queries, whole.host_image(), radius, simd::Dist::kEuclidean);
  // Two shards, stable ids via per-shard offsets.
  std::vector<core::RangeShardAnswer> answers(2);
  const size_t split = 120;
  for (int s = 0; s < 2; ++s) {
    const size_t begin = s == 0 ? 0 : split;
    const size_t end = s == 0 ? split : target.rows();
    HostMatrix slice(end - begin, target.cols());
    std::memcpy(slice.mutable_data(), target.row(begin),
                (end - begin) * target.cols() * sizeof(float));
    const SweetKnnIndex shard(slice);
    const RangeResult local = core::FullRangeScan(
        queries, shard.host_image(), radius, simd::Dist::kEuclidean);
    for (size_t q = 0; q < queries.rows(); ++q) {
      std::vector<Neighbor> row = local.Row(q);
      for (Neighbor& nb : row) nb.index += static_cast<uint32_t>(begin);
      answers[static_cast<size_t>(s)].result.AppendRow(row);
    }
  }
  const RangeResult merged =
      core::MergeRangeShardAnswers(answers, queries.rows());
  EXPECT_TRUE(BitIdentical(flat, merged));
}

}  // namespace
}  // namespace sweetknn
