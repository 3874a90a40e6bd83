// Search modes (docs/approx.md): every mode is answered by the exact
// path, so approximate requests return the exact bytes on SweetKnnIndex,
// KnnService and Router, including the corners — k >= live points,
// all-tombstoned bases, mutations, compaction. Plus the brute-force kNN
// graph build (ann::BuildKnnGraph) that stays as a reference.
//
// The cluster leg needs the worker binary; it skips unless SWEETKNN_CLI
// points at the sweetknn_cli executable (ctest exports it).

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "ann/knn_graph.h"
#include "ann/search_mode.h"
#include "baseline/brute_force_cpu.h"
#include "common/rng.h"
#include "core/sweet_knn.h"
#include "dataset/paper_datasets.h"
#include "gtest/gtest.h"
#include "serve/knn_service.h"
#include "serve/router.h"
#include "test_util.h"

namespace sweetknn {
namespace {

using testing::AvailableLevels;
using testing::ClusteredPoints;
using testing::LevelGuard;
using testing::UniformPoints;

void ExpectBitIdentical(const KnnResult& a, const KnnResult& b) {
  ASSERT_EQ(a.num_queries(), b.num_queries());
  ASSERT_EQ(a.k(), b.k());
  const size_t bytes =
      a.num_queries() * static_cast<size_t>(a.k()) * sizeof(Neighbor);
  EXPECT_EQ(std::memcmp(a.row(0), b.row(0), bytes), 0);
}

// --- SearchMode semantics ---------------------------------------------------

TEST(SearchModeTest, NormalizeCollapsesEffectivelyExactModes) {
  EXPECT_EQ(ann::Normalize(ann::SearchMode::Exact()),
            ann::SearchMode::Exact());
  EXPECT_EQ(ann::Normalize(ann::SearchMode::Approx(1.0)),
            ann::SearchMode::Exact());
  EXPECT_EQ(ann::Normalize(ann::SearchMode::Approx(1.5, 128)),
            ann::SearchMode::Exact());
  // Every approximate mode is served exactly too.
  EXPECT_FALSE(ann::SearchMode::Approx(0.9) == ann::SearchMode::Exact());
  EXPECT_EQ(ann::Normalize(ann::SearchMode::Approx(0.9)),
            ann::SearchMode::Exact());
  EXPECT_EQ(ann::Normalize(ann::SearchMode::Approx(0.95, 64)),
            ann::SearchMode::Exact());
}

// --- The brute-force graph build --------------------------------------------

/// `rows` points drawn from rows / 8 distinct ones on a coarse integer
/// grid: exact duplicates (distance 0) and equal distances between
/// distinct points, so (distance, id) ties decide the heap.
HostMatrix DuplicateHeavyPoints(size_t rows, size_t dims, uint64_t seed) {
  Rng rng(seed);
  const size_t distinct = std::max<size_t>(rows / 8, 1);
  std::vector<float> pool(distinct * dims);
  for (float& x : pool) x = static_cast<float>(rng.NextBounded(4));
  HostMatrix points(rows, dims);
  for (size_t i = 0; i < rows; ++i) {
    const size_t pick = rng.NextBounded(distinct);
    std::copy(pool.begin() + pick * dims, pool.begin() + (pick + 1) * dims,
              points.mutable_row(i));
  }
  return points;
}

/// The canonical scalar distance (one float accumulator, ascending
/// dimensions), which every simd tier reproduces bit for bit.
float CanonicalDistance(const float* a, const float* b, size_t dims,
                        simd::Dist dist) {
  float acc = 0.0f;
  for (size_t j = 0; j < dims; ++j) {
    const float diff = a[j] - b[j];
    acc += dist == simd::Dist::kManhattan ? std::fabs(diff) : diff * diff;
  }
  return dist == simd::Dist::kEuclidean ? std::sqrt(acc) : acc;
}

TEST(KnnGraphTest, BuildIsBitIdenticalAcrossWorkerCounts) {
  // Seeded sweep of BuildKnnGraph: one worker against 3 or 8, each case
  // at the next (SIMD tier, worker count) pair in turn, and both against
  // the definition on the smaller sets — row i is the degree nearest
  // other rows under (distance, id). Data kinds: clustered and
  // duplicate-heavy points, each under both metrics.
  LevelGuard guard;
  const std::vector<simd::Level> levels = AvailableLevels();
  const int kWorkers[] = {3, 8};
  uint64_t seed = 0x6b1d;
  size_t turn = 0;
  size_t large_cases = 0;
  for (const uint32_t degree : {1u, 8u, 16u}) {
    for (const size_t rows : {size_t{1}, size_t{2}, size_t{3},
                              size_t{degree}, size_t{degree} + 1,
                              size_t{300}, size_t{2000}}) {
      for (const size_t dims : {1u, 4u, 42u}) {
        // At 2000 rows the data kind rotates, which keeps the case count
        // affordable.
        const int only_data =
            rows == 2000 ? static_cast<int>(large_cases++ % 4) : -1;
        for (int data = 0; data < 4; ++data) {
          ++seed;
          if (only_data >= 0 && data != only_data) continue;
          const simd::Level level = levels[turn % levels.size()];
          const int workers = kWorkers[(turn / levels.size()) % 2];
          ++turn;
          const bool duplicates = data >= 2;
          const simd::Dist dist =
              data % 2 == 0 ? simd::Dist::kEuclidean : simd::Dist::kManhattan;
          const HostMatrix points =
              duplicates ? DuplicateHeavyPoints(rows, dims, seed)
                         : ClusteredPoints(rows, dims, 5, seed);
          ann::GraphBuildParams params;
          params.degree = degree;
          const std::string repro =
              (::testing::Message()
               << "rows=" << rows << " dims=" << dims << " degree=" << degree
               << " dist=" << static_cast<int>(dist)
               << " duplicates=" << duplicates << " seed=" << seed
               << " workers=" << workers
               << " tier=" << simd::LevelName(level))
                  .GetString();
          simd::ForceLevelForTest(static_cast<int>(level));
          params.workers = 1;
          const ann::KnnGraph want = ann::BuildKnnGraph(
              points.data(), rows, dims, dist, params, {});
          params.workers = workers;
          // Messy entry picks (out of range, repeated) come back sorted,
          // deduplicated and in range.
          const auto half = static_cast<uint32_t>(rows / 2);
          const ann::KnnGraph got = ann::BuildKnnGraph(
              points.data(), rows, dims, dist, params,
              {static_cast<uint32_t>(rows) + 3, half, 0u, half});
          ASSERT_EQ(got.num_nodes, want.num_nodes) << repro;
          ASSERT_EQ(got.degree, want.degree) << repro;
          ASSERT_EQ(got.neighbors, want.neighbors) << repro;
          EXPECT_TRUE(want.entry_points.empty()) << repro;
          std::vector<uint32_t> entries = {0u};
          if (half != 0) entries.push_back(half);
          ASSERT_EQ(got.entry_points, entries) << repro;
          if (rows > 300) continue;
          std::vector<Neighbor> others;
          for (size_t i = 0; i < rows; ++i) {
            others.clear();
            for (size_t j = 0; j < rows; ++j) {
              if (j == i) continue;
              others.push_back(Neighbor{
                  static_cast<uint32_t>(j),
                  CanonicalDistance(points.row(i), points.row(j), dims,
                                    dist)});
            }
            std::sort(others.begin(), others.end(), NeighborLess);
            std::vector<uint32_t> row(want.degree, kInvalidNeighbor);
            for (size_t e = 0; e < row.size() && e < others.size(); ++e) {
              row[e] = others[e].index;
            }
            ASSERT_TRUE(std::equal(row.begin(), row.end(),
                                   want.row(static_cast<uint32_t>(i))))
                << repro << " node=" << i;
          }
        }
      }
    }
  }
}

TEST(KnnGraphTest, DegreeClampsToRowsMinusOne) {
  const HostMatrix points = UniformPoints(5, 3, 0xbee);
  ann::GraphBuildParams params;
  params.degree = 16;
  const ann::KnnGraph g = ann::BuildKnnGraph(
      points.row(0), points.rows(), points.cols(), simd::Dist::kEuclidean,
      params, {});
  ASSERT_EQ(g.num_nodes, 5u);
  // With 5 points every node can name at most 4 neighbors, and the
  // exact build names all of them.
  for (uint32_t node = 0; node < g.num_nodes; ++node) {
    size_t live = 0;
    for (uint32_t e = 0; e < g.degree; ++e) {
      if (g.row(node)[e] != kInvalidNeighbor) ++live;
    }
    EXPECT_EQ(live, 4u) << "node " << node;
  }
  EXPECT_TRUE(ann::BuildKnnGraph(points.row(0), 0, 3, simd::Dist::kEuclidean,
                                 params, {})
                  .empty());
}

// --- SweetKnnIndex edge cases ----------------------------------------------

TEST(AnnIndexEdgeTest, RecallTargetOneRunsTheExactPathBitIdentically) {
  const HostMatrix points = ClusteredPoints(400, 8, 6, 0xc0de);
  const HostMatrix queries = UniformPoints(16, 8, 0xd0d0);
  SweetKnnIndex index(points);
  const KnnResult exact = index.Query(queries, 10);
  const KnnResult approx_sla1 =
      index.Query(queries, 10, ann::SearchMode::Approx(1.0));
  ExpectBitIdentical(exact, approx_sla1);
}

TEST(AnnIndexEdgeTest, ApproxWithoutGraphFallsBackToExact) {
  const HostMatrix points = ClusteredPoints(300, 6, 5, 0xfeed);
  const HostMatrix queries = UniformPoints(8, 6, 0xbeef);
  SweetKnnIndex index(points);
  const KnnResult exact = index.Query(queries, 7);
  for (const ann::SearchMode& mode :
       {ann::SearchMode::Approx(0.9), ann::SearchMode::Approx(0.5, 8),
        ann::SearchMode::Approx(0.9, 1 << 20)}) {
    ExpectBitIdentical(exact, index.Query(queries, 7, mode));
  }
  // Recall 1.0 against the oracle, whatever the target asked for.
  const KnnResult truth = baseline::BruteForceCpu(queries, points, 7);
  testing::ExpectResultsMatch(truth, exact);
}

TEST(AnnIndexEdgeTest, KAtLeastLivePointsReturnsEveryPoint) {
  const HostMatrix points = UniformPoints(30, 5, 0x777);
  const HostMatrix queries = UniformPoints(4, 5, 0x778);
  SweetKnnIndex index(points);
  // k == rows and k > rows: the answer holds every live point, padded
  // past the live count.
  for (const int k : {30, 45}) {
    const KnnResult exact = index.Query(queries, k);
    const KnnResult approx =
        index.Query(queries, k, ann::SearchMode::Approx(0.9));
    ExpectBitIdentical(exact, approx);
    for (size_t q = 0; q < queries.rows(); ++q) {
      std::set<uint32_t> seen;
      for (int j = 0; j < k; ++j) {
        const Neighbor& nb = approx.row(q)[j];
        if (j < 30) {
          EXPECT_NE(nb.index, kInvalidNeighbor);
          seen.insert(nb.index);
        } else {
          EXPECT_EQ(nb.index, kInvalidNeighbor);
        }
      }
      EXPECT_EQ(seen.size(), 30u);
    }
  }
}

TEST(AnnIndexEdgeTest, AllTombstonedIndexAnswersAllPadding) {
  const HostMatrix points = UniformPoints(40, 4, 0x999);
  SweetKnn::Config config;
  config.compact_delta_fraction = 0.0;  // keep tombstones, no auto-compact
  SweetKnnIndex index(points, config);
  for (uint32_t id = 0; id < 40; ++id) {
    ASSERT_TRUE(index.Remove(id));
  }
  ASSERT_EQ(index.size(), 0u);
  const HostMatrix queries = UniformPoints(3, 4, 0x99a);
  const KnnResult exact = index.Query(queries, 5);
  const KnnResult approx =
      index.Query(queries, 5, ann::SearchMode::Approx(0.9));
  ExpectBitIdentical(exact, approx);
  for (size_t q = 0; q < queries.rows(); ++q) {
    for (int j = 0; j < 5; ++j) {
      EXPECT_EQ(approx.row(q)[j].index, kInvalidNeighbor);
    }
  }
}

TEST(AnnIndexEdgeTest, SecondCompactionOfIdMappedIndexIsANoOp) {
  // A compaction that leaves non-identity ids installs an id map over an
  // empty overlay. A second Compact() then has nothing to fold: it must
  // not re-cluster the identical base.
  const HostMatrix points = ClusteredPoints(200, 5, 4, 0xc0c0);
  SweetKnn::Config config;
  config.compact_delta_fraction = 0.0;
  SweetKnnIndex index(points, config);
  ASSERT_TRUE(index.Remove(0));
  index.Compact();
  ASSERT_EQ(index.compactions(), 1u);
  ASSERT_FALSE(index.pristine());
  ASSERT_EQ(index.delta_size() + index.tombstone_count(), 0u);
  const core::TiKnnEngine* engine = &index.engine();
  index.Compact();
  EXPECT_EQ(index.compactions(), 1u);
  EXPECT_EQ(&index.engine(), engine);
}

TEST(AnnIndexEdgeTest, MutationsAreServedExactlyUnderApprox) {
  const HostMatrix points = ClusteredPoints(200, 5, 4, 0x1234);
  SweetKnn::Config config;
  config.compact_delta_fraction = 0.0;
  SweetKnnIndex index(points, config);
  // Insert a point right on top of the first query: approx must surface
  // it as the nearest neighbor.
  const HostMatrix queries = UniformPoints(4, 5, 0x4321);
  std::vector<float> dup(queries.row(0), queries.row(0) + 5);
  const uint32_t id = index.Insert(dup);
  // And tombstone a base row; it must never appear again.
  ASSERT_TRUE(index.Remove(7));
  const KnnResult approx =
      index.Query(queries, 6, ann::SearchMode::Approx(0.9, 4096));
  ExpectBitIdentical(index.Query(queries, 6), approx);
  EXPECT_EQ(approx.row(0)[0].index, id);
  EXPECT_EQ(approx.row(0)[0].distance, 0.0f);
  for (size_t q = 0; q < queries.rows(); ++q) {
    for (int j = 0; j < 6; ++j) {
      EXPECT_NE(approx.row(q)[j].index, 7u);
    }
  }
}

// --- KnnService edge cases --------------------------------------------------

serve::ServiceConfig TwoShardConfig() {
  serve::ServiceConfig config;
  config.num_shards = 2;
  config.auto_compact = false;
  return config;
}

TEST(AnnServiceEdgeTest, EffectivelyExactModesAnswerLikePlainSearch) {
  const HostMatrix points = ClusteredPoints(300, 6, 5, 0xbed);
  const HostMatrix queries = UniformPoints(6, 6, 0xbee);
  serve::KnnService service(points, TwoShardConfig());
  const Result<KnnResult> exact = service.JoinBatch(queries, 8);
  ASSERT_TRUE(exact.ok());
  for (const ann::SearchMode& mode :
       {ann::SearchMode::Approx(1.0), ann::SearchMode::Approx(0.9)}) {
    const Result<KnnResult> served = service.JoinBatch(queries, 8, mode);
    ASSERT_TRUE(served.ok());
    ExpectBitIdentical(exact.value(), served.value());
  }
  service.Shutdown();
}

TEST(AnnServiceEdgeTest, AllTombstonedServiceAnswersAllPadding) {
  const HostMatrix points = UniformPoints(60, 4, 0xdead);
  serve::ServiceConfig config = TwoShardConfig();
  config.compact_delta_fraction = 0.0;
  serve::KnnService service(points, config);
  for (uint32_t id = 0; id < 60; ++id) {
    const Result<bool> removed = service.Remove(id);
    ASSERT_TRUE(removed.ok());
    ASSERT_TRUE(removed.value());
  }
  const HostMatrix queries = UniformPoints(4, 4, 0xdeae);
  const Result<KnnResult> approx =
      service.JoinBatch(queries, 5, ann::SearchMode::Approx(0.9));
  ASSERT_TRUE(approx.ok());
  for (size_t q = 0; q < queries.rows(); ++q) {
    for (int j = 0; j < 5; ++j) {
      EXPECT_EQ(approx.value().row(q)[j].index, kInvalidNeighbor);
    }
  }
  service.Shutdown();
}

TEST(AnnServiceEdgeTest, ApproxSurvivesCompactionAndStaysAccurate) {
  const HostMatrix points = ClusteredPoints(500, 6, 6, 0xf00);
  serve::KnnService service(points, TwoShardConfig());
  // Mutate enough to matter, then compact onto fresh bases.
  for (uint32_t id = 0; id < 40; ++id) {
    ASSERT_TRUE(service.Remove(id).ok());
  }
  const HostMatrix extra = UniformPoints(40, 6, 0xf01);
  ASSERT_TRUE(service.InsertBatch(extra).ok());
  ASSERT_TRUE(service.CompactAll().ok());

  const HostMatrix queries = UniformPoints(12, 6, 0xf02);
  const Result<KnnResult> exact = service.JoinBatch(queries, 8);
  const Result<KnnResult> approx =
      service.JoinBatch(queries, 8, ann::SearchMode::Approx(0.9));
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(approx.ok());
  ExpectBitIdentical(exact.value(), approx.value());
  service.Shutdown();
}

// --- The benchmark's lookup shape -------------------------------------------

// One shard of e2ebench's `lookup` workload: the kdd stand-in's 42-d
// micro-clusters at 12 288 rows, single-row reads near base rows, k = 10,
// and the benchmark's serving config (which sets enable_ann). A kNN-graph
// tier answered approximate reads of this shape at a recall of about
// 0.68; every surface must now return the exact bytes.
TEST(ApproxEqualsExactTest, LookupShapedKddShardOnEverySurface) {
  dataset::PaperDatasetInfo info = dataset::PaperDatasetByName("kdd");
  info.seed ^= 1;
  const HostMatrix base = dataset::MakePaperDataset(info, 0.5).points;
  ASSERT_EQ(base.rows(), 12288u);
  Rng rng(0x100c);
  HostMatrix queries(48, base.cols());
  for (size_t r = 0; r < queries.rows(); ++r) {
    const float* src = base.row(rng.NextBounded(base.rows()));
    for (size_t j = 0; j < base.cols(); ++j) {
      queries.mutable_row(r)[j] =
          src[j] + info.gen_spread * static_cast<float>(rng.NextGaussian());
    }
  }
  constexpr int k = 10;
  const ann::SearchMode approx = ann::SearchMode::Approx(0.9);

  SweetKnnIndex index(base);
  const KnnResult want = index.Query(queries, k);
  ExpectBitIdentical(want, index.Query(queries, k, approx));

  serve::ServiceConfig config;
  config.num_shards = 1;
  config.max_batch_size = 64;
  config.cache_capacity = 1024;
  config.enable_ann = true;
  serve::KnnService service(base, config);
  ExpectBitIdentical(want, service.JoinBatch(queries, k, approx).value());
  for (size_t q = 0; q < queries.rows(); ++q) {
    const std::vector<float> point(queries.row(q),
                                   queries.row(q) + queries.cols());
    const std::vector<Neighbor> got = service.Search(point, k, approx).value();
    ASSERT_EQ(got.size(), static_cast<size_t>(k));
    EXPECT_EQ(std::memcmp(got.data(), want.row(q), k * sizeof(Neighbor)), 0)
        << "query " << q;
  }
  service.Shutdown();

  const char* cli = std::getenv("SWEETKNN_CLI");
  if (cli == nullptr) {
    GTEST_SKIP() << "SWEETKNN_CLI not set; the cluster leg needs the CLI";
  }
  serve::RouterConfig router_config;
  router_config.service = config;
  router_config.num_workers = 1;
  router_config.worker_binary = cli;
  Result<std::unique_ptr<serve::Router>> router =
      serve::Router::Start(base, router_config);
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  ExpectBitIdentical(want,
                     router.value()->JoinBatch(queries, k, approx).value());
  router.value()->Shutdown();
}

}  // namespace
}  // namespace sweetknn
