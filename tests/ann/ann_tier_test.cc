// The approximate tier's unit and edge-case suite (docs/approx.md):
// SearchMode semantics, graph-build determinism, and the corners where
// the approx path must collapse to (or merge with) the exact one —
// k >= live points, empty graphs, all-tombstoned shards, and
// recall_target = 1.0.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "ann/ann_index.h"
#include "ann/knn_graph.h"
#include "ann/search_mode.h"
#include "baseline/brute_force_cpu.h"
#include "common/rng.h"
#include "core/clustering.h"
#include "core/device_points.h"
#include "core/shard_host.h"
#include "core/sweet_knn.h"
#include "gtest/gtest.h"
#include "serve/knn_service.h"
#include "store/snapshot.h"
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

double RecallAt(const KnnResult& truth, const KnnResult& got, size_t q,
                int k) {
  std::set<uint32_t> want;
  for (int j = 0; j < k; ++j) {
    if (truth.row(q)[j].index == kInvalidNeighbor) break;
    want.insert(truth.row(q)[j].index);
  }
  if (want.empty()) return 1.0;
  size_t hits = 0;
  for (int j = 0; j < k; ++j) {
    if (want.count(got.row(q)[j].index) != 0) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(want.size());
}

// --- SearchMode semantics ---------------------------------------------------

TEST(SearchModeTest, NormalizeCollapsesEffectivelyExactModes) {
  EXPECT_EQ(ann::Normalize(ann::SearchMode::Exact()),
            ann::SearchMode::Exact());
  EXPECT_EQ(ann::Normalize(ann::SearchMode::Approx(1.0)),
            ann::SearchMode::Exact());
  EXPECT_EQ(ann::Normalize(ann::SearchMode::Approx(1.5, 128)),
            ann::SearchMode::Exact());
  const ann::SearchMode approx = ann::SearchMode::Approx(0.95, 64);
  EXPECT_EQ(ann::Normalize(approx), approx);
}

TEST(SearchModeTest, EffectiveEfHonorsExplicitBudgetAndKFloor) {
  EXPECT_EQ(ann::EffectiveEf(ann::SearchMode::Approx(0.9, 200), 10), 200);
  // The queue must hold a full answer: explicit ef is clamped up to k.
  EXPECT_EQ(ann::EffectiveEf(ann::SearchMode::Approx(0.9, 5), 50), 50);
  // Derived budgets grow as the allowed miss rate shrinks.
  const int ef_90 = ann::EffectiveEf(ann::SearchMode::Approx(0.9), 10);
  const int ef_99 = ann::EffectiveEf(ann::SearchMode::Approx(0.99), 10);
  EXPECT_GE(ef_90, 64);
  EXPECT_GT(ef_99, ef_90);
}

TEST(SearchModeTest, OrderingIsStrictWeakAndExactFirst) {
  const ann::SearchMode exact = ann::SearchMode::Exact();
  const ann::SearchMode a = ann::SearchMode::Approx(0.9);
  const ann::SearchMode b = ann::SearchMode::Approx(0.95);
  EXPECT_TRUE(ann::SearchModeLess(exact, a));
  EXPECT_TRUE(ann::SearchModeLess(a, b));
  EXPECT_FALSE(ann::SearchModeLess(a, a));
  EXPECT_FALSE(ann::SearchModeLess(b, a));
}

// --- Graph build ------------------------------------------------------------

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

TEST(KnnGraphTest, BuildIsBitIdenticalAcrossWorkerCounts) {
  // Seeded sweep of the production build — core::ShardHost::BuildGraph,
  // the base's TI self-join — against BuildKnnGraph's brute-force
  // reference: the neighbor bytes, the degree and the entry seeds must
  // match. Data kinds: clustered and duplicate-heavy points, each under
  // both metrics. Odd seeds force 1-8 landmarks, so small bases reach
  // the per-cluster windows as well as the small-shard rule's one-window
  // scan. Each case runs at the next (SIMD tier, worker count) pair in
  // turn, so every pair meets many shapes; at 2000 rows the data kind
  // rotates too, which keeps the case count affordable.
  LevelGuard guard;
  const std::vector<simd::Level> levels = AvailableLevels();
  const int kWorkers[] = {1, 3, 8};
  uint64_t seed = 0x6b1d;
  size_t turn = 0;
  size_t large_cases = 0;
  for (const uint32_t degree : {1u, 8u, 16u}) {
    for (const size_t rows : {size_t{1}, size_t{2}, size_t{3},
                              size_t{degree}, size_t{degree} + 1,
                              size_t{300}, size_t{2000}}) {
      for (const size_t dims : {1u, 4u, 42u}) {
        const int only_data =
            rows == 2000 ? static_cast<int>(large_cases++ % 4) : -1;
        for (int data = 0; data < 4; ++data) {
          ++seed;
          if (only_data >= 0 && data != only_data) continue;
          const simd::Level level = levels[turn % levels.size()];
          const int workers = kWorkers[(turn / levels.size()) % 3];
          ++turn;
          const bool duplicates = data >= 2;
          const core::Metric metric = data % 2 == 0
                                          ? core::Metric::kEuclidean
                                          : core::Metric::kManhattan;
          const simd::Dist dist = core::SimdDistFor(metric);
          const HostMatrix points =
              duplicates ? DuplicateHeavyPoints(rows, dims, seed)
                         : ClusteredPoints(rows, dims, 5, seed);
          core::TiOptions options = core::TiOptions::Sweet();
          options.metric = metric;
          options.sim_threads = 1;
          options.landmarks_override =
              seed % 2 == 1 ? 1 + static_cast<int>(seed / 2 % 8) : 0;
          ann::GraphBuildParams params;
          params.degree = degree;
          params.workers = workers;
          const std::string repro =
              (::testing::Message()
               << "rows=" << rows << " dims=" << dims << " degree=" << degree
               << " metric=" << static_cast<int>(metric)
               << " duplicates=" << duplicates << " seed=" << seed
               << " landmarks=" << options.landmarks_override
               << " workers=" << workers
               << " tier=" << simd::LevelName(level))
                  .GetString();
          simd::ForceLevelForTest(static_cast<int>(level));
          core::ShardHost shard(gpusim::DeviceSpec::TeslaK20c(), options);
          shard.ConfigureAnn(true, params);
          shard.BuildCold(points);
          shard.BuildGraph(points, ann::KnnGraph{});
          const ann::KnnGraph& got = shard.ann.graph();
          const ann::KnnGraph want = ann::BuildKnnGraph(
              points.data(), rows, dims, dist, params,
              core::AnnEntryPointsFromClustering(shard.image.clustering()));
          ASSERT_EQ(got.num_nodes, want.num_nodes) << repro;
          ASSERT_EQ(got.degree, want.degree) << repro;
          ASSERT_EQ(got.neighbors, want.neighbors) << repro;
          ASSERT_EQ(got.entry_points, want.entry_points) << repro;
          // The reference against the definition, on the smaller bases:
          // row i is the degree nearest other rows under (distance, id).
          if (rows <= 300) {
            std::vector<Neighbor> others;
            for (size_t i = 0; i < rows; ++i) {
              others.clear();
              for (size_t j = 0; j < rows; ++j) {
                if (j == i) continue;
                others.push_back(Neighbor{
                    static_cast<uint32_t>(j),
                    ann::PointDistance(points.row(i), points.row(j), dims,
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
          // Every third seed also hands the reference messy landmark
          // picks (out of range, repeated) for the entry-point cleanup.
          if (seed % 3 == 0) {
            const auto half = static_cast<uint32_t>(rows / 2);
            const ann::KnnGraph cleaned = ann::BuildKnnGraph(
                points.data(), rows, dims, dist, params,
                {static_cast<uint32_t>(rows) + 3, half, 0u, half});
            ASSERT_EQ(cleaned.neighbors, want.neighbors) << repro;
            const std::vector<uint32_t> expected =
                half == 0 ? std::vector<uint32_t>{0u}
                          : std::vector<uint32_t>{0u, half};
            ASSERT_EQ(cleaned.entry_points, expected) << repro;
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
  // With 5 points every node can name at most 4 neighbors; with only 4
  // candidates NN-descent must have found them all (the graph is exact).
  for (uint32_t node = 0; node < g.num_nodes; ++node) {
    size_t live = 0;
    for (uint32_t e = 0; e < g.degree; ++e) {
      if (g.row(node)[e] != kInvalidNeighbor) ++live;
    }
    EXPECT_EQ(live, 4u) << "node " << node;
  }
}

// A service builds each shard's graph after its shard fan-out, on every
// hardware thread when no width is configured. Those graphs must be the
// bytes a one-thread service builds, on each path that builds them: the
// constructor, and FromSnapshots / SwapIndex over a snapshot set saved
// without graphs (which makes them build rather than adopt).
TEST(KnnGraphTest, ServiceDefaultWidthGraphsMatchOneThread) {
  const HostMatrix points = ClusteredPoints(900, 6, 5, 0x51de);
  const std::string root = ::testing::TempDir() + "/knn_graph_width";
  std::filesystem::remove_all(root);
  const auto save = [&](serve::KnnService* service, const std::string& name) {
    const std::string dir = root + "/" + name;
    EXPECT_TRUE(service->SaveSnapshots(dir).ok()) << name;
    return dir;
  };
  const auto graphs = [](const std::string& dir) {
    std::vector<ann::KnnGraph> out;
    const Result<std::vector<std::string>> paths =
        store::ListShardSnapshots(dir);
    EXPECT_TRUE(paths.ok()) << dir;
    if (!paths.ok()) return out;
    for (const std::string& path : paths.value()) {
      Result<store::IndexSnapshot> snap = store::LoadIndexSnapshot(path);
      EXPECT_TRUE(snap.ok()) << path;
      if (snap.ok()) out.push_back(std::move(snap).value().ann_graph);
    }
    return out;
  };

  serve::ServiceConfig config;
  config.num_shards = 2;
  config.auto_compact = false;
  config.enable_ann = true;
  config.options.sim_threads = 1;
  serve::KnnService serial(points, config);
  const std::vector<ann::KnnGraph> want = graphs(save(&serial, "serial"));
  ASSERT_EQ(want.size(), 2u);

  config.options.sim_threads = 0;  // and ann_params.workers = 0: default
  serve::ServiceConfig no_ann = config;
  no_ann.enable_ann = false;
  serve::KnnService graph_free(points, no_ann);
  const std::string pre_graph = save(&graph_free, "pre_graph");
  for (const ann::KnnGraph& none : graphs(pre_graph)) {
    ASSERT_TRUE(none.empty());
  }

  serve::KnnService constructed(points, config);
  Result<std::unique_ptr<serve::KnnService>> adopted =
      serve::KnnService::FromSnapshots(pre_graph, config);
  ASSERT_TRUE(adopted.ok()) << adopted.status().ToString();
  serve::KnnService swapped(UniformPoints(900, 6, 0x51df), config);
  ASSERT_TRUE(swapped.SwapIndex(pre_graph).ok());
  const std::pair<const char*, serve::KnnService*> built[] = {
      {"constructor", &constructed},
      {"from_snapshots", adopted.value().get()},
      {"swap_index", &swapped}};
  for (const auto& [name, service] : built) {
    const std::vector<ann::KnnGraph> got = graphs(save(service, name));
    ASSERT_EQ(got.size(), want.size()) << name;
    for (size_t s = 0; s < want.size(); ++s) {
      SCOPED_TRACE(::testing::Message() << name << " shard " << s);
      ASSERT_FALSE(got[s].empty());
      EXPECT_EQ(got[s].num_nodes, want[s].num_nodes);
      EXPECT_EQ(got[s].degree, want[s].degree);
      EXPECT_EQ(got[s].neighbors, want[s].neighbors);
      EXPECT_EQ(got[s].entry_points, want[s].entry_points);
      EXPECT_EQ(got[s].build_iters, want[s].build_iters);
    }
  }
  std::filesystem::remove_all(root);
}

TEST(AnnIndexTest, EmptyBaseSearchesNothing) {
  HostMatrix empty(0, 4);
  const ann::AnnIndex index =
      ann::AnnIndex::Adopt(empty, simd::Dist::kEuclidean, ann::KnnGraph{});
  EXPECT_TRUE(index.empty());
  const HostMatrix queries = UniformPoints(3, 4, 0xeee);
  ann::AnnSearchStats stats;
  const KnnResult result = index.Search(queries, 5, 64, 1, &stats);
  ASSERT_EQ(result.num_queries(), 3u);
  for (size_t q = 0; q < 3; ++q) {
    for (int j = 0; j < 5; ++j) {
      EXPECT_EQ(result.row(q)[j].index, kInvalidNeighbor);
    }
  }
}

// --- SweetKnnIndex edge cases ----------------------------------------------

SweetKnn::Config AnnConfig() {
  SweetKnn::Config config;
  config.enable_ann = true;
  config.ann_params.degree = 8;
  return config;
}

TEST(AnnIndexEdgeTest, RecallTargetOneRunsTheExactPathBitIdentically) {
  const HostMatrix points = ClusteredPoints(400, 8, 6, 0xc0de);
  const HostMatrix queries = UniformPoints(16, 8, 0xd0d0);
  SweetKnnIndex index(points, AnnConfig());
  const KnnResult exact = index.Query(queries, 10);
  const KnnResult approx_sla1 =
      index.Query(queries, 10, ann::SearchMode::Approx(1.0));
  ExpectBitIdentical(exact, approx_sla1);
}

TEST(AnnIndexEdgeTest, ApproxWithoutGraphFallsBackToExact) {
  const HostMatrix points = ClusteredPoints(300, 6, 5, 0xfeed);
  const HostMatrix queries = UniformPoints(8, 6, 0xbeef);
  SweetKnn::Config config;  // enable_ann = false: no graph exists
  SweetKnnIndex index(points, config);
  const KnnResult exact = index.Query(queries, 7);
  const KnnResult approx =
      index.Query(queries, 7, ann::SearchMode::Approx(0.9));
  ExpectBitIdentical(exact, approx);
}

TEST(AnnIndexEdgeTest, KAtLeastLivePointsReturnsEveryPoint) {
  const HostMatrix points = UniformPoints(30, 5, 0x777);
  const HostMatrix queries = UniformPoints(4, 5, 0x778);
  SweetKnnIndex index(points, AnnConfig());
  // k == rows and k > rows: the answer must hold every live point (the
  // budget escape hatch makes this exact), padded past the live count.
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
  SweetKnn::Config config = AnnConfig();
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
  // neither re-cluster the identical base nor rebuild its graph.
  const HostMatrix points = ClusteredPoints(200, 5, 4, 0xc0c0);
  SweetKnn::Config config = AnnConfig();
  config.compact_delta_fraction = 0.0;
  SweetKnnIndex index(points, config);
  ASSERT_TRUE(index.Remove(0));
  index.Compact();
  ASSERT_EQ(index.compactions(), 1u);
  ASSERT_FALSE(index.pristine());
  ASSERT_EQ(index.delta_size() + index.tombstone_count(), 0u);
  int builds = 0;
  ann::SetGraphBuildObserverForTest([&](int) { ++builds; });
  index.Compact();
  ann::SetGraphBuildObserverForTest(nullptr);
  EXPECT_EQ(index.compactions(), 1u);
  EXPECT_EQ(builds, 0);
}

TEST(AnnIndexEdgeTest, MutationsAreServedExactlyUnderApprox) {
  const HostMatrix points = ClusteredPoints(200, 5, 4, 0x1234);
  SweetKnn::Config config = AnnConfig();
  config.compact_delta_fraction = 0.0;
  SweetKnnIndex index(points, config);
  // Insert a point right on top of the first query: the delta side scan
  // is exact, so approx must surface it as the nearest neighbor.
  const HostMatrix queries = UniformPoints(4, 5, 0x4321);
  std::vector<float> dup(queries.row(0), queries.row(0) + 5);
  const uint32_t id = index.Insert(dup);
  // And tombstone a base row; it must never appear again.
  ASSERT_TRUE(index.Remove(7));
  const KnnResult approx =
      index.Query(queries, 6, ann::SearchMode::Approx(0.9, 4096));
  EXPECT_EQ(approx.row(0)[0].index, id);
  EXPECT_EQ(approx.row(0)[0].distance, 0.0f);
  for (size_t q = 0; q < queries.rows(); ++q) {
    for (int j = 0; j < 6; ++j) {
      EXPECT_NE(approx.row(q)[j].index, 7u);
    }
  }
}

TEST(AnnIndexEdgeTest, LargeEfBudgetIsExact) {
  const HostMatrix points = ClusteredPoints(250, 6, 5, 0x555);
  const HostMatrix queries = UniformPoints(10, 6, 0x556);
  SweetKnnIndex index(points, AnnConfig());
  const KnnResult exact = index.Query(queries, 9);
  // ef >= rows triggers the full-scan escape hatch: bit-identical.
  ann::AnnSearchStats stats;
  const KnnResult approx = index.Query(
      queries, 9, ann::SearchMode::Approx(0.9, 250), nullptr, &stats);
  ExpectBitIdentical(exact, approx);
  EXPECT_EQ(stats.full_scans, queries.rows());
}

TEST(AnnIndexEdgeTest, ApproxMeetsItsRecallTarget) {
  const HostMatrix points = ClusteredPoints(1200, 8, 10, 0xace);
  const HostMatrix queries = UniformPoints(32, 8, 0xacf);
  SweetKnnIndex index(points, AnnConfig());
  const int k = 10;
  const KnnResult truth = baseline::BruteForceCpu(queries, points, k);
  ann::AnnSearchStats stats;
  const KnnResult approx = index.Query(
      queries, k, ann::SearchMode::Approx(0.9), nullptr, &stats);
  double recall_sum = 0.0;
  for (size_t q = 0; q < queries.rows(); ++q) {
    recall_sum += RecallAt(truth, approx, q, k);
  }
  EXPECT_GE(recall_sum / static_cast<double>(queries.rows()), 0.9);
  // And it genuinely ran the graph, not the escape hatch.
  EXPECT_EQ(stats.full_scans, 0u);
  EXPECT_GT(stats.hops, 0u);
}

// --- KnnService edge cases --------------------------------------------------

serve::ServiceConfig AnnServiceConfig() {
  serve::ServiceConfig config;
  config.num_shards = 2;
  config.auto_compact = false;
  config.enable_ann = true;  // default build params (degree 16)
  return config;
}

TEST(AnnServiceEdgeTest, EffectivelyExactModesAnswerLikePlainSearch) {
  const HostMatrix points = ClusteredPoints(300, 6, 5, 0xbed);
  const HostMatrix queries = UniformPoints(6, 6, 0xbee);
  serve::KnnService service(points, AnnServiceConfig());
  const Result<KnnResult> exact = service.JoinBatch(queries, 8);
  const Result<KnnResult> sla1 =
      service.JoinBatch(queries, 8, ann::SearchMode::Approx(1.0));
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(sla1.ok());
  ExpectBitIdentical(exact.value(), sla1.value());
  // Effectively exact traffic never counts as approx.
  EXPECT_EQ(service.stats().approx_groups, 0u);
  service.Shutdown();
}

TEST(AnnServiceEdgeTest, AllTombstonedServiceAnswersAllPadding) {
  const HostMatrix points = UniformPoints(60, 4, 0xdead);
  serve::ServiceConfig config = AnnServiceConfig();
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
  serve::ServiceConfig config = AnnServiceConfig();
  serve::KnnService service(points, config);
  // Mutate enough to matter, then compact: the install must rebuild the
  // graphs over the new bases.
  for (uint32_t id = 0; id < 40; ++id) {
    ASSERT_TRUE(service.Remove(id).ok());
  }
  const HostMatrix extra = UniformPoints(40, 6, 0xf01);
  ASSERT_TRUE(service.InsertBatch(extra).ok());
  ASSERT_TRUE(service.CompactAll().ok());

  const HostMatrix queries = UniformPoints(12, 6, 0xf02);
  const int k = 8;
  const Result<KnnResult> exact = service.JoinBatch(queries, k);
  const Result<KnnResult> approx =
      service.JoinBatch(queries, k, ann::SearchMode::Approx(0.9));
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(approx.ok());
  double recall_sum = 0.0;
  for (size_t q = 0; q < queries.rows(); ++q) {
    recall_sum += RecallAt(exact.value(), approx.value(), q, k);
  }
  EXPECT_GE(recall_sum / static_cast<double>(queries.rows()), 0.9);
  EXPECT_GT(service.stats().approx_queries, 0u);
  service.Shutdown();
}

TEST(AnnServiceEdgeTest, RecallProbeObservesEstimates) {
  const HostMatrix points = ClusteredPoints(400, 6, 5, 0xaaa);
  serve::ServiceConfig config = AnnServiceConfig();
  config.ann_recall_probe_interval = 1;  // probe every approx group
  serve::KnnService service(points, config);
  const HostMatrix queries = UniformPoints(8, 6, 0xaab);
  ASSERT_TRUE(
      service.JoinBatch(queries, 6, ann::SearchMode::Approx(0.9)).ok());
  const common::HistogramSnapshot estimate =
      service.metrics().SnapshotHistogram("sweetknn_ann_recall_estimate");
  EXPECT_EQ(estimate.count, 1u);
  EXPECT_GE(estimate.sum, 0.0);
  EXPECT_LE(estimate.sum, 1.0 + 1e-9);
  service.Shutdown();
}

}  // namespace
}  // namespace sweetknn
