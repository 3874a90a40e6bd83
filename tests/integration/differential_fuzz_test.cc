// Differential fuzzing: ~200 seeded random configurations of the TI
// engine (n, d, k, metric, filter strength, placement, layout,
// sim_threads, ...) checked against the BruteForceCpu oracle, and — for
// the serving layer's exactness guarantee — a sharded KnnService driven
// by concurrent clients checked bit-for-bit against the single-engine
// result of the same options. A second sweep proves the persistence
// guarantee: an index saved to a snapshot and warm-loaded answers
// bit-identically to the cold-built one under every fuzzed
// configuration. The service and warm-start legs run on both routes.
// A third sweep covers approximate requests: on every
// seeded config they return the exact answer's bytes, on the index and
// on the sharded service, and that answer matches the oracle (recall 1.0
// meets any target). Any mismatch prints a one-line repro of the failing
// seed/config.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "baseline/brute_force_cpu.h"
#include "common/rng.h"
#include "core/sweet_knn.h"
#include "core/ti_knn_gpu.h"
#include "gtest/gtest.h"
#include "serve/knn_service.h"
#include "simd/simd_kernels.h"
#include "test_util.h"

namespace sweetknn {
namespace {

constexpr uint64_t kBaseSeed = 20260806;
constexpr int kNumConfigs = 200;

struct FuzzConfig {
  uint64_t seed = 0;
  size_t n = 0;
  size_t query_n = 0;  // == n for self-joins
  size_t dims = 0;
  int k = 0;
  bool self_join = false;
  int clusters = 1;
  int service_shards = 2;
  core::TiOptions options;
};

const char* FilterName(const std::optional<core::Level2Filter>& f) {
  if (!f.has_value()) return "adaptive";
  return *f == core::Level2Filter::kFull ? "full" : "partial";
}

const char* PlacementName(
    const std::optional<core::KnearestsPlacement>& p) {
  if (!p.has_value()) return "adaptive";
  switch (*p) {
    case core::KnearestsPlacement::kGlobal: return "global";
    case core::KnearestsPlacement::kShared: return "shared";
    case core::KnearestsPlacement::kRegisters: return "registers";
  }
  return "?";
}

const char* RouteName(core::QueryRoute route) {
  return route == core::QueryRoute::kDevice ? "device" : "host";
}

/// The serving and warm-start legs run on each route, so the device
/// engine is checked with every fuzzed option on cold and on
/// snapshot-restored shards, and so is the host scan.
constexpr core::QueryRoute kRoutes[] = {core::QueryRoute::kDevice,
                                        core::QueryRoute::kHost};

/// One-line repro of a failing config, pasteable into a bug report.
std::string Repro(const FuzzConfig& cfg) {
  std::ostringstream out;
  out << "seed=" << cfg.seed << " n=" << cfg.n << " m=" << cfg.query_n
      << " d=" << cfg.dims << " k=" << cfg.k
      << " self_join=" << (cfg.self_join ? 1 : 0)
      << " clusters=" << cfg.clusters << " metric="
      << (cfg.options.metric == core::Metric::kEuclidean ? "euclidean"
                                                         : "manhattan")
      << " filter=" << FilterName(cfg.options.filter_override)
      << " placement=" << PlacementName(cfg.options.placement_override)
      << " layout="
      << (cfg.options.layout == core::PointLayout::kRowMajor ? "row" : "col")
      << " vec=" << cfg.options.point_vector_width
      << " knl="
      << (cfg.options.knearests_layout == core::KnearestsLayout::kBlocked
              ? "blocked"
              : "interleaved")
      << " remap=" << (cfg.options.remap_threads ? 1 : 0)
      << " elastic=" << (cfg.options.elastic_parallelism ? 1 : 0)
      << " tpq=" << cfg.options.threads_per_query_override
      << " sim_threads=" << cfg.options.sim_threads
      << " shards=" << cfg.service_shards
      << " landmarks=" << cfg.options.landmarks_override;
  return out.str();
}

FuzzConfig DrawConfig(uint64_t seed) {
  Rng rng(seed);
  FuzzConfig cfg;
  cfg.seed = seed;
  cfg.n = 24 + rng.NextBounded(233);
  cfg.dims = 1 + rng.NextBounded(16);
  cfg.k = 1 + static_cast<int>(
                  rng.NextBounded(std::min<uint64_t>(cfg.n, 48)));
  cfg.self_join = rng.NextBounded(2) == 0;
  cfg.query_n = cfg.self_join ? cfg.n : 8 + rng.NextBounded(cfg.n);
  cfg.clusters = 1 + static_cast<int>(rng.NextBounded(5));
  cfg.service_shards = 2 + static_cast<int>(rng.NextBounded(2));

  core::TiOptions& opt = cfg.options;
  opt.metric = rng.NextBounded(2) == 0 ? core::Metric::kEuclidean
                                       : core::Metric::kManhattan;
  opt.layout = rng.NextBounded(2) == 0 ? core::PointLayout::kRowMajor
                                       : core::PointLayout::kColumnMajor;
  opt.point_vector_width = rng.NextBounded(2) == 0 ? 4 : 1;
  opt.knearests_layout = rng.NextBounded(2) == 0
                             ? core::KnearestsLayout::kInterleaved
                             : core::KnearestsLayout::kBlocked;
  opt.remap_threads = rng.NextBounded(2) == 0;
  opt.elastic_parallelism = rng.NextBounded(2) == 0;
  switch (rng.NextBounded(3)) {
    case 0: break;  // adaptive
    case 1: opt.filter_override = core::Level2Filter::kFull; break;
    case 2: opt.filter_override = core::Level2Filter::kPartial; break;
  }
  switch (rng.NextBounded(4)) {
    case 0: break;  // adaptive
    case 1: opt.placement_override = core::KnearestsPlacement::kGlobal;
      break;
    case 2:
      // A forced shared-memory kNearests must actually fit in shared
      // memory (the adaptive scheme only picks it when it does).
      if (opt.block_threads * 4 * cfg.k <= 40 * 1024) {
        opt.placement_override = core::KnearestsPlacement::kShared;
      }
      break;
    case 3: opt.placement_override = core::KnearestsPlacement::kRegisters;
      break;
  }
  const uint64_t tpq = rng.NextBounded(4);
  opt.threads_per_query_override = tpq < 2 ? 0 : static_cast<int>(tpq);
  opt.sim_threads = rng.NextBounded(2) == 0 ? 1 : 4;
  // A third of the configs force a few landmarks, so shards whose
  // clusters fill a SIMD tile each take the host route's pruning side
  // (under the 3*sqrt(n) rule every fuzzed shard scans one window).
  if (rng.NextBounded(3) == 0) {
    opt.landmarks_override = 1 + static_cast<int>(rng.NextBounded(8));
  }
  return cfg;
}

void RunConfig(const FuzzConfig& cfg) {
  const HostMatrix target = testing::ClusteredPoints(
      cfg.n, cfg.dims, cfg.clusters, SplitMix64(cfg.seed), 0.08f);
  const HostMatrix distinct_query =
      cfg.self_join ? HostMatrix()
                    : testing::ClusteredPoints(cfg.query_n, cfg.dims,
                                               cfg.clusters,
                                               SplitMix64(cfg.seed + 1),
                                               0.08f);
  const HostMatrix& queries = cfg.self_join ? target : distinct_query;

  const KnnResult oracle = baseline::BruteForceCpu(
      queries, target, cfg.k, cfg.options.metric);

  gpusim::Device dev(gpusim::DeviceSpec::TeslaK20c());
  const KnnResult engine_result = core::TiKnnEngine::RunOnce(
      &dev, queries, target, cfg.k, cfg.options, nullptr);

  std::string mismatch;
  const size_t bad =
      CountResultMismatches(oracle, engine_result, 2e-4f, &mismatch);
  if (bad != 0) {
    ADD_FAILURE() << "engine vs oracle: " << bad << " bad slots ("
                  << mismatch << ") — repro: " << Repro(cfg);
    return;
  }

  // Serving layer: sharded + micro-batched + concurrent clients must be
  // bit-identical to the single-engine result above, on both routes.
  serve::ServiceConfig service_config;
  service_config.num_shards = cfg.service_shards;
  service_config.max_batch_size = 16;
  service_config.options = cfg.options;
  serve::KnnService service(target, service_config);

  for (const core::QueryRoute route : kRoutes) {
    service.set_route(route);
    constexpr int kClients = 4;
    std::vector<KnnResult> answers(kClients);
    std::vector<size_t> begins(kClients);
    std::vector<std::thread> clients;
    const size_t per_client = (queries.rows() + kClients - 1) / kClients;
    for (int c = 0; c < kClients; ++c) {
      const size_t begin = std::min(queries.rows(), c * per_client);
      const size_t end = std::min(queries.rows(), begin + per_client);
      begins[static_cast<size_t>(c)] = begin;
      if (begin == end) continue;
      clients.emplace_back([&, c, begin, end] {
        HostMatrix slice(end - begin, queries.cols());
        for (size_t r = begin; r < end; ++r) {
          for (size_t j = 0; j < queries.cols(); ++j) {
            slice.at(r - begin, j) = queries.at(r, j);
          }
        }
        answers[static_cast<size_t>(c)] =
            service.JoinBatch(slice, cfg.k).value();
      });
    }
    for (std::thread& t : clients) t.join();

    for (int c = 0; c < kClients; ++c) {
      const KnnResult& answer = answers[static_cast<size_t>(c)];
      for (size_t r = 0; r < answer.num_queries(); ++r) {
        const size_t global = begins[static_cast<size_t>(c)] + r;
        for (int i = 0; i < cfg.k; ++i) {
          const Neighbor& want = engine_result.row(global)[i];
          const Neighbor& got = answer.row(r)[i];
          if (want.index != got.index || want.distance != got.distance) {
            ADD_FAILURE() << "service (" << RouteName(route)
                          << " route) vs single engine: query " << global
                          << " rank " << i << " want (" << want.index
                          << ", " << want.distance << ") got ("
                          << got.index << ", " << got.distance
                          << ") — repro: " << Repro(cfg);
            return;
          }
        }
      }
    }
  }

  // Persistence: the same service warm-started from per-shard snapshots
  // must also be bit-identical to the single-engine result.
  const std::string snapshot_dir =
      ::testing::TempDir() + "/fuzz_service_snapshots";
  std::filesystem::remove_all(snapshot_dir);
  const Status saved = service.SaveSnapshots(snapshot_dir);
  if (!saved.ok()) {
    ADD_FAILURE() << "SaveSnapshots failed: " << saved.ToString()
                  << " — repro: " << Repro(cfg);
    return;
  }
  serve::ServiceConfig warm_config = service_config;
  warm_config.snapshot_dir = snapshot_dir;
  serve::KnnService warm_service(target, warm_config);
  if (warm_service.stats().warm_started_shards !=
      static_cast<uint64_t>(warm_service.num_shards())) {
    ADD_FAILURE() << "service fell back to a cold build — repro: "
                  << Repro(cfg);
    std::filesystem::remove_all(snapshot_dir);
    return;
  }
  for (const core::QueryRoute route : kRoutes) {
    warm_service.set_route(route);
    const KnnResult warm_answer =
        warm_service.JoinBatch(queries, cfg.k).value();
    for (size_t q = 0; q < warm_answer.num_queries(); ++q) {
      if (std::memcmp(engine_result.row(q), warm_answer.row(q),
                      static_cast<size_t>(cfg.k) * sizeof(Neighbor)) != 0) {
        ADD_FAILURE() << "warm-started service (" << RouteName(route)
                      << " route) diverged at query " << q
                      << " — repro: " << Repro(cfg);
        break;
      }
    }
  }
  if (warm_service.metrics().CounterValue(
          "sweetknn_planner_device_routes_total") == 0.0) {
    ADD_FAILURE() << "no restored shard answered on the device — repro: "
                  << Repro(cfg);
  }
  std::filesystem::remove_all(snapshot_dir);
}

TEST(DifferentialFuzzTest, SweepMatchesOracleAndServiceIsBitIdentical) {
  for (int i = 0; i < kNumConfigs; ++i) {
    const FuzzConfig cfg = DrawConfig(kBaseSeed + static_cast<uint64_t>(i));
    SCOPED_TRACE(Repro(cfg));
    RunConfig(cfg);
    if (::testing::Test::HasFailure()) break;  // first repro is enough
  }
}

/// Cold-built index vs Save → Load of the same index: every answer must
/// be bit-identical under the fuzzed options, not merely close, on the
/// device engine and on the host scan.
void RunWarmStartConfig(const FuzzConfig& cfg, const std::string& path) {
  const HostMatrix target = testing::ClusteredPoints(
      cfg.n, cfg.dims, cfg.clusters, SplitMix64(cfg.seed), 0.08f);
  const HostMatrix queries = testing::ClusteredPoints(
      cfg.query_n, cfg.dims, cfg.clusters, SplitMix64(cfg.seed + 1), 0.08f);

  SweetKnn::Config config;
  config.options = cfg.options;
  SweetKnnIndex cold(target, config);
  const Status saved = cold.Save(path, "warm-start-fuzz");
  if (!saved.ok()) {
    ADD_FAILURE() << "Save failed: " << saved.ToString()
                  << " — repro: " << Repro(cfg);
    return;
  }
  Result<std::unique_ptr<SweetKnnIndex>> warm =
      SweetKnnIndex::Load(path, config);
  if (!warm.ok()) {
    ADD_FAILURE() << "Load failed: " << warm.status().ToString()
                  << " — repro: " << Repro(cfg);
    return;
  }

  bool device_answered = false;
  for (const core::QueryRoute route : kRoutes) {
    cold.set_route(route);
    warm.value()->set_route(route);
    const KnnResult want = cold.Query(queries, cfg.k);
    core::KnnRunStats stats;
    const KnnResult got = warm.value()->Query(queries, cfg.k, &stats);
    device_answered |= stats.sim_time_s > 0.0;
    ASSERT_EQ(want.num_queries(), got.num_queries());
    for (size_t q = 0; q < want.num_queries(); ++q) {
      if (std::memcmp(want.row(q), got.row(q),
                      static_cast<size_t>(cfg.k) * sizeof(Neighbor)) != 0) {
        ADD_FAILURE() << "warm-loaded index (" << RouteName(route)
                      << " route) diverged at query " << q
                      << " — repro: " << Repro(cfg);
        return;
      }
    }
  }
  EXPECT_TRUE(device_answered)
      << "the restored index never answered on the device — repro: "
      << Repro(cfg);
}

TEST(DifferentialFuzzTest, WarmStartedIndexIsBitIdenticalAcrossConfigs) {
  const std::string path = ::testing::TempDir() + "/fuzz_warm.sksnap";
  constexpr int kWarmConfigs = 40;
  for (int i = 0; i < kWarmConfigs; ++i) {
    const FuzzConfig cfg = DrawConfig(kBaseSeed + 1000 +
                                      static_cast<uint64_t>(i));
    SCOPED_TRACE(Repro(cfg));
    RunWarmStartConfig(cfg, path);
    if (::testing::Test::HasFailure()) break;
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Approximate requests (docs/approx.md): every seeded config sends the
// same queries as exact and as approx requests to an index and to a
// sharded service, and demands the approx answers' bytes equal the exact
// ones, which match the BruteForceCpu oracle. Half the configs draw
// micro-clusters (a few dozen rows each, the kdd stand-in's shape, where
// a kNN-graph search missed whole clusters).
// ---------------------------------------------------------------------------

struct ApproxFuzzConfig {
  uint64_t seed = 0;
  size_t n = 0;
  size_t query_n = 0;
  size_t dims = 0;
  int k = 0;
  int clusters = 1;
  int service_shards = 2;
  double recall_target = 0.9;
  core::Metric metric = core::Metric::kEuclidean;
};

std::string ApproxRepro(const ApproxFuzzConfig& cfg) {
  std::ostringstream out;
  out << "approx seed=" << cfg.seed << " n=" << cfg.n
      << " m=" << cfg.query_n << " d=" << cfg.dims << " k=" << cfg.k
      << " clusters=" << cfg.clusters << " shards=" << cfg.service_shards
      << " recall_target=" << cfg.recall_target << " metric="
      << (cfg.metric == core::Metric::kEuclidean ? "euclidean"
                                                 : "manhattan");
  return out.str();
}

ApproxFuzzConfig DrawApproxConfig(uint64_t seed) {
  Rng rng(seed);
  ApproxFuzzConfig cfg;
  cfg.seed = seed;
  cfg.n = 500 + rng.NextBounded(1000);
  cfg.query_n = 48 + rng.NextBounded(33);
  cfg.dims = 2 + rng.NextBounded(9);
  cfg.k = 4 + static_cast<int>(rng.NextBounded(13));
  cfg.clusters = rng.NextBounded(2) == 0
                     ? 4 + static_cast<int>(rng.NextBounded(7))
                     : static_cast<int>(cfg.n / (8 + rng.NextBounded(40)));
  cfg.service_shards = 2 + static_cast<int>(rng.NextBounded(2));
  switch (rng.NextBounded(3)) {
    case 0: cfg.recall_target = 0.9; break;
    case 1: cfg.recall_target = 0.95; break;
    case 2: cfg.recall_target = 0.99; break;
  }
  cfg.metric = rng.NextBounded(2) == 0 ? core::Metric::kEuclidean
                                       : core::Metric::kManhattan;
  return cfg;
}

/// The first query row whose `k` entries differ in a byte, or -1.
int FirstDifferentRow(const KnnResult& want, const KnnResult& got, int k) {
  for (size_t q = 0; q < want.num_queries(); ++q) {
    if (std::memcmp(want.row(q), got.row(q),
                    static_cast<size_t>(k) * sizeof(Neighbor)) != 0) {
      return static_cast<int>(q);
    }
  }
  return -1;
}

void RunApproxConfig(const ApproxFuzzConfig& cfg) {
  const HostMatrix target = testing::ClusteredPoints(
      cfg.n, cfg.dims, cfg.clusters, SplitMix64(cfg.seed), 0.08f);
  const HostMatrix queries = testing::ClusteredPoints(
      cfg.query_n, cfg.dims, cfg.clusters, SplitMix64(cfg.seed + 1), 0.08f);
  const ann::SearchMode mode = ann::SearchMode::Approx(cfg.recall_target);

  SweetKnn::Config index_config;
  index_config.options.metric = cfg.metric;
  SweetKnnIndex index(target, index_config);
  const KnnResult exact = index.Query(queries, cfg.k);
  testing::ExpectResultsMatch(
      baseline::BruteForceCpu(queries, target, cfg.k, cfg.metric), exact);
  const int index_row =
      FirstDifferentRow(exact, index.Query(queries, cfg.k, mode), cfg.k);
  if (index_row >= 0) {
    ADD_FAILURE() << "index approx answer differs from exact at query "
                  << index_row << " — repro: " << ApproxRepro(cfg);
    return;
  }

  serve::ServiceConfig service_config;
  service_config.num_shards = cfg.service_shards;
  service_config.max_batch_size = 16;
  service_config.options.metric = cfg.metric;
  serve::KnnService service(target, service_config);
  const Result<KnnResult> service_approx =
      service.JoinBatch(queries, cfg.k, mode);
  ASSERT_TRUE(service_approx.ok()) << service_approx.status().ToString();
  const int service_row =
      FirstDifferentRow(exact, service_approx.value(), cfg.k);
  if (service_row >= 0) {
    ADD_FAILURE() << "service approx answer differs from exact at query "
                  << service_row << " — repro: " << ApproxRepro(cfg);
  }
  service.Shutdown();
}

TEST(DifferentialFuzzTest, ApproxSweepAnswersExactBytesOnEveryConfig) {
  constexpr int kApproxConfigs = 25;
  for (int i = 0; i < kApproxConfigs; ++i) {
    const ApproxFuzzConfig cfg =
        DrawApproxConfig(kBaseSeed + 2000 + static_cast<uint64_t>(i));
    SCOPED_TRACE(ApproxRepro(cfg));
    RunApproxConfig(cfg);
    if (::testing::Test::HasFailure()) break;
  }
}

// ---------------------------------------------------------------------------
// Range modalities (docs/modalities.md): RadiusSearch, SelfJoin, and
// KnnGraph vs their brute-force oracles, ≥200 seeded configs per
// modality. Every config runs the modality on a fuzzed route at a
// fuzzed SIMD dispatch tier, then re-runs it on the OPPOSITE route at a
// DIFFERENT tier and demands the two answers be
// bit-identical. KnnGraph's kNN chunks switch routes between the legs;
// RadiusSearch and SelfJoin run the TI range scan on both (range
// groups take no route), so for them the second leg changes the tier
// only. The canonical accumulation order is what makes that hold, and
// these sweeps are its proof for the unbounded-cardinality result
// shape. Mutations (inserts + removes) run before the scan so the
// delta overlay and tombstone masking are on the fuzzed path too.
// ---------------------------------------------------------------------------

struct RangeFuzzConfig {
  uint64_t seed = 0;
  size_t n = 0;
  size_t query_n = 0;
  size_t dims = 0;
  int clusters = 1;
  int mutations = 0;
  float radius = 0.0f;
  int graph_k = 1;
  core::Metric metric = core::Metric::kEuclidean;
  core::QueryRoute route = core::QueryRoute::kHost;
  int simd_level = -1;  ///< simd::ForceLevelForTest arg; -1 = detected.
};

std::string RangeRepro(const char* kind, const RangeFuzzConfig& cfg) {
  std::ostringstream out;
  out << kind << " seed=" << cfg.seed << " n=" << cfg.n
      << " m=" << cfg.query_n << " d=" << cfg.dims
      << " clusters=" << cfg.clusters << " muts=" << cfg.mutations
      << " r=" << cfg.radius << " gk=" << cfg.graph_k << " metric="
      << (cfg.metric == core::Metric::kEuclidean ? "euclidean"
                                                 : "manhattan")
      << " route=" << RouteName(cfg.route) << " simd=" << cfg.simd_level;
  return out.str();
}

RangeFuzzConfig DrawRangeConfig(uint64_t seed) {
  Rng rng(seed);
  RangeFuzzConfig cfg;
  cfg.seed = seed;
  cfg.n = 16 + rng.NextBounded(180);
  cfg.query_n = 1 + rng.NextBounded(12);
  cfg.dims = 1 + rng.NextBounded(12);
  cfg.clusters = 1 + static_cast<int>(rng.NextBounded(5));
  cfg.mutations = static_cast<int>(rng.NextBounded(25));
  // Cluster centers land in the unit cube (spread 0.08), so this spans
  // empty rows, partial balls, and near-total matches.
  cfg.radius = 0.02f + rng.NextFloat() * 0.9f;
  cfg.graph_k = 1 + static_cast<int>(rng.NextBounded(12));
  cfg.metric = rng.NextBounded(2) == 0 ? core::Metric::kEuclidean
                                       : core::Metric::kManhattan;
  // Three-way draw, so every seed keeps naming the same config: case 0
  // was the retired device-sampling route, which ran on the host.
  switch (rng.NextBounded(3)) {
    case 1: cfg.route = core::QueryRoute::kDevice; break;
    default: cfg.route = core::QueryRoute::kHost; break;
  }
  const uint64_t level = rng.NextBounded(4);
  cfg.simd_level = level == 3 ? -1 : static_cast<int>(level);
  return cfg;
}

simd::Dist RangeDistKind(core::Metric metric) {
  return metric == core::Metric::kEuclidean ? simd::Dist::kEuclidean
                                            : simd::Dist::kManhattan;
}

/// Restores normal SIMD dispatch on scope exit, whatever the sweep
/// pinned it to.
struct SimdLevelGuard {
  ~SimdLevelGuard() { simd::ForceLevelForTest(-1); }
};

/// Builds the config's index (metric + route) and replays its
/// seeded mutation tape. Insert/remove draws come from a dedicated Rng
/// so every replay — primary route, alternate route — sees the identical
/// live set.
std::unique_ptr<SweetKnnIndex> BuildMutatedIndex(const RangeFuzzConfig& cfg,
                                                 core::QueryRoute route) {
  const HostMatrix target = testing::ClusteredPoints(
      cfg.n, cfg.dims, cfg.clusters, SplitMix64(cfg.seed), 0.08f);
  SweetKnn::Config config;
  config.options.metric = cfg.metric;
  config.route = route;
  auto index = std::make_unique<SweetKnnIndex>(target, config);
  Rng rng(SplitMix64(cfg.seed + 2));
  uint32_t next_id = static_cast<uint32_t>(cfg.n);
  std::vector<uint32_t> live;
  for (uint32_t i = 0; i < cfg.n; ++i) live.push_back(i);
  for (int op = 0; op < cfg.mutations; ++op) {
    if (rng.NextBounded(2) == 0) {
      std::vector<float> point(cfg.dims);
      for (float& v : point) v = rng.NextFloat();
      const uint32_t id = index->Insert(point);
      EXPECT_EQ(id, next_id);  // replays depend on deterministic ids
      live.push_back(next_id++);
    } else if (!live.empty()) {
      const size_t victim = rng.NextBounded(live.size());
      EXPECT_TRUE(index->Remove(live[victim]));
      live.erase(live.begin() + static_cast<long>(victim));
    }
  }
  return index;
}

/// Closed-ball oracle row over the live (id, point) set, canonical
/// distance order, sorted under NeighborLess.
std::vector<Neighbor> OracleRangeRow(const float* query,
                                     const std::vector<uint32_t>& ids,
                                     const HostMatrix& points, float radius,
                                     core::Metric metric) {
  std::vector<Neighbor> out;
  if (points.rows() == 0) return out;
  std::vector<float> dists(points.rows());
  simd::QueryBlockDistances(query, points.data(), points.rows(),
                            points.cols(), RangeDistKind(metric),
                            dists.data());
  for (size_t i = 0; i < points.rows(); ++i) {
    if (dists[i] <= radius) out.push_back(Neighbor{ids[i], dists[i]});
  }
  std::sort(out.begin(), out.end(), NeighborLess);
  return out;
}

/// The alternate leg of each config: the opposite route at a different
/// SIMD tier (ForceLevelForTest clamps unavailable tiers to scalar,
/// which still exercises the dispatch seam).
core::QueryRoute OppositeRoute(core::QueryRoute route) {
  return route == core::QueryRoute::kHost ? core::QueryRoute::kDevice
                                          : core::QueryRoute::kHost;
}

int AlternateSimdLevel(int level) { return level == 0 ? 2 : 0; }

void RunRadiusConfig(const RangeFuzzConfig& cfg) {
  SimdLevelGuard guard;
  simd::ForceLevelForTest(cfg.simd_level);
  const std::unique_ptr<SweetKnnIndex> index =
      BuildMutatedIndex(cfg, cfg.route);
  const HostMatrix queries = testing::ClusteredPoints(
      cfg.query_n, cfg.dims, cfg.clusters, SplitMix64(cfg.seed + 1), 0.08f);
  std::vector<uint32_t> ids;
  HostMatrix live;
  index->ExportLive(&ids, &live);

  const RangeResult got = index->RadiusSearch(queries, cfg.radius);
  for (size_t q = 0; q < queries.rows(); ++q) {
    const std::vector<Neighbor> want = OracleRangeRow(
        queries.row(q), ids, live, cfg.radius, cfg.metric);
    if (got.count(q) != want.size()) {
      ADD_FAILURE() << "query " << q << " cardinality: want " << want.size()
                    << " got " << got.count(q) << " — repro: "
                    << RangeRepro("radius", cfg);
      return;
    }
    const Neighbor* row = got.begin(q);
    for (size_t i = 0; i < want.size(); ++i) {
      if (row[i].index != want[i].index ||
          row[i].distance != want[i].distance) {
        ADD_FAILURE() << "query " << q << " slot " << i << ": want ("
                      << want[i].index << ", " << want[i].distance
                      << ") got (" << row[i].index << ", "
                      << row[i].distance << ") — repro: "
                      << RangeRepro("radius", cfg);
        return;
      }
    }
  }

  // Opposite route, different tier: bit-identical or bust.
  simd::ForceLevelForTest(AlternateSimdLevel(cfg.simd_level));
  const std::unique_ptr<SweetKnnIndex> alternate =
      BuildMutatedIndex(cfg, OppositeRoute(cfg.route));
  const RangeResult other = alternate->RadiusSearch(queries, cfg.radius);
  if (!BitIdentical(got, other)) {
    ADD_FAILURE() << "routes diverged — repro: " << RangeRepro("radius", cfg);
  }
}

TEST(DifferentialFuzzTest, RadiusSearchSweepMatchesOracle) {
  constexpr int kRangeConfigs = 200;
  for (int i = 0; i < kRangeConfigs; ++i) {
    const RangeFuzzConfig cfg =
        DrawRangeConfig(kBaseSeed + 3000 + static_cast<uint64_t>(i));
    SCOPED_TRACE(RangeRepro("radius", cfg));
    RunRadiusConfig(cfg);
    if (::testing::Test::HasFailure()) break;
  }
}

bool SelfJoinPairLess(const SelfJoinPair& x, const SelfJoinPair& y) {
  if (x.a != y.a) return x.a < y.a;
  if (x.distance != y.distance) return x.distance < y.distance;
  return x.b < y.b;
}

void RunSelfJoinConfig(const RangeFuzzConfig& cfg) {
  SimdLevelGuard guard;
  simd::ForceLevelForTest(cfg.simd_level);
  const std::unique_ptr<SweetKnnIndex> index =
      BuildMutatedIndex(cfg, cfg.route);
  std::vector<uint32_t> ids;
  HostMatrix live;
  index->ExportLive(&ids, &live);

  // O(n^2) oracle: one emission per unordered pair, b > a, ordered by
  // ascending a then (distance, b) — the documented SelfJoin contract.
  std::vector<SelfJoinPair> want;
  for (size_t i = 0; i < live.rows(); ++i) {
    for (const Neighbor& nb : OracleRangeRow(live.row(i), ids, live,
                                             cfg.radius, cfg.metric)) {
      if (nb.index > ids[i]) {
        want.push_back(SelfJoinPair{ids[i], nb.index, nb.distance});
      }
    }
  }
  std::sort(want.begin(), want.end(), SelfJoinPairLess);

  const std::vector<SelfJoinPair> got = index->SelfJoin(cfg.radius);
  if (got.size() != want.size()) {
    ADD_FAILURE() << "pair count: want " << want.size() << " got "
                  << got.size() << " — repro: "
                  << RangeRepro("selfjoin", cfg);
    return;
  }
  for (size_t i = 0; i < want.size(); ++i) {
    if (!(got[i] == want[i])) {
      ADD_FAILURE() << "pair " << i << ": want (" << want[i].a << ","
                    << want[i].b << "," << want[i].distance << ") got ("
                    << got[i].a << "," << got[i].b << ","
                    << got[i].distance << ") — repro: "
                    << RangeRepro("selfjoin", cfg);
      return;
    }
  }

  simd::ForceLevelForTest(AlternateSimdLevel(cfg.simd_level));
  const std::unique_ptr<SweetKnnIndex> alternate =
      BuildMutatedIndex(cfg, OppositeRoute(cfg.route));
  const std::vector<SelfJoinPair> other = alternate->SelfJoin(cfg.radius);
  if (other.size() != got.size() ||
      !std::equal(got.begin(), got.end(), other.begin())) {
    ADD_FAILURE() << "routes diverged — repro: "
                  << RangeRepro("selfjoin", cfg);
  }
}

TEST(DifferentialFuzzTest, SelfJoinSweepMatchesOracle) {
  constexpr int kRangeConfigs = 200;
  for (int i = 0; i < kRangeConfigs; ++i) {
    const RangeFuzzConfig cfg =
        DrawRangeConfig(kBaseSeed + 4000 + static_cast<uint64_t>(i));
    SCOPED_TRACE(RangeRepro("selfjoin", cfg));
    RunSelfJoinConfig(cfg);
    if (::testing::Test::HasFailure()) break;
  }
}

void RunKnnGraphConfig(const RangeFuzzConfig& cfg) {
  SimdLevelGuard guard;
  simd::ForceLevelForTest(cfg.simd_level);
  const std::unique_ptr<SweetKnnIndex> index =
      BuildMutatedIndex(cfg, cfg.route);
  std::vector<uint32_t> ids;
  HostMatrix live;
  index->ExportLive(&ids, &live);

  const SweetKnnIndex::KnnGraphResult got = index->KnnGraph(cfg.graph_k);
  if (got.ids != ids) {
    ADD_FAILURE() << "graph id order != ascending live ids — repro: "
                  << RangeRepro("graph", cfg);
    return;
  }
  if (got.neighbors.num_queries() != ids.size()) {
    ADD_FAILURE() << "graph rows: want " << ids.size() << " got "
                  << got.neighbors.num_queries() << " — repro: "
                  << RangeRepro("graph", cfg);
    return;
  }
  const size_t k = static_cast<size_t>(cfg.graph_k);
  for (size_t q = 0; q < live.rows(); ++q) {
    // Brute top-k of everything-but-self (by position, so duplicate
    // points of the self row survive), padded with kInvalidNeighbor.
    std::vector<Neighbor> want;
    if (live.rows() > 1) {
      std::vector<float> dists(live.rows());
      simd::QueryBlockDistances(live.row(q), live.data(), live.rows(),
                                live.cols(), RangeDistKind(cfg.metric),
                                dists.data());
      for (size_t i = 0; i < live.rows(); ++i) {
        if (i == q) continue;
        want.push_back(Neighbor{ids[i], dists[i]});
      }
      std::sort(want.begin(), want.end(), NeighborLess);
      if (want.size() > k) want.resize(k);
    }
    want.resize(k, Neighbor{kInvalidNeighbor, 0.0f});
    const Neighbor* row = got.neighbors.row(q);
    for (size_t i = 0; i < k; ++i) {
      const bool pad = want[i].index == kInvalidNeighbor;
      if (row[i].index != want[i].index ||
          (!pad && row[i].distance != want[i].distance)) {
        ADD_FAILURE() << "graph row " << q << " slot " << i << ": want ("
                      << want[i].index << ", " << want[i].distance
                      << ") got (" << row[i].index << ", "
                      << row[i].distance << ") — repro: "
                      << RangeRepro("graph", cfg);
        return;
      }
    }
  }

  simd::ForceLevelForTest(AlternateSimdLevel(cfg.simd_level));
  const std::unique_ptr<SweetKnnIndex> alternate =
      BuildMutatedIndex(cfg, OppositeRoute(cfg.route));
  const SweetKnnIndex::KnnGraphResult other =
      alternate->KnnGraph(cfg.graph_k);
  if (other.ids != got.ids) {
    ADD_FAILURE() << "routes diverged on ids — repro: "
                  << RangeRepro("graph", cfg);
    return;
  }
  for (size_t q = 0; q < got.neighbors.num_queries(); ++q) {
    if (std::memcmp(got.neighbors.row(q), other.neighbors.row(q),
                    k * sizeof(Neighbor)) != 0) {
      ADD_FAILURE() << "routes diverged at graph row " << q << " — repro: "
                    << RangeRepro("graph", cfg);
      return;
    }
  }
}

TEST(DifferentialFuzzTest, KnnGraphSweepMatchesOracle) {
  constexpr int kRangeConfigs = 200;
  for (int i = 0; i < kRangeConfigs; ++i) {
    const RangeFuzzConfig cfg =
        DrawRangeConfig(kBaseSeed + 5000 + static_cast<uint64_t>(i));
    SCOPED_TRACE(RangeRepro("graph", cfg));
    RunKnnGraphConfig(cfg);
    if (::testing::Test::HasFailure()) break;
  }
}

}  // namespace
}  // namespace sweetknn
