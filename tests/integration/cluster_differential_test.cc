// Cluster-vs-local differential harness: a multi-process router/worker
// cluster (serve/router.h + `sweetknn_cli shard-worker` processes) must
// answer BIT-IDENTICALLY to a single-process KnnService over the same
// target and the same seeded query/mutation sequence — across worker
// counts, with and without replicas, and before/during/after a worker
// is SIGKILLed mid-stream (replica failover). Both backends host the
// identical ShardHost code (core/shard_host.h), so any divergence is a
// transport, placement, or failover bug. The cluster's workers run the
// device route and the local service the default host route, so every
// query is also a cross-route check, and replicas restored from
// snapshots answer on the device.
//
// On a mismatch each sequence prints a one-line repro extending the
// mutation-fuzz format (tests/integration/mutation_fuzz_test.cc) with
// the cluster dimensions:
//   tier=cluster seed=S n0=N d=D ops=O clusters=C shards=SH
//   workers=W replicas=R kill_at=K metric=M
//
// The suite needs the worker binary: it skips unless SWEETKNN_CLI points
// at the sweetknn_cli executable (ctest exports it; CI runs the fast
// tier as the cluster stage).
//
// Tiers:
//   ClusterFast.*: one/two-worker runs plus a kill+failover leg — the
//                  CI cluster stage.
//   ClusterSlow.*: the full sweep W in {1,2,4} x replicas in {0,1},
//                  several seeds each, plus RestoreReplication followed
//                  by a second kill.

#include <signal.h>

#include <cstdlib>
#include <cstring>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "serve/knn_service.h"
#include "serve/router.h"
#include "test_util.h"

namespace sweetknn {
namespace {

constexpr uint64_t kBaseSeed = 20260809;

const char* CliBinary() { return std::getenv("SWEETKNN_CLI"); }

struct ClusterFuzzConfig {
  uint64_t seed = 0;
  size_t n0 = 0;
  size_t dims = 0;
  int ops = 0;
  int clusters = 1;
  int shards = 1;
  int workers = 1;
  int replicas = 0;
  /// Op index at which a worker is SIGKILLed (-1 = never). Requires
  /// replicas >= 1 and workers >= 2, or shards would be lost.
  int kill_at = -1;
  core::Metric metric = core::Metric::kEuclidean;
};

std::string Repro(const ClusterFuzzConfig& cfg) {
  std::ostringstream out;
  out << "tier=cluster seed=" << cfg.seed << " n0=" << cfg.n0
      << " d=" << cfg.dims << " ops=" << cfg.ops
      << " clusters=" << cfg.clusters << " shards=" << cfg.shards
      << " workers=" << cfg.workers << " replicas=" << cfg.replicas
      << " kill_at=" << cfg.kill_at << " metric="
      << (cfg.metric == core::Metric::kEuclidean ? "euclidean"
                                                 : "manhattan");
  return out.str();
}

ClusterFuzzConfig DrawConfig(uint64_t seed, int workers, int replicas) {
  Rng rng(seed);
  ClusterFuzzConfig cfg;
  cfg.seed = seed;
  cfg.n0 = 16 + rng.NextBounded(48);
  cfg.dims = 1 + rng.NextBounded(6);
  cfg.ops = 14 + static_cast<int>(rng.NextBounded(14));
  cfg.clusters = 1 + static_cast<int>(rng.NextBounded(3));
  cfg.shards = 1 + static_cast<int>(rng.NextBounded(4));
  cfg.workers = workers;
  cfg.replicas = replicas;
  cfg.metric = rng.NextBounded(2) == 0 ? core::Metric::kEuclidean
                                       : core::Metric::kManhattan;
  if (replicas >= 1 && workers >= 2 && rng.NextBounded(2) == 0) {
    cfg.kill_at = static_cast<int>(rng.NextBounded(
        static_cast<uint64_t>(cfg.ops)));
  }
  return cfg;
}

bool ExpectBitIdentical(const KnnResult& want, const KnnResult& got,
                        const std::string& what) {
  if (want.num_queries() != got.num_queries() || want.k() != got.k()) {
    ADD_FAILURE() << what << ": shape mismatch (" << want.num_queries()
                  << "x" << want.k() << " vs " << got.num_queries() << "x"
                  << got.k() << ")";
    return false;
  }
  for (size_t q = 0; q < want.num_queries(); ++q) {
    for (int i = 0; i < want.k(); ++i) {
      const Neighbor& w = want.row(q)[i];
      const Neighbor& g = got.row(q)[i];
      if (w.index != g.index ||
          std::memcmp(&w.distance, &g.distance, sizeof(float)) != 0) {
        ADD_FAILURE() << what << ": query " << q << " rank " << i
                      << " local (" << w.index << ", " << w.distance
                      << ") cluster (" << g.index << ", " << g.distance
                      << ")";
        return false;
      }
    }
  }
  return true;
}

HostMatrix RandomQueries(Rng* rng, size_t rows, size_t dims) {
  HostMatrix queries(rows, dims);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t j = 0; j < dims; ++j) queries.at(r, j) = rng->NextFloat();
  }
  return queries;
}

/// One lockstep sequence: the same ops against the local service and the
/// cluster, every query byte-compared. Returns early on the first
/// failure (the SCOPED_TRACE repro line identifies the sequence).
void RunClusterSequence(const ClusterFuzzConfig& cfg) {
  const HostMatrix target = testing::ClusteredPoints(
      cfg.n0, cfg.dims, cfg.clusters, SplitMix64(cfg.seed), 0.08f);

  serve::ServiceConfig service_config;
  service_config.num_shards = cfg.shards;
  service_config.max_batch_size = 8;
  service_config.options.metric = cfg.metric;
  service_config.auto_compact = false;  // compactions run in lockstep
  serve::KnnService local(target, service_config);

  serve::RouterConfig router_config;
  router_config.service = service_config;
  router_config.service.planner.mode = core::PlannerMode::kForceDevice;
  router_config.num_workers = cfg.workers;
  router_config.replicas = cfg.replicas;
  router_config.worker_binary = CliBinary();
  Result<std::unique_ptr<serve::Router>> started =
      serve::Router::Start(target, router_config);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  serve::Router& cluster = *started.value();

  // The light model: live ids and the allocator position, to draw
  // realistic removes and k values. Correctness is local-vs-cluster.
  std::set<uint32_t> live;
  for (uint32_t i = 0; i < cfg.n0; ++i) live.insert(i);
  uint32_t next_id = static_cast<uint32_t>(cfg.n0);

  Rng rng(SplitMix64(cfg.seed + 51));
  for (int op = 0; op < cfg.ops; ++op) {
    if (op == cfg.kill_at) {
      // Kill the primary of shard 0 mid-stream; with replicas >= 1 every
      // shard it hosted fails over and answers must not change by a bit.
      const int victim = 0 % cluster.num_workers();
      ASSERT_EQ(::kill(cluster.worker_pid(victim), SIGKILL), 0);
    }
    const uint64_t dice = rng.NextBounded(100);
    if (dice < 22) {
      std::vector<float> point(cfg.dims);
      for (float& x : point) x = rng.NextFloat();
      const Result<uint32_t> local_id = local.Insert(point);
      const Result<uint32_t> cluster_id = cluster.Insert(point);
      ASSERT_TRUE(local_id.ok()) << local_id.status().ToString();
      ASSERT_TRUE(cluster_id.ok()) << cluster_id.status().ToString();
      if (local_id.value() != cluster_id.value() ||
          local_id.value() != next_id) {
        ADD_FAILURE() << "op " << op << ": id skew (local "
                      << local_id.value() << ", cluster "
                      << cluster_id.value() << ", expected " << next_id
                      << ")";
        break;
      }
      live.insert(next_id);
      ++next_id;
    } else if (dice < 42) {
      uint32_t id;
      if (!live.empty() && rng.NextBounded(4) != 0) {
        auto it = live.begin();
        std::advance(it, static_cast<long>(rng.NextBounded(live.size())));
        id = *it;
      } else {
        id = static_cast<uint32_t>(rng.NextBounded(next_id + 3));
      }
      const Result<bool> local_found = local.Remove(id);
      const Result<bool> cluster_found = cluster.Remove(id);
      ASSERT_TRUE(local_found.ok()) << local_found.status().ToString();
      ASSERT_TRUE(cluster_found.ok()) << cluster_found.status().ToString();
      if (local_found.value() != cluster_found.value()) {
        ADD_FAILURE() << "op " << op << ": Remove(" << id << ") local "
                      << local_found.value() << ", cluster "
                      << cluster_found.value();
        break;
      }
      live.erase(id);
    } else if (dice < 50) {
      const int shard = static_cast<int>(
          rng.NextBounded(static_cast<uint64_t>(cfg.shards)));
      const Status local_status = local.CompactShard(shard);
      const Status cluster_status = cluster.CompactShard(shard);
      ASSERT_TRUE(local_status.ok()) << local_status.ToString();
      ASSERT_TRUE(cluster_status.ok()) << cluster_status.ToString();
    } else {
      const size_t m = 1 + rng.NextBounded(3);
      const HostMatrix queries = RandomQueries(&rng, m, cfg.dims);
      const int k =
          1 + static_cast<int>(rng.NextBounded(
                  std::min<uint64_t>(live.empty() ? 4 : live.size(), 10)));
      const Result<KnnResult> want = local.JoinBatch(queries, k);
      const Result<KnnResult> got = cluster.JoinBatch(queries, k);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      if (!ExpectBitIdentical(want.value(), got.value(),
                              "op " + std::to_string(op) + " query")) {
        break;
      }
    }
  }

  // Epilogue: a wider batch, then full lockstep compaction, then the
  // same batch again — both still byte-identical.
  if (!::testing::Test::HasFailure()) {
    const HostMatrix queries = RandomQueries(&rng, 5, cfg.dims);
    const int k = live.empty()
                      ? 3
                      : 1 + static_cast<int>(rng.NextBounded(
                                std::min<uint64_t>(live.size(), 10)));
    Result<KnnResult> want = local.JoinBatch(queries, k);
    Result<KnnResult> got = cluster.JoinBatch(queries, k);
    ASSERT_TRUE(want.ok() && got.ok());
    ExpectBitIdentical(want.value(), got.value(), "epilogue query");

    ASSERT_TRUE(local.CompactAll().ok());
    ASSERT_TRUE(cluster.CompactAll().ok());
    want = local.JoinBatch(queries, k);
    got = cluster.JoinBatch(queries, k);
    ASSERT_TRUE(want.ok() && got.ok());
    ExpectBitIdentical(want.value(), got.value(),
                       "post-CompactAll epilogue query");
  }

  // Job modalities (docs/modalities.md): the same offline jobs against
  // both backends — cluster jobs run on the shared front-end's job
  // engine over the RangeQuery / Query / ExportLive fan-outs and must
  // still be byte-equal to local.
  if (!::testing::Test::HasFailure()) {
    const float radius = 0.05f + rng.NextFloat() * 0.5f;
    const HostMatrix range_queries = RandomQueries(&rng, 3, cfg.dims);
    const Result<RangeResult> local_range =
        local.RadiusSearch(range_queries, radius);
    const Result<RangeResult> cluster_range =
        cluster.RadiusSearch(range_queries, radius);
    ASSERT_TRUE(local_range.ok()) << local_range.status().ToString();
    ASSERT_TRUE(cluster_range.ok()) << cluster_range.status().ToString();
    EXPECT_TRUE(BitIdentical(local_range.value(), cluster_range.value()))
        << "RadiusSearch(r=" << radius << ") diverged local vs cluster";

    const Result<std::vector<SelfJoinPair>> local_join =
        local.SelfJoin(radius);
    const Result<std::vector<SelfJoinPair>> cluster_join =
        cluster.SelfJoin(radius);
    ASSERT_TRUE(local_join.ok()) << local_join.status().ToString();
    ASSERT_TRUE(cluster_join.ok()) << cluster_join.status().ToString();
    ASSERT_EQ(local_join.value().size(), cluster_join.value().size())
        << "SelfJoin(r=" << radius << ") pair counts diverged";
    for (size_t i = 0; i < local_join.value().size(); ++i) {
      const SelfJoinPair& w = local_join.value()[i];
      const SelfJoinPair& g = cluster_join.value()[i];
      ASSERT_TRUE(w == g) << "SelfJoin pair " << i << ": local (" << w.a
                          << "," << w.b << "," << w.distance
                          << ") cluster (" << g.a << "," << g.b << ","
                          << g.distance << ")";
    }

    if (!live.empty()) {
      const int graph_k = 1 + static_cast<int>(rng.NextBounded(
                                  std::min<uint64_t>(live.size(), 6)));
      const Result<serve::JobOutput> local_graph = local.KnnGraph(graph_k);
      const Result<serve::JobOutput> cluster_graph =
          cluster.KnnGraph(graph_k);
      ASSERT_TRUE(local_graph.ok()) << local_graph.status().ToString();
      ASSERT_TRUE(cluster_graph.ok()) << cluster_graph.status().ToString();
      ASSERT_EQ(local_graph.value().query_ids, cluster_graph.value().query_ids)
          << "KnnGraph(k=" << graph_k << ") id order diverged";
      ExpectBitIdentical(local_graph.value().graph,
                         cluster_graph.value().graph,
                         "KnnGraph(k=" + std::to_string(graph_k) + ")");
    }
  }

  EXPECT_EQ(local.target_rows(), cluster.target_rows());
  cluster.Shutdown();
  local.Shutdown();
}

void RunSweep(uint64_t seed_offset, int count, int workers, int replicas) {
  if (CliBinary() == nullptr) {
    GTEST_SKIP() << "SWEETKNN_CLI not set; this suite needs the CLI binary";
  }
  for (int i = 0; i < count; ++i) {
    const ClusterFuzzConfig cfg = DrawConfig(
        kBaseSeed + seed_offset + static_cast<uint64_t>(i), workers,
        replicas);
    SCOPED_TRACE(Repro(cfg));
    RunClusterSequence(cfg);
    if (::testing::Test::HasFailure()) break;  // first repro is enough
  }
}

// --- Fast tier: the CI cluster stage ---------------------------------------

TEST(ClusterFast, SingleWorkerBitIdentical) {
  RunSweep(/*seed_offset=*/0, /*count=*/2, /*workers=*/1, /*replicas=*/0);
}

TEST(ClusterFast, TwoWorkersBitIdentical) {
  RunSweep(/*seed_offset=*/100, /*count=*/2, /*workers=*/2, /*replicas=*/0);
}

TEST(ClusterFast, KillWithReplicaFailsOverBitIdentically) {
  if (CliBinary() == nullptr) {
    GTEST_SKIP() << "SWEETKNN_CLI not set; this suite needs the CLI binary";
  }
  // A deterministic kill mid-sequence rather than a drawn one: the
  // failover leg must run every time the fast tier does.
  ClusterFuzzConfig cfg = DrawConfig(kBaseSeed + 200, /*workers=*/2,
                                     /*replicas=*/1);
  cfg.kill_at = cfg.ops / 2;
  SCOPED_TRACE(Repro(cfg));
  RunClusterSequence(cfg);
}

// --- Slow tier: the full sweep ----------------------------------------------

TEST(ClusterSlow, OneWorkerSweep) { RunSweep(1000, 3, 1, 0); }
TEST(ClusterSlow, TwoWorkerSweep) { RunSweep(2000, 3, 2, 0); }
TEST(ClusterSlow, TwoWorkerReplicatedSweep) { RunSweep(3000, 3, 2, 1); }
TEST(ClusterSlow, FourWorkerSweep) { RunSweep(4000, 3, 4, 0); }
TEST(ClusterSlow, FourWorkerReplicatedSweep) { RunSweep(5000, 3, 4, 1); }

// RestoreReplication: after a first kill and catch-up, the cluster
// survives a SECOND worker death — and stays bit-identical throughout.
TEST(ClusterSlow, ReplicaCatchUpSurvivesSecondKill) {
  if (CliBinary() == nullptr) {
    GTEST_SKIP() << "SWEETKNN_CLI not set; this suite needs the CLI binary";
  }
  const size_t dims = 4;
  const HostMatrix target =
      testing::ClusteredPoints(64, dims, 3, SplitMix64(kBaseSeed + 7), 0.08f);

  serve::ServiceConfig service_config;
  service_config.num_shards = 4;
  service_config.max_batch_size = 8;
  service_config.auto_compact = false;
  serve::KnnService local(target, service_config);

  serve::RouterConfig router_config;
  router_config.service = service_config;
  router_config.service.planner.mode = core::PlannerMode::kForceDevice;
  router_config.num_workers = 4;
  router_config.replicas = 1;
  router_config.worker_binary = CliBinary();
  Result<std::unique_ptr<serve::Router>> started =
      serve::Router::Start(target, router_config);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  serve::Router& cluster = *started.value();

  Rng rng(SplitMix64(kBaseSeed + 71));
  auto check = [&](const char* what) {
    const HostMatrix queries = RandomQueries(&rng, 3, dims);
    const Result<KnnResult> want = local.JoinBatch(queries, 5);
    const Result<KnnResult> got = cluster.JoinBatch(queries, 5);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectBitIdentical(want.value(), got.value(), what);
  };

  // Mutate a little so catch-up snapshots carry a real overlay.
  for (int i = 0; i < 6; ++i) {
    std::vector<float> point(dims);
    for (float& x : point) x = rng.NextFloat();
    ASSERT_TRUE(local.Insert(point).ok());
    ASSERT_TRUE(cluster.Insert(point).ok());
  }
  ASSERT_TRUE(local.Remove(3).value());
  ASSERT_TRUE(cluster.Remove(3).value());
  check("before first kill");

  ASSERT_EQ(::kill(cluster.worker_pid(1), SIGKILL), 0);
  check("after first kill (failover)");
  EXPECT_FALSE(cluster.worker_alive(1));

  const Status restored = cluster.RestoreReplication();
  ASSERT_TRUE(restored.ok()) << restored.ToString();
  EXPECT_GE(cluster.stats().replicas_restored, 1u);
  check("after catch-up");

  // Mutations after catch-up must reach the restored replicas too...
  for (int i = 0; i < 4; ++i) {
    std::vector<float> point(dims);
    for (float& x : point) x = rng.NextFloat();
    ASSERT_TRUE(local.Insert(point).ok());
    ASSERT_TRUE(cluster.Insert(point).ok());
  }
  // ...because the second death makes them authoritative for every
  // shard the dead worker was primary of.
  ASSERT_EQ(::kill(cluster.worker_pid(2), SIGKILL), 0);
  check("after second kill");
  EXPECT_EQ(local.target_rows(), cluster.target_rows());

  cluster.Shutdown();
  local.Shutdown();
}

}  // namespace
}  // namespace sweetknn
