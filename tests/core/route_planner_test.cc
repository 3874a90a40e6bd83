#include "core/route_planner.h"

#include <cstdlib>
#include <cstring>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "common/matrix.h"
#include "common/rng.h"
#include "core/sweet_knn.h"
#include "dataset/paper_datasets.h"
#include "gtest/gtest.h"
#include "serve/knn_service.h"
#include "serve/router.h"
#include "test_util.h"

namespace sweetknn {
namespace {

using testing::ClusteredPoints;

// The planner's whole contract is that routing is invisible in the
// answers, so these comparisons are bit-for-bit, not tolerance-based.
void ExpectBitIdentical(const KnnResult& want, const KnnResult& got,
                        const char* what) {
  ASSERT_EQ(want.k(), got.k()) << what;
  ASSERT_EQ(want.num_queries(), got.num_queries()) << what;
  for (size_t q = 0; q < want.num_queries(); ++q) {
    const Neighbor* w = want.row(q);
    const Neighbor* g = got.row(q);
    for (int i = 0; i < want.k(); ++i) {
      EXPECT_EQ(w[i].index, g[i].index)
          << what << " query " << q << " rank " << i;
      EXPECT_EQ(std::memcmp(&w[i].distance, &g[i].distance, sizeof(float)),
                0)
          << what << " query " << q << " rank " << i;
    }
  }
}

TEST(RoutePlannerTest, ForcedModesAlwaysRouteAndCount) {
  core::PlannerConfig config;
  config.mode = core::PlannerMode::kForceDevice;
  core::RoutePlanner device_planner(config);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(device_planner.Choose(), core::QueryRoute::kDevice);
  }
  EXPECT_EQ(device_planner.device_routes(), 10u);
  EXPECT_EQ(device_planner.host_routes(), 0u);

  config.mode = core::PlannerMode::kForceHost;
  core::RoutePlanner host_planner(config);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(host_planner.Choose(), core::QueryRoute::kHost);
  }
  EXPECT_EQ(host_planner.device_routes(), 0u);
  EXPECT_EQ(host_planner.host_routes(), 10u);
}

TEST(RoutePlannerTest, DefaultRoutesToTheHostFromDecisionZero) {
  core::RoutePlanner planner;
  ASSERT_EQ(planner.mode(), core::PlannerMode::kForceHost);
  for (int i = 0; i < 17; ++i) {
    EXPECT_EQ(planner.Choose(), core::QueryRoute::kHost) << "decision " << i;
  }
  EXPECT_EQ(planner.device_routes(), 0u);
  EXPECT_EQ(planner.host_routes(), 17u);
}

TEST(RoutePlannerTest, EnvVariableOverridesConfiguredMode) {
  ::setenv("SWEETKNN_PLANNER", "host", 1);
  core::PlannerConfig config;
  config.mode = core::PlannerMode::kForceDevice;
  EXPECT_EQ(core::RoutePlanner(config).mode(),
            core::PlannerMode::kForceHost);
  ::setenv("SWEETKNN_PLANNER", "device", 1);
  EXPECT_EQ(core::RoutePlanner().mode(), core::PlannerMode::kForceDevice);
  // "auto" names the default, which is the host route.
  ::setenv("SWEETKNN_PLANNER", "auto", 1);
  EXPECT_EQ(core::RoutePlanner(config).mode(), core::PlannerMode::kForceHost);
  // Unknown values are ignored, not an error.
  ::setenv("SWEETKNN_PLANNER", "quantum", 1);
  EXPECT_EQ(core::RoutePlanner(config).mode(),
            core::PlannerMode::kForceDevice);
  ::unsetenv("SWEETKNN_PLANNER");
}

// TSan target (tools/check_tsan.sh): Choose and set_mode race freely;
// every decision must land in exactly one route counter.
TEST(RoutePlannerTest, ConcurrentChooseAndModeFlipsLoseNoDecisions) {
  core::RoutePlanner planner;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&planner, t] {
      std::mt19937 rng(static_cast<unsigned>(t));
      for (int i = 0; i < kPerThread; ++i) {
        switch (rng() % 8) {
          case 0:
            planner.set_mode(core::PlannerMode::kForceHost);
            break;
          case 1:
            planner.set_mode(core::PlannerMode::kForceDevice);
            break;
          default:
            break;
        }
        planner.Choose();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(planner.device_routes() + planner.host_routes(),
            static_cast<uint64_t>(kThreads) * kPerThread);
}

SweetKnn::Config IndexConfig(core::PlannerMode mode, core::Metric metric) {
  SweetKnn::Config config;
  config.planner.mode = mode;
  config.options.metric = metric;
  return config;
}

// The planner's correctness claim: the merged answers are bit-identical
// no matter which route served the base scan — including through
// mutations, where the host route feeds the same overlay merge.
TEST(RoutePlannerTest, IndexAnswersBitIdenticallyOnEveryRoute) {
  for (const core::Metric metric :
       {core::Metric::kEuclidean, core::Metric::kManhattan}) {
    const HostMatrix target = ClusteredPoints(300, 6, 4, 515);
    const HostMatrix queries = ClusteredPoints(24, 6, 3, 516);
    SweetKnnIndex device_index(
        target, IndexConfig(core::PlannerMode::kForceDevice, metric));
    SweetKnnIndex host_index(
        target, IndexConfig(core::PlannerMode::kForceHost, metric));

    const KnnResult want = device_index.Query(queries, 5);
    ExpectBitIdentical(want, host_index.Query(queries, 5), "pristine host");

    // Mutate both identically; the base scan now over-queries and merges
    // with the delta overlay on whichever route.
    for (SweetKnnIndex* index : {&device_index, &host_index}) {
      index->Insert({0.1f, 0.2f, 0.3f, 0.4f, 0.5f, 0.6f});
      index->Insert({-0.4f, 0.0f, 0.7f, -0.1f, 0.2f, 0.9f});
      index->Remove(7);
      index->Remove(42);
    }
    const KnnResult mutated = device_index.Query(queries, 5);
    ExpectBitIdentical(mutated, host_index.Query(queries, 5),
                       "mutated host");
  }
}

/// 513 one-row reads of base rows nudged off their exact coordinates,
/// then one 64-row batch, through `read` (seed 1 on every backend).
template <typename Read>
void ReadLikeLookup(const dataset::Dataset& kdd, Read&& read) {
  Rng rng(1);
  const auto perturbed = [&](size_t rows) {
    HostMatrix queries(rows, kdd.dims());
    for (size_t q = 0; q < rows; ++q) {
      const float* base = kdd.points.row(rng.NextBounded(kdd.n()));
      for (size_t j = 0; j < kdd.dims(); ++j) {
        queries.at(q, j) = base[j] + 1e-3f * (rng.NextFloat() - 0.5f);
      }
    }
    return queries;
  };
  for (int read_index = 0; read_index < 513; ++read_index) {
    read(perturbed(1));
  }
  read(perturbed(64));
}

// The default config never runs the simulated device, at any group size
// and on every backend. The base is one e2e `lookup` shard (the first
// half of the kdd stand-in): 513 one-row reads and a 64-row batch take
// 514 host routes on a default index, and a default 2-shard service
// and a default one-worker router report no device route and no
// simulated seconds. The router leg needs the worker binary; it runs
// only when SWEETKNN_CLI points at sweetknn_cli (ctest exports it).
TEST(RoutePlannerTest, DefaultConfigTakesNoDeviceRouteOnAnyBackend) {
  const dataset::Dataset kdd =
      dataset::MakePaperDataset(dataset::PaperDatasetByName("kdd"), 0.5);
  ASSERT_GE(kdd.n(), 12288u);
  ASSERT_EQ(kdd.dims(), 42u);
  SweetKnnIndex index(kdd.points);
  ReadLikeLookup(kdd, [&](const HostMatrix& queries) {
    index.Query(queries, 10);
  });
  EXPECT_EQ(index.planner().device_routes(), 0u);
  EXPECT_EQ(index.planner().host_routes(), 514u);

  const auto expect_no_device_time = [](const common::MetricsRegistry& m) {
    EXPECT_EQ(m.CounterValue("sweetknn_planner_device_routes_total"), 0.0);
    EXPECT_EQ(m.CounterValue("sweetknn_sim_device_seconds_total"), 0.0);
    EXPECT_GT(m.CounterValue("sweetknn_planner_host_routes_total"), 0.0);
  };
  serve::KnnService service(kdd.points);
  ReadLikeLookup(kdd, [&](const HostMatrix& queries) {
    ASSERT_TRUE(service.JoinBatch(queries, 10).ok());
  });
  expect_no_device_time(service.metrics());

  const char* cli = std::getenv("SWEETKNN_CLI");
  if (cli == nullptr) return;
  serve::RouterConfig config;
  config.num_workers = 1;
  config.worker_binary = cli;
  Result<std::unique_ptr<serve::Router>> started =
      serve::Router::Start(kdd.points, config);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  const std::unique_ptr<serve::Router> router = std::move(started).value();
  ReadLikeLookup(kdd, [&](const HostMatrix& queries) {
    ASSERT_TRUE(router->JoinBatch(queries, 10).ok());
  });
  expect_no_device_time(router->metrics());
  router->Shutdown();
}

TEST(RoutePlannerTest, ServiceAnswersBitIdenticallyOnEveryRoute) {
  const HostMatrix target = ClusteredPoints(260, 4, 3, 517);
  const HostMatrix queries = ClusteredPoints(16, 4, 2, 518);
  serve::ServiceConfig device_config;
  device_config.num_shards = 2;
  device_config.planner.mode = core::PlannerMode::kForceDevice;
  serve::ServiceConfig host_config = device_config;
  host_config.planner.mode = core::PlannerMode::kForceHost;

  serve::KnnService device_service(target, device_config);
  serve::KnnService host_service(target, host_config);
  const Result<KnnResult> want = device_service.JoinBatch(queries, 4);
  const Result<KnnResult> got = host_service.JoinBatch(queries, 4);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok());
  ExpectBitIdentical(want.value(), got.value(), "service host route");
  EXPECT_GT(host_service.planner().host_routes(), 0u);
  EXPECT_GT(device_service.planner().device_routes(), 0u);
}

// Range searches take no planner decision: ShardHost::RangeGroup always
// runs the TI range scan. In both modes they answer the same bytes and
// leave the route counters at zero, so the first kNN batch after them is
// the planner's first decision, taken on the mode's route.
TEST(RoutePlannerTest, RangeSearchesTakeNoPlannerDecision) {
  const HostMatrix target = ClusteredPoints(300, 5, 4, 519, 0.1f);
  const HostMatrix queries = ClusteredPoints(12, 5, 3, 520, 0.1f);
  constexpr float kRadius = 0.35f;
  SweetKnnIndex reference(
      target,
      IndexConfig(core::PlannerMode::kForceHost, core::Metric::kEuclidean));
  const RangeResult want = reference.RadiusSearch(queries, kRadius);
  const std::vector<SelfJoinPair> want_pairs = reference.SelfJoin(kRadius);
  ASSERT_GT(want.total_matches(), 0u);
  ASSERT_FALSE(want_pairs.empty());

  for (const core::PlannerMode mode :
       {core::PlannerMode::kForceDevice, core::PlannerMode::kForceHost}) {
    SCOPED_TRACE(static_cast<int>(mode));
    SweetKnnIndex index(target, IndexConfig(mode, core::Metric::kEuclidean));
    for (int round = 0; round < 3; ++round) {
      EXPECT_TRUE(BitIdentical(want, index.RadiusSearch(queries, kRadius)));
      EXPECT_TRUE(index.SelfJoin(kRadius) == want_pairs);
    }
    EXPECT_EQ(index.planner().device_routes(), 0u);
    EXPECT_EQ(index.planner().host_routes(), 0u);

    index.Query(queries, 5);
    const bool device = mode == core::PlannerMode::kForceDevice;
    EXPECT_EQ(index.planner().device_routes(), device ? 1u : 0u);
    EXPECT_EQ(index.planner().host_routes(), device ? 0u : 1u);
  }
}

// A service counts each range shard scan as one host route, in both
// planner modes, because that is where it ran; its planner takes no
// decision for it.
TEST(RoutePlannerTest, ServiceCountsEachRangeShardAsOneHostRoute) {
  const HostMatrix target = ClusteredPoints(260, 4, 3, 521, 0.1f);
  const HostMatrix queries = ClusteredPoints(9, 4, 2, 522, 0.1f);
  for (const core::PlannerMode mode :
       {core::PlannerMode::kForceDevice, core::PlannerMode::kForceHost}) {
    SCOPED_TRACE(static_cast<int>(mode));
    serve::ServiceConfig config;
    config.num_shards = 2;
    config.planner.mode = mode;
    serve::KnnService service(target, config);
    const Result<RangeResult> got = service.RadiusSearch(queries, 0.35f);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_GT(got.value().total_matches(), 0u);
    const common::MetricsRegistry& metrics = service.metrics();
    EXPECT_EQ(metrics.CounterValue("sweetknn_planner_host_routes_total"), 2.0);
    EXPECT_EQ(metrics.CounterValue("sweetknn_planner_device_routes_total"),
              0.0);
    EXPECT_EQ(service.planner().device_routes(), 0u);
    EXPECT_EQ(service.planner().host_routes(), 0u);
  }
}

// The same across the wire: a shard worker takes no planner decision for
// a range group, so with the device forced the router counts a radius
// search as two host routes, one per shard, and a kNN group as two
// device routes. The cluster leg needs the worker binary; it skips
// unless SWEETKNN_CLI points at sweetknn_cli (ctest exports it).
TEST(RoutePlannerTest, ClusterCountsEachRangeShardAsOneHostRoute) {
  const char* cli = std::getenv("SWEETKNN_CLI");
  if (cli == nullptr) {
    GTEST_SKIP() << "SWEETKNN_CLI not set; cluster leg needs the CLI";
  }
  const HostMatrix target = ClusteredPoints(260, 4, 3, 521, 0.1f);
  const HostMatrix queries = ClusteredPoints(9, 4, 2, 522, 0.1f);
  serve::RouterConfig config;
  config.service.num_shards = 2;
  config.service.planner.mode = core::PlannerMode::kForceDevice;
  config.num_workers = 1;
  config.worker_binary = cli;
  Result<std::unique_ptr<serve::Router>> started =
      serve::Router::Start(target, config);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  const std::unique_ptr<serve::Router> router = std::move(started).value();
  const common::MetricsRegistry& metrics = router->metrics();
  const auto device_routes = [&] {
    return metrics.CounterValue("sweetknn_planner_device_routes_total");
  };
  const auto host_routes = [&] {
    return metrics.CounterValue("sweetknn_planner_host_routes_total");
  };
  const double device_before = device_routes();
  const double host_before = host_routes();

  const Result<RangeResult> got = router->RadiusSearch(queries, 0.35f);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_GT(got.value().total_matches(), 0u);
  EXPECT_EQ(device_routes(), device_before);
  EXPECT_EQ(host_routes(), host_before + 2.0);

  ASSERT_TRUE(router->JoinBatch(queries, 4).ok());
  EXPECT_EQ(device_routes(), device_before + 2.0);
  EXPECT_EQ(host_routes(), host_before + 2.0);
  router->Shutdown();
}

}  // namespace
}  // namespace sweetknn
