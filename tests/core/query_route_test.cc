// The two kNN routes (core::QueryRoute): every backend answers the same
// bytes on either route, the default config never runs the simulated
// device, the live switch moves the next groups and every shard scan is
// counted under its route, and range searches take no route.

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>
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

// The route's whole contract is that it is invisible in the answers,
// so these comparisons are bit-for-bit, not tolerance-based.
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

// ExpectBitIdentical as a predicate, for client threads.
bool SameBytes(const KnnResult& a, const KnnResult& b) {
  if (a.k() != b.k() || a.num_queries() != b.num_queries()) return false;
  for (size_t q = 0; q < a.num_queries(); ++q) {
    for (int i = 0; i < a.k(); ++i) {
      const Neighbor& x = a.row(q)[i];
      const Neighbor& y = b.row(q)[i];
      if (x.index != y.index ||
          std::memcmp(&x.distance, &y.distance, sizeof(float)) != 0) {
        return false;
      }
    }
  }
  return true;
}

SweetKnn::Config IndexConfig(core::QueryRoute route, core::Metric metric) {
  SweetKnn::Config config;
  config.route = route;
  config.options.metric = metric;
  return config;
}

// The routes' correctness claim: the merged answers are bit-identical
// no matter which route served the base scan — including through
// mutations, where the host route feeds the same overlay merge.
TEST(QueryRouteTest, IndexAnswersBitIdenticallyOnEveryRoute) {
  for (const core::Metric metric :
       {core::Metric::kEuclidean, core::Metric::kManhattan}) {
    const HostMatrix target = ClusteredPoints(300, 6, 4, 515);
    const HostMatrix queries = ClusteredPoints(24, 6, 3, 516);
    SweetKnnIndex device_index(
        target, IndexConfig(core::QueryRoute::kDevice, metric));
    SweetKnnIndex host_index(target,
                             IndexConfig(core::QueryRoute::kHost, metric));

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
// half of the kdd stand-in): 513 one-row reads and a 64-row batch on a
// default index report no simulated-device stats, and a default 2-shard
// service and a default one-worker router count every shard scan as a
// host route and no simulated seconds. The router leg needs the worker
// binary; it runs only when SWEETKNN_CLI points at sweetknn_cli (ctest
// exports it).
TEST(QueryRouteTest, DefaultConfigTakesNoDeviceRouteOnAnyBackend) {
  EXPECT_EQ(SweetKnn::Config{}.route, core::QueryRoute::kHost);
  EXPECT_EQ(serve::ServiceConfig{}.route, core::QueryRoute::kHost);
  const dataset::Dataset kdd =
      dataset::MakePaperDataset(dataset::PaperDatasetByName("kdd"), 0.5);
  ASSERT_GE(kdd.n(), 12288u);
  ASSERT_EQ(kdd.dims(), 42u);
  SweetKnnIndex index(kdd.points);
  int device_runs = 0;
  ReadLikeLookup(kdd, [&](const HostMatrix& queries) {
    core::KnnRunStats stats;
    index.Query(queries, 10, &stats);
    if (stats.sim_time_s > 0.0) ++device_runs;
  });
  EXPECT_EQ(device_runs, 0);

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

TEST(QueryRouteTest, ServiceAnswersBitIdenticallyOnEveryRoute) {
  const HostMatrix target = ClusteredPoints(260, 4, 3, 517);
  const HostMatrix queries = ClusteredPoints(16, 4, 2, 518);
  serve::ServiceConfig device_config;
  device_config.num_shards = 2;
  device_config.route = core::QueryRoute::kDevice;
  serve::ServiceConfig host_config = device_config;
  host_config.route = core::QueryRoute::kHost;

  serve::KnnService device_service(target, device_config);
  serve::KnnService host_service(target, host_config);
  const Result<KnnResult> want = device_service.JoinBatch(queries, 4);
  const Result<KnnResult> got = host_service.JoinBatch(queries, 4);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok());
  ExpectBitIdentical(want.value(), got.value(), "service host route");
  // One group, two shards: each counted under its service's route.
  const auto routes = [](const serve::KnnService& service,
                         const char* series) {
    return service.metrics().CounterValue(series);
  };
  EXPECT_EQ(routes(host_service, "sweetknn_planner_host_routes_total"), 2.0);
  EXPECT_EQ(routes(host_service, "sweetknn_planner_device_routes_total"),
            0.0);
  EXPECT_EQ(routes(device_service, "sweetknn_planner_device_routes_total"),
            2.0);
  EXPECT_EQ(routes(device_service, "sweetknn_planner_host_routes_total"),
            0.0);
}

// set_route moves every later kNN group, and only those: each group's
// shards are counted under the route it ran on, device time accrues only
// on device groups, and the answers never change. The index's switch
// does the same for its batches.
TEST(QueryRouteTest, SetRouteMovesLaterGroupsAndCountsEachShard) {
  const HostMatrix target = ClusteredPoints(300, 5, 4, 523);
  const HostMatrix queries = ClusteredPoints(10, 5, 2, 524);
  serve::ServiceConfig config;
  config.num_shards = 3;
  serve::KnnService service(target, config);
  const common::MetricsRegistry& metrics = service.metrics();
  const auto device_routes = [&] {
    return metrics.CounterValue("sweetknn_planner_device_routes_total");
  };
  const auto host_routes = [&] {
    return metrics.CounterValue("sweetknn_planner_host_routes_total");
  };

  const Result<KnnResult> want = service.JoinBatch(queries, 4);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(host_routes(), 3.0);
  EXPECT_EQ(device_routes(), 0.0);
  EXPECT_EQ(service.stats().total_sim_time_s, 0.0);

  service.set_route(core::QueryRoute::kDevice);
  for (int group = 1; group <= 2; ++group) {
    const Result<KnnResult> got = service.JoinBatch(queries, 4);
    ASSERT_TRUE(got.ok());
    ExpectBitIdentical(want.value(), got.value(), "device group");
    EXPECT_EQ(device_routes(), 3.0 * group);
    EXPECT_EQ(host_routes(), 3.0);
  }
  const double device_time = service.stats().total_sim_time_s;
  EXPECT_GT(device_time, 0.0);

  service.set_route(core::QueryRoute::kHost);
  const Result<KnnResult> back = service.JoinBatch(queries, 4);
  ASSERT_TRUE(back.ok());
  ExpectBitIdentical(want.value(), back.value(), "host group");
  EXPECT_EQ(host_routes(), 6.0);
  EXPECT_EQ(device_routes(), 6.0);
  EXPECT_EQ(service.stats().total_sim_time_s, device_time);

  SweetKnnIndex index(target);
  const KnnResult index_want = index.Query(queries, 4);
  for (const core::QueryRoute route :
       {core::QueryRoute::kDevice, core::QueryRoute::kHost,
        core::QueryRoute::kDevice}) {
    SCOPED_TRACE(static_cast<int>(route));
    index.set_route(route);
    core::KnnRunStats stats;
    const KnnResult got = index.Query(queries, 4, &stats);
    ExpectBitIdentical(index_want, got, "index batch");
    EXPECT_EQ(stats.sim_time_s > 0.0, route == core::QueryRoute::kDevice);
  }
}

// TSan target (tools/check_tsan.sh): clients' groups and route flips
// race freely; the dispatcher reads the route once per group, so every
// shard scan lands in exactly one route counter.
TEST(QueryRouteTest, ConcurrentRouteFlipsLoseNoShardCounts) {
  const HostMatrix target = ClusteredPoints(240, 4, 3, 525);
  const HostMatrix queries = ClusteredPoints(6, 4, 2, 526);
  serve::ServiceConfig config;
  config.num_shards = 2;
  serve::KnnService service(target, config);
  const Result<KnnResult> want = service.JoinBatch(queries, 3);
  ASSERT_TRUE(want.ok());

  std::atomic<bool> done{false};
  std::thread flipper([&] {
    bool device = false;
    while (!done.load()) {
      device = !device;
      service.set_route(device ? core::QueryRoute::kDevice
                               : core::QueryRoute::kHost);
      std::this_thread::yield();
    }
  });
  constexpr int kClients = 4;
  constexpr int kPerClient = 25;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (int i = 0; i < kPerClient; ++i) {
        const Result<KnnResult> got = service.JoinBatch(queries, 3);
        if (!got.ok() || !SameBytes(want.value(), got.value())) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  done.store(true);
  flipper.join();

  EXPECT_EQ(mismatches.load(), 0);
  const common::MetricsRegistry& metrics = service.metrics();
  const serve::ServiceStats stats = service.stats();
  EXPECT_GE(stats.engine_groups, 1u);
  EXPECT_EQ(metrics.CounterValue("sweetknn_planner_device_routes_total") +
                metrics.CounterValue("sweetknn_planner_host_routes_total"),
            2.0 * static_cast<double>(stats.engine_groups));
}

// The route is configuration only: the retired SWEETKNN_PLANNER
// environment variable moves no index, service or router off the route
// its config names.
TEST(QueryRouteTest, PlannerEnvironmentVariableIsIgnored) {
  const HostMatrix target = ClusteredPoints(200, 4, 3, 527);
  const HostMatrix queries = ClusteredPoints(5, 4, 2, 528);
  const auto expect_routes = [](const common::MetricsRegistry& m,
                                double device, double host) {
    EXPECT_EQ(m.CounterValue("sweetknn_planner_device_routes_total"), device);
    EXPECT_EQ(m.CounterValue("sweetknn_planner_host_routes_total"), host);
  };
  for (const core::QueryRoute route :
       {core::QueryRoute::kHost, core::QueryRoute::kDevice}) {
    const bool device = route == core::QueryRoute::kDevice;
    SCOPED_TRACE(static_cast<int>(route));
    // Name the other route in the environment.
    ::setenv("SWEETKNN_PLANNER", device ? "host" : "device", 1);

    SweetKnnIndex index(target,
                        IndexConfig(route, core::Metric::kEuclidean));
    core::KnnRunStats run;
    index.Query(queries, 3, &run);
    EXPECT_EQ(run.sim_time_s > 0.0, device);

    serve::ServiceConfig config;
    config.num_shards = 2;
    config.route = route;
    serve::KnnService service(target, config);
    ASSERT_TRUE(service.JoinBatch(queries, 3).ok());
    expect_routes(service.metrics(), device ? 2.0 : 0.0, device ? 0.0 : 2.0);

    // The router's workers are child processes that inherit the
    // variable; it needs the worker binary, so it runs only when
    // SWEETKNN_CLI points at sweetknn_cli (ctest exports it).
    const char* cli = std::getenv("SWEETKNN_CLI");
    if (cli != nullptr) {
      serve::RouterConfig router_config;
      router_config.service = config;
      router_config.num_workers = 1;
      router_config.worker_binary = cli;
      Result<std::unique_ptr<serve::Router>> started =
          serve::Router::Start(target, router_config);
      ASSERT_TRUE(started.ok()) << started.status().ToString();
      const std::unique_ptr<serve::Router> router =
          std::move(started).value();
      ASSERT_TRUE(router->JoinBatch(queries, 3).ok());
      expect_routes(router->metrics(), device ? 2.0 : 0.0,
                    device ? 0.0 : 2.0);
      EXPECT_EQ(router->metrics().CounterValue(
                    "sweetknn_sim_device_seconds_total") > 0.0,
                device);
      router->Shutdown();
    }
  }
  ::unsetenv("SWEETKNN_PLANNER");
}

// Range searches take no route: ShardHost::RangeGroup always runs the
// TI range scan on the host. On either route they answer the same bytes
// and leave the simulated device unprepared, so the first kNN batch
// after them prepares it on the device route and only there.
TEST(QueryRouteTest, RangeSearchesTakeNoRoute) {
  const HostMatrix target = ClusteredPoints(300, 5, 4, 519, 0.1f);
  const HostMatrix queries = ClusteredPoints(12, 5, 3, 520, 0.1f);
  constexpr float kRadius = 0.35f;
  SweetKnnIndex reference(
      target, IndexConfig(core::QueryRoute::kHost, core::Metric::kEuclidean));
  const RangeResult want = reference.RadiusSearch(queries, kRadius);
  const std::vector<SelfJoinPair> want_pairs = reference.SelfJoin(kRadius);
  ASSERT_GT(want.total_matches(), 0u);
  ASSERT_FALSE(want_pairs.empty());

  for (const core::QueryRoute route :
       {core::QueryRoute::kDevice, core::QueryRoute::kHost}) {
    SCOPED_TRACE(static_cast<int>(route));
    SweetKnnIndex index(target, IndexConfig(route, core::Metric::kEuclidean));
    for (int round = 0; round < 3; ++round) {
      EXPECT_TRUE(BitIdentical(want, index.RadiusSearch(queries, kRadius)));
      EXPECT_TRUE(index.SelfJoin(kRadius) == want_pairs);
    }
    EXPECT_EQ(index.engine().target_clustering().num_clusters, 0);

    core::KnnRunStats stats;
    index.Query(queries, 5, &stats);
    const bool device = route == core::QueryRoute::kDevice;
    EXPECT_EQ(index.engine().target_clustering().num_clusters > 0, device);
    EXPECT_EQ(stats.sim_time_s > 0.0, device);
  }
}

// A service counts each range shard scan as one host route, on either
// configured route, because that is where it ran.
TEST(QueryRouteTest, ServiceCountsEachRangeShardAsOneHostRoute) {
  const HostMatrix target = ClusteredPoints(260, 4, 3, 521, 0.1f);
  const HostMatrix queries = ClusteredPoints(9, 4, 2, 522, 0.1f);
  for (const core::QueryRoute route :
       {core::QueryRoute::kDevice, core::QueryRoute::kHost}) {
    SCOPED_TRACE(static_cast<int>(route));
    serve::ServiceConfig config;
    config.num_shards = 2;
    config.route = route;
    serve::KnnService service(target, config);
    const Result<RangeResult> got = service.RadiusSearch(queries, 0.35f);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_GT(got.value().total_matches(), 0u);
    const common::MetricsRegistry& metrics = service.metrics();
    EXPECT_EQ(metrics.CounterValue("sweetknn_planner_host_routes_total"), 2.0);
    EXPECT_EQ(metrics.CounterValue("sweetknn_planner_device_routes_total"),
              0.0);
  }
}

// The same across the wire: a range group carries no route, so with the
// device route set the router counts a radius search as two host routes,
// one per shard, and a kNN group as two device routes. The cluster leg
// needs the worker binary; it skips unless SWEETKNN_CLI points at
// sweetknn_cli (ctest exports it).
TEST(QueryRouteTest, ClusterCountsEachRangeShardAsOneHostRoute) {
  const char* cli = std::getenv("SWEETKNN_CLI");
  if (cli == nullptr) {
    GTEST_SKIP() << "SWEETKNN_CLI not set; cluster leg needs the CLI";
  }
  const HostMatrix target = ClusteredPoints(260, 4, 3, 521, 0.1f);
  const HostMatrix queries = ClusteredPoints(9, 4, 2, 522, 0.1f);
  serve::RouterConfig config;
  config.service.num_shards = 2;
  config.service.route = core::QueryRoute::kDevice;
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
