// The cluster router serves through the same FrontEnd as the in-process
// KnnService, so it inherits admission, deadlines, shedding, the
// offline-job engine, and the request/stage/job metric names. These
// tests pin each of those on the cluster path, plus, on both transports,
// approximate requests riding the exact groups and the failover that
// range groups and jobs share with kNN groups.
//
// The cluster legs need the worker binary; they skip unless SWEETKNN_CLI
// points at the sweetknn_cli executable (ctest exports it). Runs under
// TSan via tools/check_tsan.sh.

#include <signal.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "serve/knn_service.h"
#include "serve/router.h"
#include "test_util.h"

namespace sweetknn::serve {
namespace {

using std::chrono::milliseconds;
using testing::AwaitAdmitted;
using testing::DispatcherGate;

/// The service knobs every cluster here and its local twin share.
ServiceConfig TwoShards(ServiceConfig config) {
  config.num_shards = 2;
  config.max_batch_size = 8;
  config.auto_compact = false;
  return config;
}

/// A two-shard cluster of `workers` workers over `target`, or nullptr
/// when the worker binary is not available.
std::unique_ptr<Router> StartCluster(const HostMatrix& target,
                                     RouterConfig config, int workers = 1) {
  const char* cli = std::getenv("SWEETKNN_CLI");
  if (cli == nullptr) return nullptr;
  config.service = TwoShards(config.service);
  config.num_workers = workers;
  config.worker_binary = cli;
  Result<std::unique_ptr<Router>> started = Router::Start(target, config);
  EXPECT_TRUE(started.ok()) << started.status().ToString();
  return started.ok() ? std::move(started).value() : nullptr;
}

#define START_CLUSTER_OR_SKIP(var, target, config)                       \
  if (std::getenv("SWEETKNN_CLI") == nullptr) {                          \
    GTEST_SKIP() << "SWEETKNN_CLI not set; cluster leg needs the CLI";   \
  }                                                                      \
  std::unique_ptr<Router> var = StartCluster(target, config);            \
  ASSERT_NE(var, nullptr)

TEST(RouterFrontEndTest, RequestExpiredInTheQueueNeverReachesAWorker) {
  const HostMatrix target = testing::ClusteredPoints(64, 3, 2, 1201, 0.08f);
  START_CLUSTER_OR_SKIP(router, target, RouterConfig{});
  DispatcherGate gate(router.get());

  gate.Block();
  auto sentinel = std::async(std::launch::async, [&] {
    return router->Search(std::vector<float>(3, 0.0f), 2);
  });
  ASSERT_TRUE(gate.AwaitEntered(1));
  const double rpcs_before =
      router->metrics().CounterValue("sweetknn_router_worker0_rpcs_total");

  CallOptions hurried;
  hurried.timeout = std::chrono::microseconds(2000);
  auto doomed = std::async(std::launch::async, [&] {
    return router->Search(std::vector<float>(3, 0.1f), 2,
                          ann::SearchMode::Exact(), hurried);
  });
  AwaitAdmitted(*router, 2);
  std::this_thread::sleep_for(milliseconds(50));
  gate.Release();

  EXPECT_TRUE(sentinel.get().ok());
  EXPECT_EQ(doomed.get().status().code(), StatusCode::kDeadlineExceeded);
  const ClusterStats stats = router->stats();
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  EXPECT_EQ(stats.engine_groups, 1u);
  // One Query RPC — the sentinel's group; the expired request never
  // left the router.
  EXPECT_EQ(
      router->metrics().CounterValue("sweetknn_router_worker0_rpcs_total"),
      rpcs_before + 1.0);
  router->Shutdown();
}

TEST(RouterFrontEndTest, MaxQueueDepthShedsWithUnavailable) {
  const HostMatrix target = testing::ClusteredPoints(64, 3, 2, 1202, 0.08f);
  RouterConfig config;
  config.service.max_queue_depth = 1;
  START_CLUSTER_OR_SKIP(router, target, config);
  DispatcherGate gate(router.get());

  gate.Block();
  auto sentinel = std::async(std::launch::async, [&] {
    return router->Search(std::vector<float>(3, 0.0f), 2);
  });
  ASSERT_TRUE(gate.AwaitEntered(1));
  auto admitted = std::async(std::launch::async, [&] {
    return router->Search(std::vector<float>(3, 0.2f), 2);
  });
  AwaitAdmitted(*router, 2);

  // The queue is at its bound: the next call sheds without blocking.
  const Result<std::vector<Neighbor>> shed =
      router->Search(std::vector<float>(3, 0.9f), 2);
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable)
      << shed.status().ToString();
  gate.Release();

  EXPECT_TRUE(sentinel.get().ok());
  EXPECT_TRUE(admitted.get().ok());
  EXPECT_EQ(router->stats().shed_requests, 1u);
  EXPECT_EQ(router->metrics().CounterValue("sweetknn_shed_requests_total"),
            1.0);
  router->Shutdown();
}

TEST(RouterFrontEndTest, ExportsTheInProcessSeriesWithWorkerSimTime) {
  const HostMatrix target = testing::ClusteredPoints(96, 4, 3, 1203, 0.08f);
  RouterConfig config;
  config.service.route = core::QueryRoute::kDevice;
  START_CLUSTER_OR_SKIP(router, target, config);

  ASSERT_TRUE(router->JoinBatch(testing::UniformPoints(4, 4, 7), 3).ok());
  ASSERT_TRUE(router->Search(std::vector<float>(4, 0.3f), 3).ok());

  const common::MetricsRegistry& metrics = router->metrics();
  EXPECT_GT(metrics.CounterValue("sweetknn_sim_device_seconds_total"), 0.0);
  EXPECT_GT(metrics.CounterValue("sweetknn_planner_device_routes_total"),
            0.0);
  EXPECT_EQ(metrics.CounterValue("sweetknn_requests_total"), 2.0);
  EXPECT_EQ(metrics.CounterValue("sweetknn_queries_total"), 5.0);
  for (const char* histogram :
       {"sweetknn_queue_wait_seconds", "sweetknn_batch_assembly_seconds",
        "sweetknn_shard_fanout_seconds", "sweetknn_merge_seconds",
        "sweetknn_request_latency_seconds"}) {
    EXPECT_GT(metrics.SnapshotHistogram(histogram).count, 0u) << histogram;
  }
  EXPECT_GT(router->stats().total_sim_time_s, 0.0);

  // Cluster jobs run on the front-end's job engine and count under the
  // in-process job series.
  ASSERT_TRUE(router->SelfJoin(0.2f).ok());
  const ClusterStats stats = router->stats();
  EXPECT_EQ(stats.jobs_submitted, 1u);
  EXPECT_EQ(stats.jobs_completed, 1u);
  EXPECT_EQ(stats.jobs_cancelled + stats.jobs_failed, 0u);
  EXPECT_EQ(metrics.SnapshotHistogram("sweetknn_job_seconds").count, 1u);

  const std::string json = router->ExportMetricsJson();
  EXPECT_NE(json.find("\"sweetknn_tenant_requests_total\""),
            std::string::npos);
  EXPECT_NE(json.find("\"sweetknn_active_jobs\""), std::string::npos);
  EXPECT_EQ(json.find("sweetknn_router_requests_total"), std::string::npos);
  EXPECT_EQ(json.find("sweetknn_router_queue_wait_seconds"),
            std::string::npos);
  EXPECT_EQ(json.find("sweetknn_router_jobs_total"), std::string::npos);
  router->Shutdown();
}

TEST(RouterFrontEndTest, RadiusSearchMatchesLocalServiceByteForByte) {
  const HostMatrix target = testing::ClusteredPoints(120, 4, 3, 1204, 0.1f);
  const HostMatrix queries = testing::ClusteredPoints(9, 4, 2, 1205, 0.1f);
  constexpr float kRadius = 0.35f;
  RouterConfig config;
  START_CLUSTER_OR_SKIP(router, target, config);
  KnnService local(target, TwoShards(config.service));

  // The same mutations on both, so the answers cover the overlay too.
  for (int step = 0; step < 3; ++step) {
    const std::vector<float> point(4, 0.05f * static_cast<float>(step));
    ASSERT_EQ(local.Insert(point).value(), router->Insert(point).value());
  }
  ASSERT_TRUE(local.Remove(5).value());
  ASSERT_TRUE(router->Remove(5).value());

  auto routes = [](const common::MetricsRegistry& metrics) {
    return metrics.CounterValue("sweetknn_planner_device_routes_total") +
           metrics.CounterValue("sweetknn_planner_host_routes_total");
  };
  const double local_routes = routes(local.metrics());
  const double cluster_routes = routes(router->metrics());
  const Result<RangeResult> want = local.RadiusSearch(queries, kRadius);
  const Result<RangeResult> got = router->RadiusSearch(queries, kRadius);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_GT(want.value().total_matches(), 0u);
  EXPECT_TRUE(BitIdentical(want.value(), got.value()));

  // It went through the front-end: one range group, counted like the
  // in-process one, with one observed route per shard on both backends.
  const ClusterStats stats = router->stats();
  EXPECT_EQ(stats.range_groups, 1u);
  EXPECT_EQ(stats.range_queries, queries.rows());
  EXPECT_EQ(stats.range_matches, want.value().total_matches());
  EXPECT_EQ(routes(router->metrics()), cluster_routes + 2.0);
  EXPECT_EQ(routes(local.metrics()), local_routes + 2.0);
  router->Shutdown();
}

bool SameBytes(const KnnResult& a, const KnnResult& b) {
  return a.num_queries() == b.num_queries() && a.k() == b.k() &&
         std::memcmp(a.row(0), b.row(0),
                     a.num_queries() * static_cast<size_t>(a.k()) *
                         sizeof(Neighbor)) == 0;
}

// Range groups and a job's live-set export ride the same fan-out as kNN
// groups: a worker that died before any request noticed fails over to
// its replica, and the answer is still the in-process one, bit for bit.
// Each modality runs on a fresh cluster, so its own fan-out is the one
// that meets the dead worker.
TEST(RouterFrontEndTest, RangeGroupsAndJobsFailOverLikeKnnGroups) {
  if (std::getenv("SWEETKNN_CLI") == nullptr) {
    GTEST_SKIP() << "SWEETKNN_CLI not set; cluster leg needs the CLI";
  }
  const HostMatrix target = testing::ClusteredPoints(90, 3, 3, 1209, 0.1f);
  const HostMatrix queries = testing::ClusteredPoints(7, 3, 2, 1210, 0.1f);
  constexpr float kRadius = 0.3f;
  constexpr int kGraphK = 4;
  RouterConfig config;
  config.replicas = 1;
  KnnService local(target, TwoShards(config.service));
  const RangeResult want_range = local.RadiusSearch(queries, kRadius).value();
  const std::vector<SelfJoinPair> want_pairs = local.SelfJoin(kRadius).value();
  const JobOutput want_graph = local.KnnGraph(kGraphK).value();
  ASSERT_GT(want_range.total_matches(), 0u);
  ASSERT_FALSE(want_pairs.empty());

  for (const char* modality : {"RadiusSearch", "SelfJoin", "KnnGraph"}) {
    SCOPED_TRACE(modality);
    std::unique_ptr<Router> router = StartCluster(target, config, 2);
    ASSERT_NE(router, nullptr);
    ASSERT_EQ(::kill(router->worker_pid(0), SIGKILL), 0);
    if (std::strcmp(modality, "RadiusSearch") == 0) {
      const Result<RangeResult> got = router->RadiusSearch(queries, kRadius);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_TRUE(BitIdentical(want_range, got.value()));
    } else if (std::strcmp(modality, "SelfJoin") == 0) {
      const Result<std::vector<SelfJoinPair>> got = router->SelfJoin(kRadius);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_TRUE(got.value() == want_pairs);
    } else {
      const Result<JobOutput> got = router->KnnGraph(kGraphK);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got.value().query_ids, want_graph.query_ids);
      EXPECT_TRUE(SameBytes(got.value().graph, want_graph.graph));
    }
    EXPECT_FALSE(router->worker_alive(0));
    EXPECT_GE(router->stats().retried_groups, 1u);
    router->Shutdown();
  }
}

TEST(RouterFrontEndTest, OnlyTheClusterIndexAndTheDefaultNameResolve) {
  const HostMatrix target = testing::ClusteredPoints(48, 3, 2, 1206, 0.08f);
  RouterConfig config;
  config.tenant = "faces";
  START_CLUSTER_OR_SKIP(router, target, config);
  const std::vector<float> point(3, 0.1f);
  CallOptions on_faces;
  on_faces.tenant = "faces";
  CallOptions on_other;
  on_other.tenant = "other";
  const auto named =
      router->Search(point, 2, ann::SearchMode::Exact(), on_faces);
  const auto unqualified = router->Search(point, 2);
  ASSERT_TRUE(named.ok()) << named.status().ToString();
  ASSERT_TRUE(unqualified.ok()) << unqualified.status().ToString();
  EXPECT_EQ(named.value().front().index, unqualified.value().front().index);
  EXPECT_EQ(
      router->Search(point, 2, ann::SearchMode::Exact(), on_other)
          .status()
          .code(),
      StatusCode::kNotFound);
  router->Shutdown();
}

// Approximate requests are exact traffic. Queued beside an exact request
// of the same k, an approx one joins its group — one fan-out against one
// index state — and gets the same bytes, while each query point's
// nearest neighbor keeps changing: a copy of the point is re-inserted
// under a fresh id and the previous copy removed.
template <typename Backend>
void ExpectApproxJoinsTheExactGroup(Backend* backend,
                                    const HostMatrix& queries) {
  DispatcherGate gate(backend);
  std::atomic<bool> done{false};
  std::thread mutator([&] {
    std::vector<Result<uint32_t>> copies(queries.rows(),
                                         Status::NotFound("no copy yet"));
    for (size_t i = 0; !done.load(std::memory_order_acquire); ++i) {
      const size_t q = i % queries.rows();
      const float* row = queries.row(q);
      Result<uint32_t> fresh =
          backend->Insert(std::vector<float>(row, row + queries.cols()));
      ASSERT_TRUE(fresh.ok());
      if (copies[q].ok()) {
        ASSERT_TRUE(backend->Remove(copies[q].value()).value());
      }
      copies[q] = std::move(fresh);
      // Leaves the groups room to take the index lock.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  constexpr int kRounds = 8;
  for (int round = 0; round < kRounds; ++round) {
    const uint64_t requests = backend->stats().requests;
    const uint64_t groups = backend->stats().engine_groups;
    gate.Block();
    // The sentinel parks the dispatcher; both requests queue behind it
    // and drain into its batch (1 + 2 * 6 rows past max_batch_size 8).
    auto sentinel = std::async(std::launch::async, [&] {
      return backend->Search(std::vector<float>(queries.cols(), 0.0f), 1);
    });
    ASSERT_TRUE(gate.AwaitEntered(round + 1));
    auto exact = std::async(std::launch::async,
                            [&] { return backend->JoinBatch(queries, 4); });
    auto approx = std::async(std::launch::async, [&] {
      return backend->JoinBatch(queries, 4, ann::SearchMode::Approx(0.9));
    });
    AwaitAdmitted(*backend, requests + 3);
    gate.Release();

    ASSERT_TRUE(sentinel.get().ok());
    const Result<KnnResult> want = exact.get();
    const Result<KnnResult> got = approx.get();
    ASSERT_TRUE(want.ok() && got.ok());
    ASSERT_EQ(got.value().num_queries(), want.value().num_queries());
    EXPECT_EQ(std::memcmp(got.value().row(0), want.value().row(0),
                          want.value().num_queries() * 4 * sizeof(Neighbor)),
              0)
        << "round " << round;
    // The sentinel's k = 1 group and one k = 4 group for both requests.
    EXPECT_EQ(backend->stats().engine_groups, groups + 2) << "round " << round;
  }
  done.store(true, std::memory_order_release);
  mutator.join();
}

TEST(ApproxRequestTest, InProcessApproxJoinsTheExactGroup) {
  const HostMatrix target = testing::ClusteredPoints(160, 4, 3, 1207, 0.1f);
  const HostMatrix queries = testing::ClusteredPoints(6, 4, 2, 1208, 0.1f);
  KnnService service(target, TwoShards(ServiceConfig{}));
  ExpectApproxJoinsTheExactGroup(&service, queries);
  service.Shutdown();
}

TEST(ApproxRequestTest, ClusterApproxJoinsTheExactGroup) {
  const HostMatrix target = testing::ClusteredPoints(160, 4, 3, 1207, 0.1f);
  const HostMatrix queries = testing::ClusteredPoints(6, 4, 2, 1208, 0.1f);
  START_CLUSTER_OR_SKIP(router, target, RouterConfig{});
  ExpectApproxJoinsTheExactGroup(router.get(), queries);
  router->Shutdown();
}

// A malformed client call returns InvalidArgument before it reaches a
// queue or an index — it must never abort the serving process — and a
// well-formed call right after it is served as usual.
template <typename Backend>
void ExpectStillServing(Backend* backend, size_t dims) {
  EXPECT_TRUE(backend->Search(std::vector<float>(dims, 0.1f), 2).ok());
}

void ExpectInvalid(const Status& status, const char* what) {
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
      << what << ": " << status.ToString();
}

template <typename Backend>
void ExpectMalformedSearchRejected(Backend* backend, size_t dims) {
  const uint64_t requests = backend->stats().requests;
  ExpectInvalid(backend->Search(std::vector<float>(dims + 1, 0.0f), 2)
                    .status(),
                "wrong dims");
  ExpectInvalid(backend->Search(std::vector<float>(), 2).status(),
                "empty point");
  ExpectInvalid(backend->Search(std::vector<float>(dims, 0.0f), 0).status(),
                "k = 0");
  ExpectInvalid(
      backend->Search(std::vector<float>(dims, 0.0f), -3).status(),
      "k < 0");
  EXPECT_EQ(backend->stats().requests, requests);
  ExpectStillServing(backend, dims);
}

template <typename Backend>
void ExpectMalformedJoinBatchRejected(Backend* backend, size_t dims) {
  const uint64_t requests = backend->stats().requests;
  ExpectInvalid(backend->JoinBatch(HostMatrix(0, dims), 2).status(),
                "empty batch");
  ExpectInvalid(
      backend->JoinBatch(testing::UniformPoints(3, dims + 2, 5), 2).status(),
      "wrong dims");
  ExpectInvalid(backend->JoinBatch(testing::UniformPoints(3, dims, 5), 0)
                    .status(),
                "k = 0");
  EXPECT_EQ(backend->stats().requests, requests);
  ExpectStillServing(backend, dims);
}

template <typename Backend>
void ExpectMalformedRadiusSearchRejected(Backend* backend, size_t dims) {
  const uint64_t requests = backend->stats().requests;
  const HostMatrix queries = testing::UniformPoints(3, dims, 6);
  ExpectInvalid(backend->RadiusSearch(HostMatrix(0, dims), 0.5f).status(),
                "empty batch");
  ExpectInvalid(
      backend->RadiusSearch(testing::UniformPoints(3, dims + 1, 6), 0.5f)
          .status(),
      "wrong dims");
  ExpectInvalid(backend->RadiusSearch(queries, -0.5f).status(),
                "negative radius");
  ExpectInvalid(
      backend->RadiusSearch(queries, std::numeric_limits<float>::quiet_NaN())
          .status(),
      "NaN radius");
  EXPECT_EQ(backend->stats().requests, requests);
  EXPECT_TRUE(backend->RadiusSearch(queries, 0.5f).ok());
}

template <typename Backend>
void ExpectMalformedInsertRejected(Backend* backend, size_t dims) {
  ExpectInvalid(backend->Insert(std::vector<float>(dims + 1, 0.0f)).status(),
                "wrong dims");
  ExpectInvalid(backend->Insert(std::vector<float>()).status(),
                "empty point");
  EXPECT_EQ(backend->stats().inserts, 0u);
  // No id was consumed: the first good insert takes the next one.
  const Result<uint32_t> id = backend->Insert(std::vector<float>(dims, 0.2f));
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_EQ(id.value(), 40u);
  ExpectStillServing(backend, dims);
}

constexpr size_t kMalformedDims = 3;

HostMatrix MalformedTarget() {
  return testing::ClusteredPoints(40, kMalformedDims, 2, 1209, 0.1f);
}

TEST(MalformedCallTest, InProcessSearchReturnsInvalidArgument) {
  KnnService service(MalformedTarget(), TwoShards(ServiceConfig{}));
  ExpectMalformedSearchRejected(&service, kMalformedDims);
  service.Shutdown();
}

TEST(MalformedCallTest, InProcessJoinBatchReturnsInvalidArgument) {
  KnnService service(MalformedTarget(), TwoShards(ServiceConfig{}));
  ExpectMalformedJoinBatchRejected(&service, kMalformedDims);
  service.Shutdown();
}

TEST(MalformedCallTest, InProcessRadiusSearchReturnsInvalidArgument) {
  KnnService service(MalformedTarget(), TwoShards(ServiceConfig{}));
  ExpectMalformedRadiusSearchRejected(&service, kMalformedDims);
  service.Shutdown();
}

TEST(MalformedCallTest, InProcessInsertReturnsInvalidArgument) {
  KnnService service(MalformedTarget(), TwoShards(ServiceConfig{}));
  ExpectMalformedInsertRejected(&service, kMalformedDims);
  ExpectInvalid(service.InsertBatch(HostMatrix(0, kMalformedDims)).status(),
                "empty batch");
  service.Shutdown();
}

TEST(MalformedCallTest, CompactShardOutOfRangeReturnsInvalidArgument) {
  KnnService service(MalformedTarget(), TwoShards(ServiceConfig{}));
  ExpectInvalid(service.CompactShard(2), "in-process shard 2 of 2");
  ExpectInvalid(service.CompactShard(-1), "in-process shard -1");
  service.Shutdown();
  START_CLUSTER_OR_SKIP(router, MalformedTarget(), RouterConfig{});
  ExpectInvalid(router->CompactShard(2), "cluster shard 2 of 2");
  ExpectInvalid(router->CompactShard(-1), "cluster shard -1");
  router->Shutdown();
}

TEST(MalformedCallTest, ClusterSearchReturnsInvalidArgument) {
  START_CLUSTER_OR_SKIP(router, MalformedTarget(), RouterConfig{});
  ExpectMalformedSearchRejected(router.get(), kMalformedDims);
  router->Shutdown();
}

TEST(MalformedCallTest, ClusterJoinBatchReturnsInvalidArgument) {
  START_CLUSTER_OR_SKIP(router, MalformedTarget(), RouterConfig{});
  ExpectMalformedJoinBatchRejected(router.get(), kMalformedDims);
  router->Shutdown();
}

TEST(MalformedCallTest, ClusterRadiusSearchReturnsInvalidArgument) {
  START_CLUSTER_OR_SKIP(router, MalformedTarget(), RouterConfig{});
  ExpectMalformedRadiusSearchRejected(router.get(), kMalformedDims);
  router->Shutdown();
}

TEST(MalformedCallTest, ClusterInsertReturnsInvalidArgument) {
  START_CLUSTER_OR_SKIP(router, MalformedTarget(), RouterConfig{});
  ExpectMalformedInsertRejected(router.get(), kMalformedDims);
  router->Shutdown();
}

}  // namespace
}  // namespace sweetknn::serve
