// The cluster router serves through the same FrontEnd as the in-process
// KnnService, so it inherits admission, deadlines, shedding, the recall
// probe, and the request/stage metric names. These tests pin each of
// those on the cluster path, plus the recall probe's one-index-state
// guarantee on both transports.
//
// The cluster legs need the worker binary; they skip unless SWEETKNN_CLI
// points at the sweetknn_cli executable (ctest exports it). Runs under
// TSan via tools/check_tsan.sh.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
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

/// Parks the front-end's dispatcher inside the pre-dispatch hook: after
/// Block(), the next request it dequeues stalls until Release(), holding
/// every later submission in the queue.
class DispatcherGate {
  /// Shared with the installed hook, so a hook copy the dispatcher took
  /// before the gate went out of scope can still run safely.
  struct State {
    std::mutex mutex;
    std::condition_variable cv;
    bool blocked = false;
    int entered = 0;
  };

 public:
  template <typename Backend>
  explicit DispatcherGate(Backend* backend)
      : state_(std::make_shared<State>()) {
    std::shared_ptr<State> state = state_;
    backend->SetPreDispatchHookForTest([state] {
      std::unique_lock<std::mutex> lock(state->mutex);
      ++state->entered;
      state->cv.notify_all();
      state->cv.wait(lock, [&state] { return !state->blocked; });
    });
  }

  void Block() {
    std::lock_guard<std::mutex> lock(state_->mutex);
    state_->blocked = true;
  }

  void Release() {
    {
      std::lock_guard<std::mutex> lock(state_->mutex);
      state_->blocked = false;
    }
    state_->cv.notify_all();
  }

  /// Waits until the dispatcher has entered the hook `n` times. False on
  /// a 10 s timeout.
  bool AwaitEntered(int n) {
    std::unique_lock<std::mutex> lock(state_->mutex);
    return state_->cv.wait_for(lock, std::chrono::seconds(10),
                               [&] { return state_->entered >= n; });
  }

 private:
  std::shared_ptr<State> state_;
};

/// A two-shard, one-worker cluster over `target`, or nullptr (with the
/// test skipped) when the worker binary is not available.
std::unique_ptr<Router> StartCluster(const HostMatrix& target,
                                     RouterConfig config) {
  const char* cli = std::getenv("SWEETKNN_CLI");
  if (cli == nullptr) return nullptr;
  config.service.num_shards = 2;
  config.service.max_batch_size = 8;
  config.service.max_batch_wait = std::chrono::microseconds(200);
  config.service.auto_compact = false;
  config.num_workers = 1;
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

template <typename Backend>
void AwaitAdmitted(const Backend& backend, uint64_t requests) {
  while (backend.stats().requests < requests) {
    std::this_thread::sleep_for(milliseconds(1));
  }
}

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
  config.service.planner.mode = core::PlannerMode::kForceDevice;
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

  const std::string json = router->ExportMetricsJson();
  EXPECT_NE(json.find("\"sweetknn_tenant_requests_total\""),
            std::string::npos);
  EXPECT_EQ(json.find("sweetknn_router_requests_total"), std::string::npos);
  EXPECT_EQ(json.find("sweetknn_router_queue_wait_seconds"),
            std::string::npos);
  router->Shutdown();
}

TEST(RouterFrontEndTest, RadiusSearchMatchesLocalServiceByteForByte) {
  const HostMatrix target = testing::ClusteredPoints(120, 4, 3, 1204, 0.1f);
  const HostMatrix queries = testing::ClusteredPoints(9, 4, 2, 1205, 0.1f);
  constexpr float kRadius = 0.35f;
  RouterConfig config;
  START_CLUSTER_OR_SKIP(router, target, config);
  ServiceConfig local_config = config.service;
  local_config.num_shards = 2;
  local_config.auto_compact = false;
  KnnService local(target, local_config);

  // The same mutations on both, so the answers cover the overlay too.
  for (int step = 0; step < 3; ++step) {
    const std::vector<float> point(4, 0.05f * static_cast<float>(step));
    ASSERT_EQ(local.Insert(point).value(), router->Insert(point).value());
  }
  ASSERT_TRUE(local.Remove(5).value());
  ASSERT_TRUE(router->Remove(5).value());

  const Result<RangeResult> want = local.RadiusSearch(queries, kRadius);
  const Result<RangeResult> got = router->RadiusSearch(queries, kRadius);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_GT(want.value().total_matches(), 0u);
  EXPECT_TRUE(BitIdentical(want.value(), got.value()));

  // It went through the front-end: one range group, counted like the
  // in-process one.
  const ClusterStats stats = router->stats();
  EXPECT_EQ(stats.range_groups, 1u);
  EXPECT_EQ(stats.range_queries, queries.rows());
  EXPECT_EQ(stats.range_matches, want.value().total_matches());
  router->Shutdown();
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

// The recall probe answers a probed approx group exactly against the
// same index state. With a saturated candidate budget the approx search
// is itself exact, so every probe must measure recall 1.0 — even while
// each query point's nearest neighbor keeps changing: a copy of the
// point is re-inserted under a fresh id and the previous copy removed.
// A probe whose exact half saw another state would measure less.
template <typename Backend>
void ExpectProbesSeeOneIndexState(Backend* backend, const HostMatrix& queries,
                                  const common::MetricsRegistry& metrics) {
  const ann::SearchMode saturated = ann::SearchMode::Approx(0.9, 1 << 20);
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
  constexpr int kGroups = 16;
  for (int g = 0; g < kGroups; ++g) {
    ASSERT_TRUE(backend->JoinBatch(queries, 4, saturated).ok());
  }
  done.store(true, std::memory_order_release);
  mutator.join();

  EXPECT_EQ(metrics.CounterValue("sweetknn_ann_recall_probes_total"),
            static_cast<double>(kGroups));
  const common::HistogramSnapshot recall =
      metrics.SnapshotHistogram("sweetknn_ann_recall_estimate");
  EXPECT_EQ(recall.count, static_cast<uint64_t>(kGroups));
  EXPECT_EQ(recall.sum, static_cast<double>(kGroups))
      << "a probe compared answers from two index states";
}

ServiceConfig ProbeConfig() {
  ServiceConfig config;
  config.num_shards = 2;
  config.max_batch_size = 8;
  config.max_batch_wait = std::chrono::microseconds(200);
  config.auto_compact = false;
  config.enable_ann = true;
  config.ann_recall_probe_interval = 1;
  return config;
}

TEST(RecallProbeTest, InProcessProbeSeesOneIndexState) {
  const HostMatrix target = testing::ClusteredPoints(160, 4, 3, 1207, 0.1f);
  const HostMatrix queries = testing::ClusteredPoints(6, 4, 2, 1208, 0.1f);
  KnnService service(target, ProbeConfig());
  ExpectProbesSeeOneIndexState(&service, queries, service.metrics());
  service.Shutdown();
}

TEST(RecallProbeTest, ClusterProbeSeesOneIndexState) {
  const HostMatrix target = testing::ClusteredPoints(160, 4, 3, 1207, 0.1f);
  const HostMatrix queries = testing::ClusteredPoints(6, 4, 2, 1208, 0.1f);
  RouterConfig config;
  config.service = ProbeConfig();
  START_CLUSTER_OR_SKIP(router, target, config);
  ExpectProbesSeeOneIndexState(router.get(), queries, router->metrics());
  router->Shutdown();
}

}  // namespace
}  // namespace sweetknn::serve
