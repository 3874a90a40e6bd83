// Multi-tenant KnnService: index lifecycle, per-tenant isolation (bit-
// identical to a dedicated single-tenant service), deadlines, the
// admission bound, the queue-depth gauge regression, and the
// GraphBuildParams::workers plumbing regression.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "ann/knn_graph.h"
#include "common/metrics.h"
#include "gtest/gtest.h"
#include "serve/knn_service.h"
#include "test_util.h"

namespace sweetknn {
namespace {

using testing::ClusteredPoints;

serve::ServiceConfig FastConfig() {
  serve::ServiceConfig config;
  config.num_shards = 2;
  config.max_batch_size = 16;
  config.max_batch_wait = std::chrono::microseconds(200);
  config.auto_compact = false;
  return config;
}

/// Parks the dispatcher thread inside the pre-dispatch hook: after
/// Block(), the next request it dequeues stalls until Release(), holding
/// every later submission at a known queue depth.
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
  explicit DispatcherGate(serve::KnnService* service)
      : state_(std::make_shared<State>()) {
    std::shared_ptr<State> state = state_;
    service->SetPreDispatchHookForTest([state] {
      std::unique_lock<std::mutex> lock(state->mutex);
      ++state->entered;
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

  /// Waits until the dispatcher has entered the hook `n` times (i.e. is
  /// parked on its n-th batch). False on a 10 s timeout.
  bool AwaitEntered(int n) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(state_->mutex);
        if (state_->entered >= n) return true;
      }
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

 private:
  std::shared_ptr<State> state_;
};

double GaugeFromText(const std::string& text, const std::string& name) {
  common::MetricsRegistry parsed;
  const Status status = common::ParseMetricsPrometheusText(text, &parsed);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return parsed.GetGauge(name, "")->value();
}

double CounterFromText(const std::string& text, const std::string& name,
                       const std::string& labels) {
  common::MetricsRegistry parsed;
  const Status status = common::ParseMetricsPrometheusText(text, &parsed);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return parsed.GetCounter(name, labels, "")->value();
}

TEST(MultiTenantTest, IndexLifecycle) {
  const HostMatrix base = ClusteredPoints(120, 5, 3, 901);
  const HostMatrix faces = ClusteredPoints(90, 5, 3, 902);
  serve::KnnService service(base, FastConfig());

  EXPECT_EQ(service.ListIndexes(),
            std::vector<std::string>{serve::kDefaultTenant});

  ASSERT_TRUE(service.CreateIndex("faces", faces, 4.0).ok());
  const std::vector<std::string> both = {"default", "faces"};
  EXPECT_EQ(service.ListIndexes(), both);

  // Duplicates, malformed names, empty targets.
  EXPECT_EQ(service.CreateIndex("faces", faces).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.CreateIndex("", faces).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.CreateIndex("bad/name", faces).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.CreateIndex("ok-name", HostMatrix()).code(),
            StatusCode::kInvalidArgument);

  EXPECT_TRUE(service.SetIndexWeight("faces", 2.0).ok());
  EXPECT_EQ(service.SetIndexWeight("missing", 2.0).code(),
            StatusCode::kNotFound);

  // The default index is permanent; unknown names are NotFound.
  EXPECT_EQ(service.DropIndex("default").code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(service.DropIndex("missing").ok());

  ASSERT_TRUE(service.DropIndex("faces").ok());
  EXPECT_EQ(service.ListIndexes(),
            std::vector<std::string>{serve::kDefaultTenant});

  serve::CallOptions on_faces;
  on_faces.tenant = "faces";
  const std::vector<float> probe(service.dims(), 0.0f);
  EXPECT_EQ(service.Search(probe, 3, ann::SearchMode::Exact(), on_faces)
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(MultiTenantTest, NamedTenantBitIdenticalToDedicatedService) {
  const HostMatrix base = ClusteredPoints(240, 6, 4, 911);
  const HostMatrix faces = ClusteredPoints(180, 6, 4, 912);
  const HostMatrix queries = ClusteredPoints(24, 6, 2, 913);
  constexpr int kNeighbors = 5;

  serve::KnnService dedicated(faces, FastConfig());
  const KnnResult reference =
      dedicated.JoinBatch(queries, kNeighbors).value();

  serve::KnnService service(base, FastConfig());
  ASSERT_TRUE(service.CreateIndex("faces", faces).ok());
  serve::CallOptions on_faces;
  on_faces.tenant = "faces";
  const KnnResult answer =
      service.JoinBatch(queries, kNeighbors, ann::SearchMode::Exact(), on_faces)
          .value();

  ASSERT_EQ(answer.num_queries(), reference.num_queries());
  for (size_t q = 0; q < reference.num_queries(); ++q) {
    for (int i = 0; i < kNeighbors; ++i) {
      ASSERT_EQ(reference.row(q)[i].index, answer.row(q)[i].index)
          << "query " << q << " rank " << i;
      ASSERT_EQ(reference.row(q)[i].distance, answer.row(q)[i].distance)
          << "query " << q << " rank " << i;
    }
  }
}

TEST(MultiTenantTest, MutationsAreTenantIsolated) {
  const HostMatrix base = ClusteredPoints(100, 4, 3, 921);
  const HostMatrix other = ClusteredPoints(80, 4, 3, 922);
  serve::KnnService service(base, FastConfig());
  ASSERT_TRUE(service.CreateIndex("other", other).ok());

  const std::vector<float> probe(4, 0.25f);
  const std::vector<Neighbor> before = service.Search(probe, 3).value();

  serve::CallOptions on_other;
  on_other.tenant = "other";
  // Ids are allocated per tenant: a fresh tenant with 80 rows hands out
  // 80 next, independent of the default tenant's allocator.
  const Result<uint32_t> id =
      service.Insert(std::vector<float>(4, 0.5f), on_other);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(id.value(), 80u);
  ASSERT_TRUE(service.Remove(0, on_other).value());

  EXPECT_EQ(service.target_rows(), 100u);
  EXPECT_EQ(service.target_rows("other").value(), 80u);  // +1 -1

  // The default tenant's answers are untouched by the other tenant's
  // mutations (and its cache epoch bumps).
  const std::vector<Neighbor> after = service.Search(probe, 3).value();
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i].index, after[i].index);
    EXPECT_EQ(before[i].distance, after[i].distance);
  }
}

TEST(MultiTenantTest, QueuedRequestsOfADroppedTenantFailNotFound) {
  const HostMatrix base = ClusteredPoints(100, 4, 3, 931);
  const HostMatrix doomed = ClusteredPoints(60, 4, 3, 932);
  serve::KnnService service(base, FastConfig());
  DispatcherGate gate(&service);
  ASSERT_TRUE(service.CreateIndex("doomed", doomed).ok());

  gate.Block();
  // Sentinel: parks the dispatcher inside the hook.
  auto sentinel = std::async(std::launch::async, [&] {
    return service.Search(std::vector<float>(4, 0.0f), 2);
  });
  ASSERT_TRUE(gate.AwaitEntered(1));

  serve::CallOptions on_doomed;
  on_doomed.tenant = "doomed";
  auto queued = std::async(std::launch::async, [&] {
    return service.Search(std::vector<float>(4, 0.1f), 2,
                          ann::SearchMode::Exact(), on_doomed);
  });
  // Wait for admission (sentinel + this one).
  while (service.stats().requests < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  ASSERT_TRUE(service.DropIndex("doomed").ok());
  gate.Release();

  EXPECT_TRUE(sentinel.get().ok());
  const auto result = queued.get();
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(MultiTenantTest, DeadlineExpiresInTheQueue) {
  const HostMatrix base = ClusteredPoints(100, 4, 3, 941);
  serve::KnnService service(base, FastConfig());
  DispatcherGate gate(&service);

  gate.Block();
  auto sentinel = std::async(std::launch::async, [&] {
    return service.Search(std::vector<float>(4, 0.0f), 2);
  });
  ASSERT_TRUE(gate.AwaitEntered(1));

  serve::CallOptions hurried;
  hurried.timeout = std::chrono::microseconds(2000);
  auto doomed = std::async(std::launch::async, [&] {
    return service.Search(std::vector<float>(4, 0.1f), 2,
                          ann::SearchMode::Exact(), hurried);
  });
  while (service.stats().requests < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  gate.Release();

  EXPECT_TRUE(sentinel.get().ok());
  const auto result = doomed.get();
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(service.stats().deadline_exceeded, 1u);

  // A roomy deadline is honored like no deadline at all.
  serve::CallOptions relaxed;
  relaxed.timeout = std::chrono::seconds(30);
  EXPECT_TRUE(service.Search(std::vector<float>(4, 0.2f), 2,
                             ann::SearchMode::Exact(), relaxed).ok());
}

TEST(MultiTenantTest, ShedsBeyondMaxQueueDepth) {
  const HostMatrix base = ClusteredPoints(100, 4, 3, 951);
  serve::ServiceConfig config = FastConfig();
  config.max_queue_depth = 2;
  serve::KnnService service(base, config);
  DispatcherGate gate(&service);

  gate.Block();
  auto sentinel = std::async(std::launch::async, [&] {
    return service.Search(std::vector<float>(4, 0.0f), 2);
  });
  ASSERT_TRUE(gate.AwaitEntered(1));

  std::vector<std::future<Result<std::vector<Neighbor>>>> admitted;
  for (int i = 0; i < 2; ++i) {
    admitted.push_back(std::async(std::launch::async, [&, i] {
      return service.Search(std::vector<float>(4, 0.1f * (i + 1)), 2);
    }));
  }
  while (service.stats().requests < 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // The queue is at its bound: the next call sheds without blocking.
  const auto shed = service.Search(std::vector<float>(4, 0.9f), 2);
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(shed.status().message().find("shed"), std::string::npos)
      << shed.status().ToString();
  EXPECT_EQ(service.stats().shed_requests, 1u);

  gate.Release();
  EXPECT_TRUE(sentinel.get().ok());
  for (auto& f : admitted) EXPECT_TRUE(f.get().ok());

  // Sheds are counted but never admitted.
  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.shed_requests, 1u);
  const std::string text = service.ExportMetricsText();
  EXPECT_EQ(CounterFromText(text, "sweetknn_shed_requests_total", ""), 1.0);
}

// Regression (the dueling-Set bug): the queue-depth gauge used to be
// written from both the submit and the dispatch path, so two racing
// writers could publish a stale depth that stuck. It is now computed
// from the live scheduler at export time only — with the dispatcher
// parked and 8 requests queued, every export must read exactly 8.
TEST(MultiTenantTest, QueueDepthGaugeIsComputedAtExportTime) {
  const HostMatrix base = ClusteredPoints(100, 4, 3, 961);
  serve::KnnService service(base, FastConfig());
  DispatcherGate gate(&service);

  gate.Block();
  auto sentinel = std::async(std::launch::async, [&] {
    return service.Search(std::vector<float>(4, 0.0f), 2);
  });
  ASSERT_TRUE(gate.AwaitEntered(1));

  constexpr int kQueued = 8;
  std::vector<std::future<Result<std::vector<Neighbor>>>> queued;
  for (int i = 0; i < kQueued; ++i) {
    queued.push_back(std::async(std::launch::async, [&, i] {
      return service.Search(std::vector<float>(4, 0.05f * (i + 1)), 2);
    }));
  }
  while (service.stats().requests < 1 + kQueued) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(GaugeFromText(service.ExportMetricsText(),
                            "sweetknn_queue_depth"),
              static_cast<double>(kQueued))
        << "export round " << round;
  }
  EXPECT_GE(GaugeFromText(service.ExportMetricsText(),
                          "sweetknn_peak_queue_depth"),
            static_cast<double>(kQueued));

  gate.Release();
  EXPECT_TRUE(sentinel.get().ok());
  for (auto& f : queued) EXPECT_TRUE(f.get().ok());

  // Drained: the gauge follows the live scheduler back to zero.
  EXPECT_EQ(GaugeFromText(service.ExportMetricsText(),
                          "sweetknn_queue_depth"),
            0.0);
}

// Regression (satellite: workers plumbing): GraphBuildParams::workers
// was never filled from the service config, so every graph build
// silently fell back to the SWEETKNN_SIM_THREADS environment default.
// With ann_params.workers unset, builds must now resolve to
// options.sim_threads — at construction AND at compaction rebuilds.
TEST(MultiTenantTest, GraphBuildWorkersFollowServiceConfig) {
  constexpr int kConfiguredThreads = 3;
  std::mutex mutex;
  std::vector<int> observed;
  ann::SetGraphBuildObserverForTest([&](int workers) {
    std::lock_guard<std::mutex> lock(mutex);
    observed.push_back(workers);
  });

  const HostMatrix base = ClusteredPoints(120, 4, 3, 971);
  serve::ServiceConfig config = FastConfig();
  config.enable_ann = true;
  config.ann_params.workers = 0;  // unset: must inherit sim_threads
  config.options.sim_threads = kConfiguredThreads;
  {
    serve::KnnService service(base, config);
    {
      std::lock_guard<std::mutex> lock(mutex);
      ASSERT_EQ(observed.size(),
                static_cast<size_t>(config.num_shards));
      for (const int workers : observed) {
        EXPECT_EQ(workers, kConfiguredThreads);
      }
      observed.clear();
    }

    // Compaction rebuilds the graph with the shard's resolved params,
    // not a fresh (unset) copy of the config.
    ASSERT_TRUE(service.Insert(std::vector<float>(4, 0.5f)).ok());
    ASSERT_TRUE(service.Remove(0).value());
    ASSERT_TRUE(service.CompactAll().ok());
    {
      std::lock_guard<std::mutex> lock(mutex);
      ASSERT_GE(observed.size(), 1u);
      for (const int workers : observed) {
        EXPECT_EQ(workers, kConfiguredThreads);
      }
    }
  }
  ann::SetGraphBuildObserverForTest(nullptr);
}

TEST(MultiTenantTest, PerTenantMetricSeries) {
  const HostMatrix base = ClusteredPoints(100, 4, 3, 981);
  const HostMatrix faces = ClusteredPoints(80, 4, 3, 982);
  serve::KnnService service(base, FastConfig());
  ASSERT_TRUE(service.CreateIndex("faces", faces).ok());

  serve::CallOptions on_faces;
  on_faces.tenant = "faces";
  ASSERT_TRUE(service.Search(std::vector<float>(4, 0.0f), 2).ok());
  ASSERT_TRUE(service.Search(std::vector<float>(4, 0.0f), 2,
                             ann::SearchMode::Exact(), on_faces).ok());
  ASSERT_TRUE(service.Search(std::vector<float>(4, 0.3f), 2,
                             ann::SearchMode::Exact(), on_faces).ok());

  const std::string text = service.ExportMetricsText();
  EXPECT_EQ(CounterFromText(text, "sweetknn_tenant_requests_total",
                            common::TenantLabel("default")),
            1.0);
  EXPECT_EQ(CounterFromText(text, "sweetknn_tenant_requests_total",
                            common::TenantLabel("faces")),
            2.0);
  EXPECT_EQ(GaugeFromText(text, "sweetknn_tenants"), 2.0);
}

}  // namespace
}  // namespace sweetknn
