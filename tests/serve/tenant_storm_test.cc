// Mixed-tenant storms: weighted-fair service ratios under saturation
// (with clean shed statuses), and cross-tenant isolation while one
// tenant runs a mutation + compaction storm — the other tenant's
// answers stay bit-identical to its oracle and its tail latency stays
// bounded.

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "serve/knn_service.h"
#include "test_util.h"

namespace sweetknn {
namespace {

using testing::ClusteredPoints;

void ExpectBitIdentical(const KnnResult& expected, const KnnResult& actual,
                        const char* what) {
  ASSERT_EQ(expected.num_queries(), actual.num_queries()) << what;
  ASSERT_EQ(expected.k(), actual.k()) << what;
  for (size_t q = 0; q < expected.num_queries(); ++q) {
    for (int i = 0; i < expected.k(); ++i) {
      ASSERT_EQ(expected.row(q)[i].index, actual.row(q)[i].index)
          << what << ": query " << q << " rank " << i;
      ASSERT_EQ(expected.row(q)[i].distance, actual.row(q)[i].distance)
          << what << ": query " << q << " rank " << i;
    }
  }
}

// Two query-only tenants at a 4:1 weight, driven well past the service's
// throughput by blocking producers: the deficit-round-robin scheduler
// must serve them within 25% of the configured ratio, and the bounded
// queue must shed the overflow with nothing but clean kUnavailable
// "shed" statuses (never a hang, never a wrong answer).
TEST(TenantStormTest, WeightedFairShareWithinTolerance) {
  const HostMatrix base = ClusteredPoints(80, 4, 3, 1001);
  const HostMatrix heavy = ClusteredPoints(200, 4, 4, 1002);
  const HostMatrix light = ClusteredPoints(200, 4, 4, 1003);

  serve::ServiceConfig config;
  config.num_shards = 2;
  config.max_batch_size = 4;
  config.max_queue_depth = 12;
  config.auto_compact = false;
  serve::KnnService service(base, config);
  ASSERT_TRUE(service.CreateIndex("heavy", heavy, 4.0).ok());
  ASSERT_TRUE(service.CreateIndex("light", light, 1.0).ok());

  constexpr int kProducersPerTenant = 8;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  std::atomic<uint64_t> served_heavy{0};
  std::atomic<uint64_t> served_light{0};
  std::atomic<uint64_t> sheds{0};
  std::atomic<bool> bad_status{false};
  std::mutex bad_mutex;
  std::string bad_detail;

  auto producer = [&](const std::string& tenant,
                      std::atomic<uint64_t>* served, int lane) {
    serve::CallOptions opts;
    opts.tenant = tenant;
    std::vector<float> point(4, 0.01f * (lane + 1));
    while (std::chrono::steady_clock::now() < deadline) {
      const Result<std::vector<Neighbor>> result =
          service.Search(point, 3, ann::SearchMode::Exact(), opts);
      if (result.ok()) {
        served->fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      // The only acceptable failure under overload is a clean shed.
      if (result.status().code() == StatusCode::kUnavailable &&
          result.status().message().find("shed") != std::string::npos) {
        sheds.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        continue;
      }
      bad_status.store(true, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(bad_mutex);
      bad_detail = result.status().ToString();
      return;
    }
  };

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducersPerTenant; ++p) {
    producers.emplace_back(producer, "heavy", &served_heavy, p);
    producers.emplace_back(producer, "light", &served_light, p);
  }
  for (std::thread& t : producers) t.join();

  EXPECT_FALSE(bad_status.load()) << bad_detail;
  ASSERT_GE(served_light.load(), 20u)
      << "not enough traffic to measure the ratio";
  const double ratio = static_cast<double>(served_heavy.load()) /
                       static_cast<double>(served_light.load());
  EXPECT_GT(ratio, 4.0 * 0.75)
      << "heavy=" << served_heavy.load() << " light=" << served_light.load();
  EXPECT_LT(ratio, 4.0 * 1.25)
      << "heavy=" << served_heavy.load() << " light=" << served_light.load();

  // Every shed the producers saw is accounted, and vice versa.
  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.shed_requests, sheds.load());
  EXPECT_EQ(stats.requests, served_heavy.load() + served_light.load());
  EXPECT_LE(stats.peak_queue_depth, config.max_queue_depth);
}

// Tenant "default" takes a mutation + compaction storm (inserts,
// removes, explicit compactions, the auto-compactor running) while
// tenant "b" serves queries the whole time. Both stay bit-identical to
// their oracles: "default" against a dedicated single-tenant service
// fed the identical mutation sequence, "b" against its pre-storm
// reference (its index never changes). Tenant "b"'s p99 must stay
// bounded — the storm may not starve it.
TEST(TenantStormTest, CompactionStormLeavesOtherTenantBitIdentical) {
  const HostMatrix target_a = ClusteredPoints(160, 4, 3, 1011);
  const HostMatrix target_b = ClusteredPoints(140, 4, 3, 1012);
  const HostMatrix queries_a = ClusteredPoints(12, 4, 2, 1013);
  const HostMatrix queries_b = ClusteredPoints(12, 4, 2, 1014);
  constexpr int kNeighbors = 5;

  serve::ServiceConfig config;
  config.num_shards = 2;
  config.max_batch_size = 16;
  config.compact_delta_fraction = 0.05;  // storm: compact eagerly
  config.auto_compact = true;
  serve::KnnService service(target_a, config);
  ASSERT_TRUE(service.CreateIndex("b", target_b, 1.0).ok());

  // The oracle receives the identical mutation sequence (same thread,
  // same order), so its answers must match tenant "default" bit for bit
  // at every checkpoint — compactions are answer-preserving.
  serve::KnnService oracle(target_a, config);

  const KnnResult reference_b =
      service.JoinBatch(queries_b, kNeighbors, ann::SearchMode::Exact(),
                        serve::CallOptions{"b", {}})
          .value();

  std::atomic<bool> storm_done{false};
  std::atomic<uint64_t> b_rounds{0};
  std::atomic<bool> b_failed{false};
  std::vector<std::thread> b_clients;
  for (int c = 0; c < 2; ++c) {
    b_clients.emplace_back([&] {
      serve::CallOptions on_b;
      on_b.tenant = "b";
      while (!storm_done.load(std::memory_order_acquire)) {
        const Result<KnnResult> answer =
            service.JoinBatch(queries_b, kNeighbors,
                              ann::SearchMode::Exact(), on_b);
        if (!answer.ok()) {
          b_failed.store(true);
          ADD_FAILURE() << "tenant b query failed: "
                        << answer.status().ToString();
          return;
        }
        ExpectBitIdentical(reference_b, answer.value(), "tenant b");
        b_rounds.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // The storm: bursts of inserts and removes applied to the service and
  // the oracle in lock step, explicit compactions sprinkled in, and a
  // bit-identity checkpoint on tenant "default" every round.
  uint32_t next_insert_seed = 0;
  uint32_t next_remove = 0;
  constexpr int kRounds = 12;
  for (int round = 0; round < kRounds; ++round) {
    for (int i = 0; i < 6; ++i) {
      std::vector<float> point(4);
      for (size_t j = 0; j < point.size(); ++j) {
        point[j] = 0.1f * static_cast<float>((next_insert_seed * 7 + j) % 23);
      }
      ++next_insert_seed;
      const Result<uint32_t> id_service = service.Insert(point);
      const Result<uint32_t> id_oracle = oracle.Insert(point);
      ASSERT_TRUE(id_service.ok());
      ASSERT_TRUE(id_oracle.ok());
      ASSERT_EQ(id_service.value(), id_oracle.value());
    }
    for (int i = 0; i < 3; ++i) {
      const Result<bool> removed_service = service.Remove(next_remove);
      const Result<bool> removed_oracle = oracle.Remove(next_remove);
      ASSERT_TRUE(removed_service.ok());
      ASSERT_TRUE(removed_oracle.ok());
      ASSERT_EQ(removed_service.value(), removed_oracle.value());
      ++next_remove;
    }
    if (round % 3 == 1) {
      // Explicit compactions may race the auto-compactor and report
      // Unavailable (superseded); either way answers are preserved.
      (void)service.CompactShard(round % config.num_shards);
      (void)oracle.CompactShard(round % config.num_shards);
    }
    const KnnResult answer_service =
        service.JoinBatch(queries_a, kNeighbors).value();
    const KnnResult answer_oracle =
        oracle.JoinBatch(queries_a, kNeighbors).value();
    ExpectBitIdentical(answer_oracle, answer_service, "tenant default");
  }
  storm_done.store(true, std::memory_order_release);
  for (std::thread& t : b_clients) t.join();

  EXPECT_FALSE(b_failed.load());
  EXPECT_GE(b_rounds.load(), 1u);

  // Tail-latency isolation: tenant b's p99 stays bounded through the
  // storm (generous absolute bound — TSan builds run this too).
  const common::HistogramSnapshot latency = service.metrics().SnapshotHistogram(
      "sweetknn_tenant_request_latency_seconds{" +
      common::TenantLabel("b") + "}");
  ASSERT_GT(latency.count, 0u);
  EXPECT_LT(latency.Percentile(0.99), 2.0)
      << "tenant b p99 " << latency.Percentile(0.99) << "s";

  // The storm compacted: the default tenant actually exercised the
  // rebuild/install path while b served.
  EXPECT_GE(service.stats().compactions, 1u);
}

}  // namespace
}  // namespace sweetknn
