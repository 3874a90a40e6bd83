// KnnService: sharded, micro-batched, concurrently driven — and still
// bit-identical to a single-engine run over the unsharded target set.

#include "serve/knn_service.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "baseline/brute_force_cpu.h"
#include "core/ti_knn_gpu.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace sweetknn {
namespace {

using testing::AwaitAdmitted;
using testing::ClusteredPoints;
using testing::DispatcherGate;

/// Exact (bit-level) equality of one service answer row against the
/// reference row: same neighbor ids AND same float distances.
void ExpectRowBitIdentical(const Neighbor* expected, const Neighbor* actual,
                           int k, size_t global_query) {
  for (int i = 0; i < k; ++i) {
    ASSERT_EQ(expected[i].index, actual[i].index)
        << "query " << global_query << " rank " << i;
    ASSERT_EQ(expected[i].distance, actual[i].distance)
        << "query " << global_query << " rank " << i;
  }
}

KnnResult SingleEngineReference(const HostMatrix& queries,
                                const HostMatrix& target, int k,
                                const core::TiOptions& options) {
  gpusim::Device dev(gpusim::DeviceSpec::TeslaK20c());
  return core::TiKnnEngine::RunOnce(&dev, queries, target, k, options,
                                    nullptr);
}

TEST(KnnServiceTest, ConcurrentClientsBitIdenticalToSingleEngine) {
  const HostMatrix target = ClusteredPoints(420, 6, 5, 401);
  const HostMatrix queries = ClusteredPoints(96, 6, 3, 402);
  constexpr int kNeighbors = 7;
  const KnnResult reference =
      SingleEngineReference(queries, target, kNeighbors,
                            core::TiOptions::Sweet());

  serve::ServiceConfig config;
  config.num_shards = 3;
  config.max_batch_size = 16;
  // The sim-time stats below come from device-routed shards only.
  config.route = core::QueryRoute::kDevice;
  serve::KnnService service(target, config);
  ASSERT_EQ(service.num_shards(), 3);

  // Six client threads, each serving one 16-row slice via JoinBatch.
  constexpr int kClients = 6;
  constexpr size_t kRowsPerClient = 16;
  std::vector<KnnResult> answers(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      HostMatrix slice(kRowsPerClient, queries.cols());
      for (size_t r = 0; r < kRowsPerClient; ++r) {
        for (size_t j = 0; j < queries.cols(); ++j) {
          slice.at(r, j) = queries.at(c * kRowsPerClient + r, j);
        }
      }
      answers[c] = service.JoinBatch(slice, kNeighbors).value();
    });
  }
  for (std::thread& t : clients) t.join();

  for (int c = 0; c < kClients; ++c) {
    ASSERT_EQ(answers[c].num_queries(), kRowsPerClient);
    for (size_t r = 0; r < kRowsPerClient; ++r) {
      const size_t global = c * kRowsPerClient + r;
      ExpectRowBitIdentical(reference.row(global), answers[c].row(r),
                            kNeighbors, global);
    }
  }

  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, static_cast<uint64_t>(kClients));
  EXPECT_EQ(stats.queries, kClients * kRowsPerClient);
  EXPECT_EQ(stats.batched_queries, kClients * kRowsPerClient);
  EXPECT_GE(stats.batches, 1u);
  EXPECT_GT(stats.BatchOccupancy(config.max_batch_size), 0.0);
  EXPECT_GT(stats.AmortizedSimTimePerQuery(), 0.0);
  EXPECT_GE(stats.total_sim_time_s, stats.critical_sim_time_s);
}

TEST(KnnServiceTest, ConcurrentSearchesMatchSingleEngine) {
  const HostMatrix target = ClusteredPoints(300, 4, 4, 403);
  const HostMatrix queries = ClusteredPoints(24, 4, 2, 404);
  constexpr int kNeighbors = 5;
  const KnnResult reference =
      SingleEngineReference(queries, target, kNeighbors,
                            core::TiOptions::Sweet());

  serve::ServiceConfig config;
  config.num_shards = 2;
  config.max_batch_size = 8;
  serve::KnnService service(target, config);

  constexpr int kClients = 4;
  std::vector<std::thread> clients;
  std::vector<std::vector<Neighbor>> answers(queries.rows());
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t q = static_cast<size_t>(c); q < queries.rows();
           q += kClients) {
        std::vector<float> point(queries.row(q),
                                 queries.row(q) + queries.cols());
        answers[q] = service.Search(point, kNeighbors).value();
      }
    });
  }
  for (std::thread& t : clients) t.join();

  for (size_t q = 0; q < queries.rows(); ++q) {
    ASSERT_EQ(answers[q].size(), static_cast<size_t>(kNeighbors));
    ExpectRowBitIdentical(reference.row(q), answers[q].data(), kNeighbors,
                          q);
  }
}

TEST(KnnServiceTest, MixedKRequestsEachMatchOracle) {
  const HostMatrix target = ClusteredPoints(260, 5, 4, 405);
  const HostMatrix queries = ClusteredPoints(30, 5, 2, 406);
  serve::ServiceConfig config;
  config.num_shards = 2;
  config.max_batch_size = 64;  // force mixed-k requests into one pop
  serve::KnnService service(target, config);
  DispatcherGate gate(&service);

  // Park the dispatcher on the first request, queue the rest behind it,
  // then release: the drain coalesces mixed-k requests into one batch.
  const std::vector<int> ks = {1, 3, 9, 30};
  std::vector<KnnResult> answers(ks.size());
  std::vector<std::thread> clients;
  gate.Block();
  for (size_t i = 0; i < ks.size(); ++i) {
    clients.emplace_back(
        [&, i] { answers[i] = service.JoinBatch(queries, ks[i]).value(); });
    if (i == 0) {
      EXPECT_TRUE(gate.AwaitEntered(1));
    }
  }
  AwaitAdmitted(service, ks.size());
  gate.Release();
  for (std::thread& t : clients) t.join();

  for (size_t i = 0; i < ks.size(); ++i) {
    const KnnResult reference = SingleEngineReference(
        queries, target, ks[i], core::TiOptions::Sweet());
    for (size_t q = 0; q < queries.rows(); ++q) {
      ExpectRowBitIdentical(reference.row(q), answers[i].row(q), ks[i], q);
    }
  }
}

TEST(KnnServiceTest, KLargerThanShardSliceAndTargetPads) {
  // 10 target rows over 4 shards: slices of 3/3/2/2 rows, all smaller
  // than k. The merge must still produce the exact global top-k, and pad
  // exactly like the single engine when k exceeds the whole target.
  HostMatrix target(10, 2);
  for (size_t i = 0; i < 10; ++i) {
    target.at(i, 0) = static_cast<float>(i);
  }
  HostMatrix queries(3, 2);
  queries.at(0, 0) = 0.2f;
  queries.at(1, 0) = 4.6f;
  queries.at(2, 0) = 9.9f;

  for (int k : {7, 15}) {
    const KnnResult reference = SingleEngineReference(
        queries, target, k, core::TiOptions::Sweet());
    serve::ServiceConfig config;
    config.num_shards = 4;
    serve::KnnService service(target, config);
    const KnnResult answer = service.JoinBatch(queries, k).value();
    for (size_t q = 0; q < queries.rows(); ++q) {
      ExpectRowBitIdentical(reference.row(q), answer.row(q), k, q);
    }
  }
}

TEST(KnnServiceTest, MoreShardsThanTargetRowsClamps) {
  HostMatrix target(3, 2);
  for (size_t i = 0; i < 3; ++i) target.at(i, 0) = static_cast<float>(i);
  serve::ServiceConfig config;
  config.num_shards = 8;
  serve::KnnService service(target, config);
  EXPECT_EQ(service.num_shards(), 3);
  const auto neighbors = service.Search({1.1f, 0.0f}, 2).value();
  ASSERT_EQ(neighbors.size(), 2u);
  EXPECT_EQ(neighbors[0].index, 1u);
  EXPECT_EQ(neighbors[1].index, 2u);
}

TEST(KnnServiceTest, CacheServesRepeatedSearches) {
  const HostMatrix target = ClusteredPoints(200, 3, 3, 407);
  serve::ServiceConfig config;
  config.num_shards = 2;
  config.cache_capacity = 8;
  serve::KnnService service(target, config);

  const std::vector<float> point = {0.25f, 0.5f, 0.75f};
  const auto first = service.Search(point, 4).value();
  const auto second = service.Search(point, 4).value();
  const auto third = service.Search(point, 4).value();
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, third);
  // A different k is a different cache key.
  const auto other_k = service.Search(point, 2).value();
  EXPECT_EQ(other_k.size(), 2u);
  EXPECT_EQ(other_k[0], first[0]);

  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache_lookups, 4u);
  EXPECT_EQ(stats.cache_hits, 2u);
  EXPECT_EQ(stats.queries, 4u);
  EXPECT_EQ(stats.batched_queries, 2u);  // two misses reached the engines
}

TEST(KnnServiceTest, LruEvictsLeastRecentlyUsed) {
  const HostMatrix target = ClusteredPoints(150, 2, 3, 408);
  serve::ServiceConfig config;
  config.num_shards = 2;
  config.cache_capacity = 1;
  serve::KnnService service(target, config);

  const std::vector<float> a = {0.1f, 0.1f};
  const std::vector<float> b = {0.9f, 0.9f};
  ASSERT_TRUE(service.Search(a, 3).ok());  // miss, cached
  ASSERT_TRUE(service.Search(b, 3).ok());  // miss, evicts a
  ASSERT_TRUE(service.Search(a, 3).ok());  // miss again
  ASSERT_TRUE(service.Search(a, 3).ok());  // hit
  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache_lookups, 4u);
  EXPECT_EQ(stats.cache_hits, 1u);
}

TEST(KnnServiceTest, ShutdownIsIdempotent) {
  const HostMatrix target = ClusteredPoints(120, 3, 3, 409);
  serve::KnnService service(target);
  EXPECT_EQ(service.JoinBatch(target, 3).value().num_queries(), 120u);
  service.Shutdown();
  service.Shutdown();
}

TEST(KnnServiceTest, RequestAfterShutdownIsRejectedGracefully) {
  const HostMatrix target = ClusteredPoints(60, 2, 2, 410);
  serve::KnnService service(target);
  service.Shutdown();
  const auto search = service.Search({0.5f, 0.5f}, 2);
  ASSERT_FALSE(search.ok());
  EXPECT_EQ(search.status().code(), StatusCode::kUnavailable);
  const auto batch = service.JoinBatch(target, 2);
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kUnavailable);
  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.rejected_requests, 2u);
  EXPECT_EQ(stats.requests, 0u);
}

TEST(KnnServiceTest, BatchAccountingCountsMicroBatchesNotKGroups) {
  const HostMatrix target = ClusteredPoints(200, 3, 3, 413);
  serve::ServiceConfig config;
  config.num_shards = 2;
  config.max_batch_size = 3;
  serve::KnnService service(target, config);
  DispatcherGate gate(&service);

  // Three single-row requests with two distinct k values coalesce into
  // one micro-batch (the dispatcher is parked on the first while the
  // other two queue, and the batch seals when the third row is on
  // board): one batch, two engine groups. Counting a "batch" per
  // k-group would report occupancy 0.5 here instead of 1.
  const std::vector<int> ks = {3, 3, 5};
  std::vector<std::thread> clients;
  gate.Block();
  for (const int k : ks) {
    clients.emplace_back([&service, &target, k] {
      HostMatrix one(1, target.cols());
      for (size_t j = 0; j < target.cols(); ++j) {
        one.at(0, j) = target.at(0, j);
      }
      EXPECT_TRUE(service.JoinBatch(one, k).ok());
    });
    if (clients.size() == 1) {
      EXPECT_TRUE(gate.AwaitEntered(1));
    }
  }
  AwaitAdmitted(service, ks.size());
  gate.Release();
  for (std::thread& t : clients) t.join();

  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.engine_groups, 2u);
  EXPECT_EQ(stats.batched_queries, 3u);
  EXPECT_DOUBLE_EQ(stats.MeanBatchSize(), 3.0);
  EXPECT_DOUBLE_EQ(stats.BatchOccupancy(config.max_batch_size), 1.0);
}

TEST(KnnServiceTest, LoneRequestsDispatchWithoutWaiting) {
  // An idle service closes each batch the moment its tenant's queue
  // runs dry: a lone request never waits for co-riders that are not
  // there, so batch assembly costs a queue pop, not a timer.
  const HostMatrix target = ClusteredPoints(200, 3, 3, 416);
  serve::KnnService service(target);
  constexpr int kRequests = 32;
  for (int i = 0; i < kRequests; ++i) {
    const float* row = target.row(static_cast<size_t>(i));
    ASSERT_TRUE(
        service.Search(std::vector<float>(row, row + target.cols()), 3).ok());
  }

  EXPECT_EQ(service.stats().batches, static_cast<uint64_t>(kRequests));
  const common::HistogramSnapshot assembly =
      service.metrics().SnapshotHistogram("sweetknn_batch_assembly_seconds");
  ASSERT_EQ(assembly.count, static_cast<uint64_t>(kRequests));
  EXPECT_LT(assembly.sum / static_cast<double>(assembly.count), 250e-6);
}

TEST(KnnServiceTest, MetricsMirrorStatsAndCarryStageBreakdown) {
  const HostMatrix target = ClusteredPoints(240, 4, 3, 414);
  const HostMatrix queries = ClusteredPoints(12, 4, 2, 415);
  serve::ServiceConfig config;
  config.num_shards = 2;
  // This test asserts per-shard simulated-device stats, so pin every
  // shard onto the device route (host-routed shards report none).
  config.route = core::QueryRoute::kDevice;
  serve::KnnService service(target, config);
  ASSERT_TRUE(service.JoinBatch(queries, 4).ok());
  const serve::ServiceStats stats = service.stats();

  // Every wall-clock histogram saw this one request/batch.
  for (const char* name :
       {"sweetknn_request_latency_seconds", "sweetknn_queue_wait_seconds",
        "sweetknn_batch_assembly_seconds", "sweetknn_shard_fanout_seconds",
        "sweetknn_merge_seconds"}) {
    const common::HistogramSnapshot snap =
        service.metrics().SnapshotHistogram(name);
    EXPECT_EQ(snap.count, 1u) << name;
    EXPECT_GE(snap.max, 0.0) << name;
    EXPECT_GE(snap.Percentile(0.99), snap.Percentile(0.50)) << name;
  }
  const common::HistogramSnapshot rows =
      service.metrics().SnapshotHistogram("sweetknn_batch_size_rows");
  EXPECT_EQ(rows.count, 1u);
  EXPECT_DOUBLE_EQ(rows.sum, 12.0);
  // One adaptive decision per shard run.
  const common::HistogramSnapshot tpq = service.metrics().SnapshotHistogram(
      "sweetknn_adaptive_threads_per_query");
  EXPECT_EQ(tpq.count, 2u);

  // Counters mirror ServiceStats, and the per-stage simulated times
  // partition the device total exactly (modulo summation order).
  const std::string json = service.ExportMetricsJson();
  common::MetricsRegistry parsed;
  ASSERT_TRUE(common::ParseMetricsJson(json, &parsed).ok());
  auto counter = [&parsed](const char* name) {
    return parsed.GetCounter(name, "")->value();
  };
  EXPECT_EQ(counter("sweetknn_requests_total"),
            static_cast<double>(stats.requests));
  EXPECT_EQ(counter("sweetknn_batches_total"),
            static_cast<double>(stats.batches));
  EXPECT_EQ(counter("sweetknn_engine_groups_total"),
            static_cast<double>(stats.engine_groups));
  EXPECT_EQ(counter("sweetknn_batched_queries_total"),
            static_cast<double>(stats.batched_queries));
  EXPECT_EQ(counter("sweetknn_distance_calcs_total"),
            static_cast<double>(stats.distance_calcs));
  EXPECT_EQ(counter("sweetknn_sim_device_seconds_total"),
            stats.total_sim_time_s);
  EXPECT_EQ(counter("sweetknn_sim_critical_seconds_total"),
            stats.critical_sim_time_s);
  const double staged = counter("sweetknn_sim_level1_seconds_total") +
                        counter("sweetknn_sim_level2_seconds_total") +
                        counter("sweetknn_sim_transfer_seconds_total") +
                        counter("sweetknn_sim_preprocess_seconds_total");
  EXPECT_GT(counter("sweetknn_sim_level1_seconds_total"), 0.0);
  EXPECT_GT(counter("sweetknn_sim_level2_seconds_total"), 0.0);
  EXPECT_GT(counter("sweetknn_sim_preprocess_seconds_total"), 0.0);
  EXPECT_NEAR(staged, stats.total_sim_time_s,
              1e-9 * std::max(1.0, stats.total_sim_time_s));
  EXPECT_EQ(counter("sweetknn_adaptive_filter_full_total") +
                counter("sweetknn_adaptive_filter_partial_total"),
            static_cast<double>(stats.engine_groups * 2));  // 2 shards

  // Both exports round-trip bit-identically through their parsers.
  EXPECT_EQ(parsed.ExportJson(), json);
  const std::string text = service.ExportMetricsText();
  common::MetricsRegistry parsed_text;
  ASSERT_TRUE(common::ParseMetricsPrometheusText(text, &parsed_text).ok());
  EXPECT_EQ(parsed_text.ExportPrometheusText(), text);
}

TEST(KnnServiceTest, SweepShardCountsStayExact) {
  const HostMatrix target = ClusteredPoints(330, 4, 4, 411);
  const HostMatrix queries = ClusteredPoints(20, 4, 2, 412);
  const KnnResult oracle = baseline::BruteForceCpu(queries, target, 6);
  for (int shards : {1, 2, 5}) {
    serve::ServiceConfig config;
    config.num_shards = shards;
    serve::KnnService service(target, config);
    const KnnResult answer = service.JoinBatch(queries, 6).value();
    testing::ExpectResultsMatch(oracle, answer);
  }
}

// TSan target (tools/check_tsan.sh): a shard prepares its simulated
// device on the first device-routed group that reaches it, inside the
// fan-out and under the tenant mutex. Flipping the route while clients
// read sends some groups down each route; every answer must still carry
// the host route's bytes.
TEST(KnnServiceTest, RouteFlipsUnderLiveReadsKeepHostRouteBytes) {
  const HostMatrix target = ClusteredPoints(360, 5, 4, 413);
  const HostMatrix queries = ClusteredPoints(48, 5, 3, 414);
  constexpr int kNeighbors = 6;
  serve::ServiceConfig config;
  config.num_shards = 3;
  serve::KnnService service(target, config);

  std::vector<std::vector<Neighbor>> reference(queries.rows());
  for (size_t q = 0; q < queries.rows(); ++q) {
    std::vector<float> point(queries.row(q), queries.row(q) + queries.cols());
    reference[q] = service.Search(point, kNeighbors).value();
  }
  const common::MetricsRegistry& metrics = service.metrics();
  const auto routes = [&](const char* series) {
    return metrics.CounterValue(series);
  };
  ASSERT_EQ(routes("sweetknn_planner_device_routes_total"), 0.0);
  const double reference_routes = routes("sweetknn_planner_host_routes_total");

  // The first groups are device-routed; the flipper switches the route
  // every 8 answers until the clients finish.
  service.set_route(core::QueryRoute::kDevice);
  std::atomic<int> answered{0};
  std::atomic<bool> done{false};
  std::thread flipper([&] {
    int flips = 0;
    while (!done.load()) {
      if (answered.load() / 8 > flips) {
        ++flips;
        service.set_route(flips % 2 == 1 ? core::QueryRoute::kHost
                                         : core::QueryRoute::kDevice);
      }
      std::this_thread::yield();
    }
  });
  constexpr int kClients = 4;
  constexpr int kRounds = 2;
  std::vector<std::vector<std::vector<Neighbor>>> answers(
      kClients, std::vector<std::vector<Neighbor>>(queries.rows()));
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t q = 0; q < queries.rows(); ++q) {
          std::vector<float> point(queries.row(q),
                                   queries.row(q) + queries.cols());
          answers[c][q] = service.Search(point, kNeighbors).value();
          answered.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  done.store(true);
  flipper.join();

  for (int c = 0; c < kClients; ++c) {
    for (size_t q = 0; q < queries.rows(); ++q) {
      ASSERT_EQ(answers[c][q].size(), static_cast<size_t>(kNeighbors));
      ExpectRowBitIdentical(reference[q].data(), answers[c][q].data(),
                            kNeighbors, q);
    }
  }
  EXPECT_GT(routes("sweetknn_planner_device_routes_total"), 0.0);
  EXPECT_GT(routes("sweetknn_planner_host_routes_total"), reference_routes);
}

}  // namespace
}  // namespace sweetknn
