// Warm start and hot swap of KnnService index generations.
//
// The load-bearing claims: a warm-started service answers bit-identically
// to a cold-built one; SwapIndex under concurrent clients never drops a
// request and never serves an answer mixing two index generations; and a
// failed swap leaves the live index untouched. Runs under TSan via
// tools/check_tsan.sh.

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/knn_result.h"
#include "common/matrix.h"
#include "common/rng.h"
#include "gtest/gtest.h"
#include "serve/knn_service.h"
#include "store/snapshot.h"

namespace sweetknn::serve {
namespace {

std::string TempDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

HostMatrix RandomMatrix(size_t n, size_t dims, uint64_t seed) {
  Rng rng(seed);
  HostMatrix m(n, dims);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < dims; ++j) {
      m.at(i, j) = static_cast<float>(rng.NextDouble() * 10.0 - 5.0);
    }
  }
  return m;
}

bool SameResult(const KnnResult& a, const KnnResult& b) {
  if (a.num_queries() != b.num_queries() || a.k() != b.k()) return false;
  for (size_t q = 0; q < a.num_queries(); ++q) {
    if (std::memcmp(a.row(q), b.row(q),
                    static_cast<size_t>(a.k()) * sizeof(Neighbor)) != 0) {
      return false;
    }
  }
  return true;
}

TEST(HotSwapTest, WarmStartMatchesColdBitwise) {
  const HostMatrix target = RandomMatrix(180, 6, 1);
  const HostMatrix queries = RandomMatrix(25, 6, 2);
  const std::string dir = TempDir("warm_vs_cold");

  ServiceConfig config;
  config.num_shards = 3;
  KnnService cold(target, config);
  ASSERT_TRUE(cold.SaveSnapshots(dir).ok());
  EXPECT_EQ(cold.stats().warm_started_shards, 0u);

  config.snapshot_dir = dir;
  KnnService warm(target, config);
  EXPECT_EQ(warm.stats().warm_started_shards, 3u);
  EXPECT_EQ(warm.target_rows(), cold.target_rows());

  // Both routes answer from the restored shards: the device engine and
  // the host scan.
  for (const core::QueryRoute route :
       {core::QueryRoute::kDevice, core::QueryRoute::kHost}) {
    cold.set_route(route);
    warm.set_route(route);
    for (const int k : {1, 7}) {
      const KnnResult a = cold.JoinBatch(queries, k).value();
      const KnnResult b = warm.JoinBatch(queries, k).value();
      EXPECT_TRUE(SameResult(a, b))
          << "route=" << static_cast<int>(route) << " k=" << k;
    }
  }
  // 2 k's x 3 shards on each route.
  const common::MetricsRegistry& metrics = warm.metrics();
  EXPECT_EQ(metrics.CounterValue("sweetknn_planner_device_routes_total"), 6.0);
  EXPECT_EQ(metrics.CounterValue("sweetknn_planner_host_routes_total"), 6.0);
  std::filesystem::remove_all(dir);
}

TEST(HotSwapTest, CorruptSnapshotsFallBackToColdBuild) {
  const HostMatrix target = RandomMatrix(90, 4, 3);
  const std::string dir = TempDir("fallback");

  ServiceConfig config;
  config.num_shards = 2;
  {
    KnnService builder(target, config);
    ASSERT_TRUE(builder.SaveSnapshots(dir).ok());
  }
  // Flip one byte of shard 0: the service must notice and cold-build.
  const std::string victim = store::ShardSnapshotPath(dir, 0, 2);
  {
    std::fstream f(victim, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(40);
    char byte = 0;
    f.seekg(40);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x01);
    f.seekp(40);
    f.write(&byte, 1);
  }

  ServiceConfig warm_config = config;
  warm_config.snapshot_dir = dir;
  KnnService service(target, warm_config);
  EXPECT_EQ(service.stats().warm_started_shards, 0u);
  // Correctness is unaffected by the fallback.
  const HostMatrix queries = RandomMatrix(10, 4, 4);
  KnnService reference(target, config);
  EXPECT_TRUE(SameResult(service.JoinBatch(queries, 5).value(),
                         reference.JoinBatch(queries, 5).value()));
  std::filesystem::remove_all(dir);
}

TEST(HotSwapTest, SwapChangesGenerationAndFailedSwapDoesNot) {
  const HostMatrix a = RandomMatrix(150, 5, 5);
  const HostMatrix b = RandomMatrix(210, 5, 6);  // different row count too
  const HostMatrix queries = RandomMatrix(20, 5, 7);
  const int k = 6;
  const std::string dir_a = TempDir("gen_a");
  const std::string dir_b = TempDir("gen_b");
  const std::string dir_wrong = TempDir("gen_wrong");

  ServiceConfig config;
  config.num_shards = 2;
  KnnService service_b(b, config);
  ASSERT_TRUE(service_b.SaveSnapshots(dir_b).ok());
  const KnnResult expected_b = service_b.JoinBatch(queries, k).value();

  KnnService live(a, config);
  ASSERT_TRUE(live.SaveSnapshots(dir_a).ok());
  const KnnResult expected_a = live.JoinBatch(queries, k).value();
  ASSERT_FALSE(SameResult(expected_a, expected_b));

  // Failed swaps: missing directory, wrong shard count — the live index
  // keeps serving generation A.
  EXPECT_FALSE(live.SwapIndex("/nonexistent/snapshots").ok());
  {
    ServiceConfig wrong = config;
    wrong.num_shards = 3;
    KnnService three(b, wrong);
    ASSERT_TRUE(three.SaveSnapshots(dir_wrong).ok());
  }
  const Status wrong_count = live.SwapIndex(dir_wrong);
  ASSERT_FALSE(wrong_count.ok());
  EXPECT_NE(wrong_count.message().find("3 shard snapshots"),
            std::string::npos)
      << wrong_count.message();
  EXPECT_EQ(live.stats().index_swaps, 0u);
  EXPECT_TRUE(SameResult(live.JoinBatch(queries, k).value(), expected_a));

  // A real swap: answers flip to generation B, rows update, swap counted.
  ASSERT_TRUE(live.SwapIndex(dir_b).ok());
  EXPECT_EQ(live.stats().index_swaps, 1u);
  EXPECT_EQ(live.target_rows(), b.rows());
  EXPECT_TRUE(SameResult(live.JoinBatch(queries, k).value(), expected_b));

  // And back.
  ASSERT_TRUE(live.SwapIndex(dir_a).ok());
  EXPECT_TRUE(SameResult(live.JoinBatch(queries, k).value(), expected_a));
  std::filesystem::remove_all(dir_a);
  std::filesystem::remove_all(dir_b);
  std::filesystem::remove_all(dir_wrong);
}

TEST(HotSwapTest, SwapInvalidatesTheResultCache) {
  const HostMatrix a = RandomMatrix(120, 4, 8);
  const HostMatrix b = RandomMatrix(120, 4, 9);
  const std::string dir_b = TempDir("cache_b");

  ServiceConfig config;
  config.num_shards = 2;
  config.cache_capacity = 64;
  {
    KnnService service_b(b, config);
    ASSERT_TRUE(service_b.SaveSnapshots(dir_b).ok());
  }
  KnnService service_b2(b, config);
  KnnService live(a, config);

  const std::vector<float> point(a.row(5), a.row(5) + a.cols());
  const std::vector<Neighbor> before = live.Search(point, 4).value();
  EXPECT_EQ(live.Search(point, 4).value(), before);  // cache hit
  EXPECT_GT(live.stats().cache_hits, 0u);

  ASSERT_TRUE(live.SwapIndex(dir_b).ok());
  const std::vector<Neighbor> after = live.Search(point, 4).value();
  // The swap emptied the cache: the answer comes from generation B, not
  // from a stale cached generation-A entry.
  EXPECT_EQ(after, service_b2.Search(point, 4).value());
  std::filesystem::remove_all(dir_b);
}

TEST(HotSwapTest, ConcurrentClientsNeverSeeMixedGenerations) {
  const HostMatrix a = RandomMatrix(140, 5, 10);
  const HostMatrix b = RandomMatrix(140, 5, 11);
  const HostMatrix queries = RandomMatrix(12, 5, 12);
  const int k = 5;
  const std::string dir_a = TempDir("mix_a");
  const std::string dir_b = TempDir("mix_b");

  ServiceConfig config;
  config.num_shards = 2;
  KnnResult expected_a;
  KnnResult expected_b;
  {
    KnnService sa(a, config);
    ASSERT_TRUE(sa.SaveSnapshots(dir_a).ok());
    expected_a = sa.JoinBatch(queries, k).value();
    KnnService sb(b, config);
    ASSERT_TRUE(sb.SaveSnapshots(dir_b).ok());
    expected_b = sb.JoinBatch(queries, k).value();
  }
  ASSERT_FALSE(SameResult(expected_a, expected_b));

  KnnService live(a, config);
  std::atomic<int> mixed{0};
  std::atomic<int> served{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&] {
      for (int r = 0; r < 25; ++r) {
        const KnnResult got = live.JoinBatch(queries, k).value();
        served.fetch_add(1);
        // Every answer is entirely one generation — A or B, never a
        // row-wise mixture.
        if (!SameResult(got, expected_a) && !SameResult(got, expected_b)) {
          mixed.fetch_add(1);
        }
      }
    });
  }
  constexpr int kSwaps = 6;
  for (int swap = 0; swap < kSwaps; ++swap) {
    ASSERT_TRUE(live.SwapIndex(swap % 2 == 0 ? dir_b : dir_a).ok());
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(mixed.load(), 0);
  EXPECT_EQ(served.load(), 100);
  EXPECT_EQ(live.stats().index_swaps, static_cast<uint64_t>(kSwaps));
  std::filesystem::remove_all(dir_a);
  std::filesystem::remove_all(dir_b);
}

}  // namespace
}  // namespace sweetknn::serve
