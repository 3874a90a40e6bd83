// Concurrency hardening for the mutable serving layer: clients, mutators,
// forced compactions, and hot swaps all race, and the service must never
// lose a mutation, never serve an answer mixing two index generations,
// and never resurrect a stale cache entry. Runs under TSan via
// tools/check_tsan.sh (the lock-order and epoch protocols in
// knn_service.h are exactly what this suite stresses).

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "baseline/brute_force_cpu.h"
#include "common/knn_result.h"
#include "common/matrix.h"
#include "common/rng.h"
#include "gtest/gtest.h"
#include "serve/knn_service.h"

namespace sweetknn::serve {
namespace {

std::string TempDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// Points uniform in [lo, lo + 1)^dims.
HostMatrix UniformBand(size_t n, size_t dims, uint64_t seed, float lo) {
  Rng rng(seed);
  HostMatrix m(n, dims);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < dims; ++j) {
      m.at(i, j) = lo + rng.NextFloat();
    }
  }
  return m;
}

/// Structural sanity of one answer row: distances ascend, padding only
/// at the tail.
void CheckRowShape(const std::vector<Neighbor>& row) {
  bool padded = false;
  float prev = -1.0f;
  for (const Neighbor& n : row) {
    if (n.index == kInvalidNeighbor) {
      padded = true;
      continue;
    }
    ASSERT_FALSE(padded) << "live neighbor after padding";
    ASSERT_GE(n.distance, prev);
    prev = n.distance;
  }
}

// ---------------------------------------------------------------------------
// Lost-mutation + compaction races
// ---------------------------------------------------------------------------

// Clients, mutators, and forced compactions race; afterwards every
// surviving insert is findable at distance zero, every remove stays
// removed, and the whole service answers bit-identically to a cold
// service over the final live set.
TEST(CompactionRaceTest, MutationsSurviveConcurrentCompactions) {
  constexpr size_t kDims = 4;
  constexpr size_t kInitial = 96;
  const HostMatrix target = UniformBand(kInitial, kDims, 11, 0.0f);

  ServiceConfig config;
  config.num_shards = 2;
  config.max_batch_size = 8;
  config.cache_capacity = 16;
  config.compact_delta_fraction = 0.05;  // compact eagerly
  config.auto_compact = true;
  KnnService service(target, config);

  constexpr int kMutators = 2;
  constexpr int kOpsPerMutator = 60;
  // Each mutator logs its own inserts/removes; ids are never shared
  // across threads, so the union of the logs is the exact final state.
  std::vector<std::vector<std::pair<uint32_t, std::vector<float>>>>
      inserted(kMutators);
  std::vector<std::vector<uint32_t>> removed(kMutators);

  std::atomic<bool> stop{false};
  std::vector<std::thread> finite;  // joined first
  std::vector<std::thread> pollers;  // loop until `stop`
  for (int t = 0; t < kMutators; ++t) {
    finite.emplace_back([&, t] {
      Rng rng(1000 + static_cast<uint64_t>(t));
      for (int op = 0; op < kOpsPerMutator; ++op) {
        if (!inserted[t].empty() && rng.NextBounded(3) == 0) {
          // Remove one of our own earlier inserts (each id at most once).
          const size_t pick = rng.NextBounded(inserted[t].size());
          const uint32_t id = inserted[t][pick].first;
          bool already = false;
          for (uint32_t r : removed[t]) already |= (r == id);
          if (!already) {
            const Result<bool> ok = service.Remove(id);
            ASSERT_TRUE(ok.ok());
            ASSERT_TRUE(ok.value()) << "live id " << id << " not found";
            removed[t].push_back(id);
          }
        } else {
          // A point unique to this insert, far from everything else, so
          // the post-quiesce probe can demand distance exactly zero.
          std::vector<float> point(kDims, 0.0f);
          point[0] = 100.0f + static_cast<float>(t);
          point[1] = static_cast<float>(op);
          const Result<uint32_t> id = service.Insert(point);
          ASSERT_TRUE(id.ok());
          inserted[t].push_back({id.value(), point});
        }
      }
    });
  }
  // Query threads: structural checks only (the index mutates under us).
  for (int t = 0; t < 2; ++t) {
    pollers.emplace_back([&, t] {
      Rng rng(2000 + static_cast<uint64_t>(t));
      while (!stop.load(std::memory_order_acquire)) {
        std::vector<float> q(kDims);
        for (float& x : q) x = rng.NextFloat();
        const Result<std::vector<Neighbor>> answer =
            service.Search(q, 1 + static_cast<int>(rng.NextBounded(6)));
        ASSERT_TRUE(answer.ok());
        CheckRowShape(answer.value());
      }
    });
  }
  // Forced compactions race the background compactor and the mutators.
  finite.emplace_back([&] {
    for (int i = 0; i < 24; ++i) {
      const Status status = service.CompactShard(i % config.num_shards);
      ASSERT_TRUE(status.ok() || status.code() == StatusCode::kUnavailable)
          << status.ToString();
    }
  });
  // Observability must be safe to scrape mid-storm.
  finite.emplace_back([&] {
    for (int i = 0; i < 10; ++i) {
      (void)service.stats();
      (void)service.ExportMetricsJson();
    }
  });

  for (std::thread& t : finite) t.join();
  stop.store(true, std::memory_order_release);
  for (std::thread& t : pollers) t.join();

  // Quiesce: fold everything, then verify no mutation was lost. The
  // background compactor may still be folding a shard; wait it out.
  const auto in_flight = [](const Status& status) {
    return status.code() == StatusCode::kUnavailable &&
           status.message().find("already has a compaction in flight") !=
               std::string::npos;
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  Status compacted = service.CompactAll();
  while (in_flight(compacted) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    compacted = service.CompactAll();
  }
  ASSERT_TRUE(compacted.ok()) << compacted.ToString();

  std::map<uint32_t, std::vector<float>> survivors;
  for (int t = 0; t < kMutators; ++t) {
    for (const auto& [id, point] : inserted[t]) survivors[id] = point;
    for (uint32_t id : removed[t]) survivors.erase(id);
  }
  EXPECT_EQ(service.target_rows(), kInitial + survivors.size());
  for (const auto& [id, point] : survivors) {
    const Result<std::vector<Neighbor>> probe = service.Search(point, 1);
    ASSERT_TRUE(probe.ok());
    ASSERT_EQ(probe.value()[0].index, id) << "insert " << id << " lost";
    ASSERT_EQ(probe.value()[0].distance, 0.0f);
  }
  for (int t = 0; t < kMutators; ++t) {
    for (uint32_t id : removed[t]) {
      std::vector<float> point;
      for (const auto& [iid, p] : inserted[t]) {
        if (iid == id) point = p;
      }
      const Result<std::vector<Neighbor>> probe = service.Search(point, 3);
      ASSERT_TRUE(probe.ok());
      for (const Neighbor& n : probe.value()) {
        ASSERT_NE(n.index, id) << "removed id " << id << " resurrected";
      }
    }
  }

  // Full differential: bit-identical to a cold service over the final
  // live set in ascending stable-id order.
  HostMatrix live(kInitial + survivors.size(), kDims);
  std::vector<uint32_t> ids;
  for (size_t i = 0; i < kInitial; ++i) {
    std::memcpy(live.mutable_row(i), target.row(i), kDims * sizeof(float));
    ids.push_back(static_cast<uint32_t>(i));
  }
  size_t row = kInitial;
  for (const auto& [id, point] : survivors) {
    std::memcpy(live.mutable_row(row++), point.data(),
                kDims * sizeof(float));
    ids.push_back(id);
  }
  ServiceConfig cold_config = config;
  cold_config.auto_compact = false;
  KnnService cold(live, cold_config);
  const HostMatrix queries = UniformBand(12, kDims, 99, 0.0f);
  constexpr int kK = 5;
  const KnnResult got = service.JoinBatch(queries, kK).value();
  KnnResult want = cold.JoinBatch(queries, kK).value();
  for (size_t q = 0; q < want.num_queries(); ++q) {
    Neighbor* r = want.mutable_row(q);
    for (int i = 0; i < kK; ++i) {
      if (r[i].index != kInvalidNeighbor) r[i].index = ids[r[i].index];
    }
  }
  for (size_t q = 0; q < want.num_queries(); ++q) {
    ASSERT_EQ(std::memcmp(want.row(q), got.row(q), kK * sizeof(Neighbor)),
              0)
        << "mutated service diverged from cold rebuild at query " << q;
  }

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.delta_points, 0u);  // CompactAll drained the overlays
  EXPECT_EQ(stats.tombstones, 0u);
  EXPECT_GE(stats.compactions, 1u);
}

// ---------------------------------------------------------------------------
// Swap vs compaction vs clients: generation isolation
// ---------------------------------------------------------------------------

// Two snapshot generations with disjoint coordinate bands — A (with its
// own overlay) lives in [0,2)^d, B in [10,12)^d — are hot-swapped back
// and forth while clients query and a compactor forces rebuilds. Every
// answer must come entirely from one generation: near-band and far-band
// distances never mix within a row. A compaction whose shard was swapped
// away must abort cleanly (counted, not installed).
TEST(CompactionRaceTest, SwapsNeverMixGenerationsWithCompactionsInFlight) {
  constexpr size_t kDims = 3;
  ServiceConfig config;
  config.num_shards = 2;
  config.max_batch_size = 8;
  config.compact_delta_fraction = 0.5;
  config.auto_compact = false;  // compactions forced explicitly below

  // Generation A: base + a mutation overlay (so swaps also adopt and
  // replace pending overlays wholesale).
  const std::string dir_a = TempDir("race_gen_a");
  {
    KnnService a(UniformBand(60, kDims, 21, 0.0f), config);
    for (int i = 0; i < 12; ++i) {
      std::vector<float> p(kDims, 1.5f);
      p[0] = 1.0f + 0.01f * static_cast<float>(i);
      ASSERT_TRUE(a.Insert(p).ok());
    }
    ASSERT_TRUE(a.Remove(3).value());
    ASSERT_TRUE(a.Remove(33).value());
    ASSERT_TRUE(a.SaveSnapshots(dir_a).ok());
  }
  // Generation B: far band, pristine.
  const std::string dir_b = TempDir("race_gen_b");
  {
    KnnService b(UniformBand(60, kDims, 22, 10.0f), config);
    ASSERT_TRUE(b.SaveSnapshots(dir_b).ok());
  }

  Result<std::unique_ptr<KnnService>> adopted =
      KnnService::FromSnapshots(dir_a, config);
  ASSERT_TRUE(adopted.ok()) << adopted.status().ToString();
  KnnService& live = *adopted.value();

  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&, t] {
      Rng rng(3000 + static_cast<uint64_t>(t));
      while (!stop.load(std::memory_order_acquire)) {
        std::vector<float> q(kDims);
        for (float& x : q) x = rng.NextFloat();  // near band A
        const Result<std::vector<Neighbor>> answer = live.Search(q, 4);
        ASSERT_TRUE(answer.ok());
        // Band A points are within ~4 of the query; band B at least ~14.
        bool near = false;
        bool far = false;
        for (const Neighbor& n : answer.value()) {
          if (n.index == kInvalidNeighbor) continue;
          (n.distance < 7.0f ? near : far) = true;
        }
        ASSERT_FALSE(near && far) << "answer mixed two generations";
      }
    });
  }
  std::thread compactor([&] {
    Rng rng(4000);
    while (!stop.load(std::memory_order_acquire)) {
      const Status status = live.CompactShard(
          static_cast<int>(rng.NextBounded(config.num_shards)));
      ASSERT_TRUE(status.ok() || status.code() == StatusCode::kUnavailable)
          << status.ToString();
    }
  });

  constexpr int kSwaps = 8;
  for (int swap = 0; swap < kSwaps; ++swap) {
    ASSERT_TRUE(live.SwapIndex(swap % 2 == 0 ? dir_b : dir_a).ok());
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : clients) t.join();
  compactor.join();

  // Final generation is A (kSwaps even): its answers must be exact for
  // the adopted overlay's live set — nothing the concurrent compactions
  // did may have leaked across the swaps.
  std::map<uint32_t, std::vector<float>> model;
  {
    const HostMatrix base = UniformBand(60, kDims, 21, 0.0f);
    for (size_t i = 0; i < base.rows(); ++i) {
      model[static_cast<uint32_t>(i)] = std::vector<float>(
          base.row(i), base.row(i) + kDims);
    }
    for (int i = 0; i < 12; ++i) {
      std::vector<float> p(kDims, 1.5f);
      p[0] = 1.0f + 0.01f * static_cast<float>(i);
      model[static_cast<uint32_t>(60 + i)] = p;
    }
    model.erase(3);
    model.erase(33);
  }
  EXPECT_EQ(live.target_rows(), model.size());
  HostMatrix points(model.size(), kDims);
  std::vector<uint32_t> ids;
  size_t row = 0;
  for (const auto& [id, p] : model) {
    std::memcpy(points.mutable_row(row++), p.data(), kDims * sizeof(float));
    ids.push_back(id);
  }
  const HostMatrix queries = UniformBand(10, kDims, 77, 0.0f);
  constexpr int kK = 6;
  KnnResult want = baseline::BruteForceCpu(queries, points, kK);
  for (size_t q = 0; q < want.num_queries(); ++q) {
    Neighbor* r = want.mutable_row(q);
    for (int i = 0; i < kK; ++i) {
      if (r[i].index != kInvalidNeighbor) r[i].index = ids[r[i].index];
    }
  }
  const KnnResult got = live.JoinBatch(queries, kK).value();
  for (size_t q = 0; q < want.num_queries(); ++q) {
    for (int i = 0; i < kK; ++i) {
      ASSERT_EQ(want.row(q)[i].index, got.row(q)[i].index)
          << "query " << q << " rank " << i;
      ASSERT_EQ(want.row(q)[i].distance, got.row(q)[i].distance)
          << "query " << q << " rank " << i;
    }
  }

  std::filesystem::remove_all(dir_a);
  std::filesystem::remove_all(dir_b);
}

// ---------------------------------------------------------------------------
// Cache staleness under mutation
// ---------------------------------------------------------------------------

// The swap-staleness suite proves the cache guard for SwapIndex; this is
// the same interleaving for a mutation: an Insert that completes after a
// Search computed its answer (but before the cache insert) must poison
// that cache entry, or the service would keep serving the pre-insert
// neighbor forever.
TEST(CompactionRaceTest, MutationBetweenComputeAndCacheInsertIsNotCached) {
  constexpr size_t kDims = 2;
  HostMatrix target(2, kDims);
  target.at(0, 0) = 5.0f;
  target.at(0, 1) = 0.0f;
  target.at(1, 0) = -5.0f;
  target.at(1, 1) = 0.0f;

  ServiceConfig config;
  config.num_shards = 1;
  config.cache_capacity = 4;
  config.auto_compact = false;
  KnnService service(target, config);

  const std::vector<float> query = {0.0f, 1.0f};
  std::atomic<bool> fired{false};
  service.SetPreCacheInsertHookForTest([&] {
    if (fired.exchange(true)) return;
    // Lands exactly between the answer computation and the cache
    // insert: a point right at the query.
    ASSERT_TRUE(service.Insert(query).ok());
  });

  const Result<std::vector<Neighbor>> first = service.Search(query, 1);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value()[0].index, 0u);  // pre-insert nearest

  // If the stale answer had been cached, this would return id 0 again.
  const Result<std::vector<Neighbor>> second = service.Search(query, 1);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value()[0].index, 2u);
  EXPECT_EQ(second.value()[0].distance, 0.0f);
  EXPECT_GE(service.stats().cache_stale_drops, 1u);
}

}  // namespace
}  // namespace sweetknn::serve
