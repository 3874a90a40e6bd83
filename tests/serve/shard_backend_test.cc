// ShardHost (core/shard_host.h) is the transport-free unit both
// serving backends host — KnnService's in-process threads and the
// shard-worker processes. These tests pin its contract directly:
// SearchGroup answers merged with core::MergeShardAnswers are
// bit-identical to a single-engine run over the whole target (pristine)
// and to a brute-force oracle over the live point set (mutated), on
// either query route. The cluster differential harness
// (tests/integration/cluster_differential_test.cc) then only has to
// prove the transport moves these answers faithfully.

#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include "baseline/brute_force_cpu.h"
#include "core/shard_host.h"
#include "core/shard_merge.h"
#include "core/ti_knn_gpu.h"
#include "dataset/paper_datasets.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace sweetknn::serve {
namespace {

core::TiOptions ShardOptions(core::Metric metric) {
  core::TiOptions options = core::TiOptions::Sweet();
  options.metric = metric;
  options.sim_threads = 1;  // what both serving backends run per shard
  return options;
}

/// Cold-builds `num_shards` hosts over the same contiguous slices
/// KnnService and the Router carve: rows / S each, the remainder spread
/// over the first shards.
std::vector<std::unique_ptr<core::ShardHost>> BuildShards(
    const HostMatrix& target, int num_shards,
    const core::TiOptions& options) {
  const gpusim::DeviceSpec spec = gpusim::DeviceSpec::TeslaK20c();
  std::vector<std::unique_ptr<core::ShardHost>> shards;
  const size_t per = target.rows() / static_cast<size_t>(num_shards);
  const size_t rem = target.rows() % static_cast<size_t>(num_shards);
  size_t offset = 0;
  for (int s = 0; s < num_shards; ++s) {
    const size_t rows = per + (static_cast<size_t>(s) < rem ? 1 : 0);
    HostMatrix slice(rows, target.cols());
    std::memcpy(slice.mutable_row(0), target.row(offset),
                rows * target.cols() * sizeof(float));
    auto shard = std::make_unique<core::ShardHost>(spec, options);
    shard->offset = static_cast<uint32_t>(offset);
    shard->BuildCold(slice);
    shards.push_back(std::move(shard));
    offset += rows;
  }
  return shards;
}

KnnResult MergedAnswer(
    const std::vector<std::unique_ptr<core::ShardHost>>& shards,
    const HostMatrix& queries, int k, core::QueryRoute route,
    core::Metric metric) {
  std::vector<core::ShardAnswer> answers;
  answers.reserve(shards.size());
  for (const auto& shard : shards) {
    answers.push_back(shard->SearchGroup(queries, k, route, metric));
  }
  return core::MergeShardAnswers(answers, k);
}

void ExpectBitIdentical(const KnnResult& want, const KnnResult& got,
                        const char* what) {
  ASSERT_EQ(want.num_queries(), got.num_queries()) << what;
  ASSERT_EQ(want.k(), got.k()) << what;
  for (size_t q = 0; q < want.num_queries(); ++q) {
    for (int i = 0; i < want.k(); ++i) {
      const Neighbor& w = want.row(q)[i];
      const Neighbor& g = got.row(q)[i];
      ASSERT_TRUE(w.index == g.index &&
                  std::memcmp(&w.distance, &g.distance, sizeof(float)) == 0)
          << what << ": query " << q << " rank " << i << " want ("
          << w.index << ", " << w.distance << ") got (" << g.index << ", "
          << g.distance << ")";
    }
  }
}

/// Live point set keyed by stable id, for the mutated-oracle checks.
using Model = std::map<uint32_t, std::vector<float>>;

KnnResult OracleTopK(const Model& model, size_t dims,
                     const HostMatrix& queries, int k, core::Metric metric) {
  HostMatrix points(model.size(), dims);
  std::vector<uint32_t> ids;
  size_t row = 0;
  for (const auto& [id, coords] : model) {
    std::memcpy(points.mutable_row(row++), coords.data(),
                dims * sizeof(float));
    ids.push_back(id);
  }
  KnnResult expected = baseline::BruteForceCpu(queries, points, k, metric);
  for (size_t q = 0; q < expected.num_queries(); ++q) {
    Neighbor* out = expected.mutable_row(q);
    for (int i = 0; i < k; ++i) {
      if (out[i].index != kInvalidNeighbor) {
        out[i] = {ids[out[i].index], out[i].distance};
      }
    }
  }
  return expected;
}

TEST(ShardBackendTest, PristineMergeMatchesSingleEngine) {
  for (const core::Metric metric :
       {core::Metric::kEuclidean, core::Metric::kManhattan}) {
    const core::TiOptions options = ShardOptions(metric);
    const HostMatrix target =
        testing::ClusteredPoints(120, 5, 3, /*seed=*/1001, 0.08f);
    const HostMatrix queries = testing::UniformPoints(7, 5, /*seed=*/77);
    const int k = 6;

    gpusim::Device dev(gpusim::DeviceSpec::TeslaK20c());
    core::KnnRunStats stats;
    const KnnResult single =
        core::TiKnnEngine::RunOnce(&dev, queries, target, k, options, &stats);

    for (const int num_shards : {1, 2, 3}) {
      const auto shards = BuildShards(target, num_shards, options);
      const KnnResult merged = MergedAnswer(
          shards, queries, k, core::QueryRoute::kDevice, metric);
      ExpectBitIdentical(single, merged, "pristine device route");
      const KnnResult merged_host = MergedAnswer(
          shards, queries, k, core::QueryRoute::kHost, metric);
      ExpectBitIdentical(single, merged_host, "pristine host route");
    }
  }
}

TEST(ShardBackendTest, MutatedMergeMatchesOracle) {
  const core::Metric metric = core::Metric::kEuclidean;
  const core::TiOptions options = ShardOptions(metric);
  const size_t n0 = 60;
  const size_t dims = 4;
  const int num_shards = 3;
  const HostMatrix target =
      testing::ClusteredPoints(n0, dims, 2, /*seed=*/2002, 0.08f);
  auto shards = BuildShards(target, num_shards, options);

  Model model;
  for (size_t i = 0; i < n0; ++i) {
    model[static_cast<uint32_t>(i)] =
        std::vector<float>(target.row(i), target.row(i) + dims);
  }

  // Inserts land on shard id % S with router-allocated ascending ids,
  // removes resolve through Owns/ApplyRemove — the same deterministic
  // placement both serving backends use.
  Rng rng(4242);
  uint32_t next_id = static_cast<uint32_t>(n0);
  for (int i = 0; i < 12; ++i) {
    std::vector<float> point(dims);
    for (float& x : point) x = rng.NextFloat();
    const uint32_t id = next_id++;
    shards[id % num_shards]->delta.Append(id, point.data());
    model[id] = point;
  }
  for (int i = 0; i < 15; ++i) {
    const uint32_t id = static_cast<uint32_t>(rng.NextBounded(next_id));
    bool found = false;
    for (auto& shard : shards) {
      if (shard->Owns(id)) {
        found = shard->ApplyRemove(id);
        break;
      }
    }
    EXPECT_EQ(found, model.erase(id) > 0) << "remove of id " << id;
  }

  const HostMatrix queries = testing::UniformPoints(6, dims, /*seed=*/99);
  // k beyond one shard's live count exercises the padding path too.
  for (const int k : {1, 5, 12}) {
    const KnnResult want = OracleTopK(model, dims, queries, k, metric);
    const KnnResult device = MergedAnswer(
        shards, queries, k, core::QueryRoute::kDevice, metric);
    ExpectBitIdentical(want, device, "mutated device route");
    const KnnResult host = MergedAnswer(
        shards, queries, k, core::QueryRoute::kHost, metric);
    ExpectBitIdentical(want, host, "mutated host route");
  }
}

TEST(ShardBackendTest, CompactionRoundTripKeepsAnswers) {
  const core::Metric metric = core::Metric::kEuclidean;
  const core::TiOptions options = ShardOptions(metric);
  const size_t dims = 3;
  const HostMatrix target =
      testing::ClusteredPoints(40, dims, 2, /*seed=*/3003, 0.08f);
  auto shards = BuildShards(target, 2, options);

  Rng rng(7);
  uint32_t next_id = 40;
  for (int i = 0; i < 8; ++i) {
    std::vector<float> point(dims);
    for (float& x : point) x = rng.NextFloat();
    const uint32_t id = next_id++;
    shards[id % 2]->delta.Append(id, point.data());
  }
  ASSERT_TRUE(shards[0]->ApplyRemove(4));
  ASSERT_TRUE(shards[1]->ApplyRemove(21));

  const HostMatrix queries = testing::UniformPoints(5, dims, /*seed=*/5);
  const int k = 7;
  const KnnResult before =
      MergedAnswer(shards, queries, k, core::QueryRoute::kDevice, metric);

  // The worker's compaction protocol: capture, rebuild, carry forward.
  for (size_t s = 0; s < shards.size(); ++s) {
    core::TiOptions shard_options = options;
    core::CompactionPlan plan;
    core::CaptureCompaction(shards[s].get(), &plan);
    auto fresh = core::RebuildCompacted(
        plan, gpusim::DeviceSpec::TeslaK20c(), shard_options);
    core::CarryOverlayForward(*shards[s], plan, fresh.get());
    shards[s] = std::move(fresh);
  }

  const KnnResult after =
      MergedAnswer(shards, queries, k, core::QueryRoute::kDevice, metric);
  ExpectBitIdentical(before, after, "post-compaction");
}

/// A shard's simulated device before its first device route: no kernel
/// launched, no buffer allocated.
::testing::AssertionResult DeviceUntouched(const core::ShardHost& shard) {
  if (!shard.dev.profile().launches.empty()) {
    return ::testing::AssertionFailure()
           << shard.dev.profile().launches.size() << " launches, the first "
           << shard.dev.profile().launches.front().kernel_name;
  }
  if (shard.dev.free_bytes() != shard.dev.spec().global_mem_bytes) {
    return ::testing::AssertionFailure()
           << shard.dev.spec().global_mem_bytes - shard.dev.free_bytes()
           << " bytes allocated";
  }
  return ::testing::AssertionSuccess();
}

// BuildCold, RestoreBase and CompactNow — the three ways SweetKnnIndex,
// KnnService and the shard workers build a base — cluster on the host
// and leave the simulated device alone; so do host-routed groups. The
// first device-routed group prepares it.
TEST(ShardBackendTest, BuildsLeaveTheDeviceUntouched) {
  const core::TiOptions options = ShardOptions(core::Metric::kEuclidean);
  const gpusim::DeviceSpec spec = gpusim::DeviceSpec::TeslaK20c();
  const HostMatrix base = testing::ClusteredPoints(300, 6, 4, 1201, 0.08f);
  const HostMatrix queries = testing::UniformPoints(4, 6, 1202);

  core::ShardHost cold(spec, options);
  cold.BuildCold(base);
  EXPECT_TRUE(DeviceUntouched(cold)) << "after BuildCold";

  core::ShardHost restored(spec, options);
  restored.RestoreBase(base, cold.image.clustering());
  EXPECT_TRUE(DeviceUntouched(restored)) << "after RestoreBase";

  cold.SearchGroup(queries, 5, core::QueryRoute::kHost,
                   core::Metric::kEuclidean);
  EXPECT_TRUE(DeviceUntouched(cold)) << "after a host-routed group";

  std::vector<float> point(base.row(7), base.row(7) + base.cols());
  cold.delta.Append(300, point.data());
  ASSERT_TRUE(cold.ApplyRemove(3));
  const std::unique_ptr<core::ShardHost> compacted = core::CompactNow(&cold);
  ASSERT_NE(compacted, nullptr);
  EXPECT_TRUE(DeviceUntouched(*compacted)) << "on CompactNow's replacement";

  for (core::ShardHost* shard : {&cold, &restored, compacted.get()}) {
    shard->SearchGroup(queries, 5, core::QueryRoute::kDevice,
                       core::Metric::kEuclidean);
    EXPECT_FALSE(shard->dev.profile().launches.empty());
    EXPECT_LT(shard->dev.free_bytes(), spec.global_mem_bytes);
  }
}

void ExpectSameRunStats(const core::KnnRunStats& eager,
                        const core::KnnRunStats& lazy, const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(std::memcmp(&eager.sim_time_s, &lazy.sim_time_s, sizeof(double)),
            0)
      << "sim_time_s " << eager.sim_time_s << " vs " << lazy.sim_time_s;
  EXPECT_EQ(eager.distance_calcs, lazy.distance_calcs);
  EXPECT_EQ(eager.total_pairs, lazy.total_pairs);
  EXPECT_EQ(eager.landmarks_target, lazy.landmarks_target);
  ASSERT_EQ(eager.profile.launches.size(), lazy.profile.launches.size());
  for (size_t i = 0; i < eager.profile.launches.size(); ++i) {
    const gpusim::LaunchRecord& want = eager.profile.launches[i];
    const gpusim::LaunchRecord& got = lazy.profile.launches[i];
    EXPECT_EQ(want.kernel_name, got.kernel_name) << "launch " << i;
    EXPECT_EQ(std::memcmp(&want.sim_time_s, &got.sim_time_s, sizeof(double)),
              0)
        << "launch " << i << " (" << want.kernel_name << ")";
  }
}

// The preparation a shard defers to its first device route reports
// exactly what an engine prepared at build time reports: the same
// simulated clock, counters and launches, on that group and the next,
// for a cold base (PrepareTarget) and a restored one (RestoreTarget).
TEST(ShardBackendTest, FirstDeviceGroupMatchesAnEagerEngine) {
  const gpusim::DeviceSpec spec = gpusim::DeviceSpec::TeslaK20c();
  const core::TiOptions options = ShardOptions(core::Metric::kEuclidean);
  for (const char* name : {"kegg", "3DNet", "kdd"}) {
    SCOPED_TRACE(name);
    const HostMatrix base =
        dataset::MakePaperDataset(dataset::PaperDatasetByName(name), 0.25)
            .points;
    HostMatrix queries(24, base.cols());
    for (size_t q = 0; q < queries.rows(); ++q) {
      std::memcpy(queries.mutable_row(q), base.row(q * 97 % base.rows()),
                  base.cols() * sizeof(float));
    }
    const int k = 10;

    gpusim::Device cold_dev(spec);
    core::TiKnnEngine cold_engine(&cold_dev, options);
    cold_engine.PrepareTarget(base);
    core::ShardHost cold(spec, options);
    cold.BuildCold(base);

    gpusim::Device restored_dev(spec);
    core::TiKnnEngine restored_engine(&restored_dev, options);
    restored_engine.RestoreTarget(base, cold.image.clustering());
    core::ShardHost restored(spec, options);
    restored.RestoreBase(base, cold.image.clustering());

    const std::pair<core::TiKnnEngine*, core::ShardHost*> pairs[] = {
        {&cold_engine, &cold}, {&restored_engine, &restored}};
    for (const auto& [engine, shard] : pairs) {
      for (const char* group : {"first device group", "second device group"}) {
        core::KnnRunStats want;
        const KnnResult eager = engine->RunQueries(queries, k, &want);
        core::KnnRunStats got;
        const core::ShardAnswer answer =
            shard->SearchGroup(queries, k, core::QueryRoute::kDevice,
                               core::Metric::kEuclidean, 1, &got);
        ExpectBitIdentical(eager, answer.result, group);
        ExpectSameRunStats(want, got, group);
        EXPECT_EQ(std::memcmp(&answer.sim_time_s, &want.sim_time_s,
                              sizeof(double)),
                  0);
      }
    }
  }
}

}  // namespace
}  // namespace sweetknn::serve
