// Offline jobs on both transports: radius search, similarity self-join,
// and exact kNN-graph construction as long-running jobs with progress,
// cancellation, and chunked execution through the same admission queue
// the point lookups use. The job engine lives in the serving front-end
// both backends share, so every case runs against the in-process
// KnnService and against a two-worker Router cluster. Every modality is
// checked against an O(n^2) oracle over the backend's live set; the
// lifecycle tests pin down the poll/cancel/take state machine
// docs/modalities.md documents.
//
// The cluster legs need the worker binary; they skip unless SWEETKNN_CLI
// points at the sweetknn_cli executable (ctest exports it). Runs under
// TSan via tools/check_tsan.sh.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/range_result.h"
#include "gtest/gtest.h"
#include "serve/knn_service.h"
#include "serve/router.h"
#include "simd/simd_kernels.h"
#include "test_util.h"

namespace sweetknn {
namespace {

using testing::ClusteredPoints;

/// O(n^2) closed-ball oracle through the canonical distance kernel.
std::vector<Neighbor> OracleRange(const float* query,
                                  const std::vector<uint32_t>& ids,
                                  const HostMatrix& points, float radius) {
  std::vector<float> dists(points.rows());
  if (points.rows() > 0) {
    simd::QueryBlockDistances(query, points.data(), points.rows(),
                              points.cols(), simd::Dist::kEuclidean,
                              dists.data());
  }
  std::vector<Neighbor> out;
  for (size_t i = 0; i < points.rows(); ++i) {
    if (dists[i] <= radius) out.push_back(Neighbor{ids[i], dists[i]});
  }
  std::sort(out.begin(), out.end(), NeighborLess);
  return out;
}

void ExpectRowEquals(const RangeResult& result, size_t q,
                     const std::vector<Neighbor>& expected) {
  ASSERT_EQ(result.count(q), expected.size()) << "q=" << q;
  const Neighbor* row = result.begin(q);
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(row[i].index, expected[i].index) << "q=" << q << " i=" << i;
    EXPECT_EQ(row[i].distance, expected[i].distance)
        << "q=" << q << " i=" << i;
  }
}

serve::ServiceConfig SmallConfig(int shards) {
  serve::ServiceConfig config;
  config.num_shards = shards;
  return config;
}

/// Inserts every row of `rows`; returns their stable ids in row order.
template <typename Backend>
std::vector<uint32_t> InsertRows(Backend* backend, const HostMatrix& rows) {
  std::vector<uint32_t> ids;
  for (size_t r = 0; r < rows.rows(); ++r) {
    ids.push_back(
        backend->Insert(std::vector<float>(rows.row(r),
                                           rows.row(r) + rows.cols()))
            .value());
  }
  return ids;
}

template <typename Backend>
class JobTest : public ::testing::Test {
 protected:
  static constexpr bool kCluster = std::is_same_v<Backend, serve::Router>;

  void SetUp() override {
    if (kCluster && std::getenv("SWEETKNN_CLI") == nullptr) {
      GTEST_SKIP() << "SWEETKNN_CLI not set; the cluster leg needs the CLI";
    }
  }

  /// The backend over `target` with `shards` shards: the in-process
  /// service, or a two-worker cluster (nullptr if it failed to start).
  static std::unique_ptr<Backend> Make(const HostMatrix& target, int shards) {
    if constexpr (kCluster) {
      serve::RouterConfig config;
      config.service = SmallConfig(shards);
      config.num_workers = 2;
      config.worker_binary = std::getenv("SWEETKNN_CLI");
      Result<std::unique_ptr<serve::Router>> started =
          serve::Router::Start(target, config);
      EXPECT_TRUE(started.ok()) << started.status().ToString();
      return started.ok() ? std::move(started).value() : nullptr;
    } else {
      return std::make_unique<serve::KnnService>(target, SmallConfig(shards));
    }
  }
};

using Backends = ::testing::Types<serve::KnnService, serve::Router>;
TYPED_TEST_SUITE(JobTest, Backends);

#define MAKE_BACKEND(var, target, shards)                         \
  const auto var##_owner = TestFixture::Make(target, shards);     \
  ASSERT_NE(var##_owner, nullptr);                                \
  auto& var = *var##_owner

TYPED_TEST(JobTest, RadiusSearchMatchesOracle) {
  const HostMatrix target = ClusteredPoints(300, 6, 5, 9001);
  const HostMatrix queries = ClusteredPoints(40, 6, 3, 9002);
  MAKE_BACKEND(service, target, 3);
  std::vector<uint32_t> ids(target.rows());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<uint32_t>(i);

  for (const float radius : {0.0f, 0.4f, 1.5f, 100.0f}) {
    const RangeResult got = service.RadiusSearch(queries, radius).value();
    ASSERT_EQ(got.num_queries(), queries.rows());
    for (size_t q = 0; q < queries.rows(); ++q) {
      ExpectRowEquals(got, q, OracleRange(queries.row(q), ids, target,
                                          radius));
    }
  }
  const serve::ServiceStats stats = service.stats();
  EXPECT_GT(stats.range_groups, 0u);
  EXPECT_EQ(stats.range_queries, 4 * queries.rows());
}

TYPED_TEST(JobTest, RadiusSearchSeesMutations) {
  const HostMatrix target = ClusteredPoints(200, 5, 4, 9003);
  const HostMatrix queries = ClusteredPoints(16, 5, 2, 9004);
  MAKE_BACKEND(service, target, 2);

  // Live set = base minus a few removes plus a few inserts.
  std::vector<uint32_t> ids;
  HostMatrix extra = ClusteredPoints(10, 5, 2, 9005);
  const std::vector<uint32_t> fresh = InsertRows(&service, extra);
  ASSERT_TRUE(service.Remove(3).value());
  ASSERT_TRUE(service.Remove(77).value());
  ASSERT_TRUE(service.Remove(fresh[4]).value());

  std::vector<std::vector<float>> live_rows;
  for (size_t i = 0; i < target.rows(); ++i) {
    if (i == 3 || i == 77) continue;
    ids.push_back(static_cast<uint32_t>(i));
    live_rows.emplace_back(target.row(i), target.row(i) + target.cols());
  }
  for (size_t i = 0; i < extra.rows(); ++i) {
    if (fresh[i] == fresh[4]) continue;
    ids.push_back(fresh[i]);
    live_rows.emplace_back(extra.row(i), extra.row(i) + extra.cols());
  }
  HostMatrix live(live_rows.size(), target.cols());
  for (size_t i = 0; i < live_rows.size(); ++i) {
    std::copy(live_rows[i].begin(), live_rows[i].end(), live.mutable_row(i));
  }

  const float radius = 1.2f;
  const RangeResult got = service.RadiusSearch(queries, radius).value();
  for (size_t q = 0; q < queries.rows(); ++q) {
    ExpectRowEquals(got, q, OracleRange(queries.row(q), ids, live, radius));
  }
}

TYPED_TEST(JobTest, SelfJoinMatchesOracle) {
  const HostMatrix target = ClusteredPoints(180, 4, 4, 9006);
  MAKE_BACKEND(service, target, 3);
  ASSERT_TRUE(service.Remove(10).value());
  std::vector<float> extra_point(target.row(5), target.row(5) + 4);
  const uint32_t dup_id = service.Insert(extra_point).value();

  const float radius = 0.9f;
  const std::vector<SelfJoinPair> got = service.SelfJoin(radius).value();

  // Oracle: every unordered live pair within the closed ball, once.
  std::vector<uint32_t> ids;
  std::vector<const float*> rows;
  for (size_t i = 0; i < target.rows(); ++i) {
    if (i == 10) continue;
    ids.push_back(static_cast<uint32_t>(i));
    rows.push_back(target.row(i));
  }
  ids.push_back(dup_id);
  rows.push_back(extra_point.data());
  std::vector<SelfJoinPair> expected;
  for (size_t a = 0; a < ids.size(); ++a) {
    std::vector<float> buf(4);
    for (size_t b = 0; b < ids.size(); ++b) {
      if (ids[b] <= ids[a]) continue;
      float d = 0.0f;
      simd::QueryBlockDistances(rows[a], rows[b], 1, 4,
                                simd::Dist::kEuclidean, &d);
      if (d <= radius) expected.push_back(SelfJoinPair{ids[a], ids[b], d});
    }
  }
  auto pair_less = [](const SelfJoinPair& x, const SelfJoinPair& y) {
    if (x.a != y.a) return x.a < y.a;
    return NeighborLess(Neighbor{x.b, x.distance},
                        Neighbor{y.b, y.distance});
  };
  std::sort(expected.begin(), expected.end(), pair_less);
  std::vector<SelfJoinPair> sorted_got = got;
  std::sort(sorted_got.begin(), sorted_got.end(), pair_less);
  ASSERT_EQ(sorted_got.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_TRUE(sorted_got[i] == expected[i]) << "pair " << i;
  }
  // The duplicate of row 5 must appear at distance 0 against it.
  const bool has_dup = std::any_of(
      sorted_got.begin(), sorted_got.end(), [&](const SelfJoinPair& p) {
        return p.a == 5 && p.b == dup_id && p.distance == 0.0f;
      });
  EXPECT_TRUE(has_dup);
}

TYPED_TEST(JobTest, KnnGraphMatchesOracle) {
  const HostMatrix target = ClusteredPoints(150, 6, 4, 9007);
  MAKE_BACKEND(service, target, 2);
  ASSERT_TRUE(service.Remove(42).value());
  constexpr int kNeighbors = 5;

  const serve::JobOutput out = service.KnnGraph(kNeighbors).value();
  ASSERT_EQ(out.kind, serve::JobKind::kKnnGraph);
  ASSERT_EQ(out.query_ids.size(), target.rows() - 1);
  ASSERT_EQ(out.graph.num_queries(), target.rows() - 1);

  std::vector<uint32_t> ids;
  std::vector<const float*> rows;
  for (size_t i = 0; i < target.rows(); ++i) {
    if (i == 42) continue;
    ids.push_back(static_cast<uint32_t>(i));
    rows.push_back(target.row(i));
  }
  for (size_t q = 0; q < ids.size(); ++q) {
    ASSERT_EQ(out.query_ids[q], ids[q]);  // ascending id order
    std::vector<Neighbor> all;
    for (size_t b = 0; b < ids.size(); ++b) {
      if (b == q) continue;  // the graph excludes the point itself
      float d = 0.0f;
      simd::QueryBlockDistances(rows[q], rows[b], 1, target.cols(),
                                simd::Dist::kEuclidean, &d);
      all.push_back(Neighbor{ids[b], d});
    }
    std::sort(all.begin(), all.end(), NeighborLess);
    const Neighbor* row = out.graph.row(q);
    for (int i = 0; i < kNeighbors; ++i) {
      ASSERT_EQ(row[i].index, all[i].index) << "q=" << q << " i=" << i;
      ASSERT_EQ(row[i].distance, all[i].distance)
          << "q=" << q << " i=" << i;
    }
  }
}

TYPED_TEST(JobTest, JobLifecyclePollAndTake) {
  const HostMatrix target = ClusteredPoints(120, 4, 3, 9008);
  MAKE_BACKEND(service, target, 2);

  serve::JobSpec spec;
  spec.kind = serve::JobKind::kRadiusSearch;
  spec.radius = 1.0f;
  spec.queries = ClusteredPoints(30, 4, 2, 9009);
  spec.chunk_rows = 4;
  const uint64_t id = service.SubmitJob(spec).value();

  // Poll to completion: progress is monotone and lands on total_rows.
  uint64_t last_done = 0;
  serve::JobProgress progress;
  for (;;) {
    progress = service.PollJob(id).value();
    EXPECT_GE(progress.done_rows, last_done);
    last_done = progress.done_rows;
    if (progress.state == serve::JobState::kDone) break;
    ASSERT_TRUE(progress.state == serve::JobState::kPending ||
                progress.state == serve::JobState::kRunning);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(progress.total_rows, 30u);
  EXPECT_EQ(progress.done_rows, 30u);

  const serve::JobOutput out = service.TakeJobResult(id).value();
  EXPECT_EQ(out.kind, serve::JobKind::kRadiusSearch);
  EXPECT_EQ(out.range.num_queries(), 30u);
  // The job's chunked answer is bit-identical to the one-shot call.
  const RangeResult direct =
      service.RadiusSearch(spec.queries, spec.radius).value();
  EXPECT_TRUE(BitIdentical(out.range, direct));

  // Taking released the slot: the id is gone.
  EXPECT_EQ(service.TakeJobResult(id).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(service.PollJob(id).status().code(), StatusCode::kNotFound);

  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.jobs_submitted, 1u);
  EXPECT_EQ(stats.jobs_completed, 1u);
}

TYPED_TEST(JobTest, CancelMidJobKeepsServingLookups) {
  const HostMatrix target = ClusteredPoints(400, 6, 5, 9010);
  MAKE_BACKEND(service, target, 2);

  serve::JobSpec spec;
  spec.kind = serve::JobKind::kSelfJoin;
  spec.radius = 2.0f;
  spec.chunk_rows = 1;  // 400 chunk boundaries to cancel at
  const uint64_t id = service.SubmitJob(spec).value();

  // Point lookups keep flowing while the job runs and after the cancel.
  // The client looks up before it first reads `stop`: the thread may only
  // start after the main thread has already set it.
  std::atomic<bool> stop{false};
  std::atomic<int> lookups{0};
  std::thread client([&] {
    const HostMatrix probe = ClusteredPoints(4, 6, 2, 9011);
    do {
      ASSERT_TRUE(service.JoinBatch(probe, 3).ok());
      lookups.fetch_add(1);
    } while (!stop.load());
  });

  // Wait for real progress, then cancel mid-job.
  for (;;) {
    const serve::JobProgress p = service.PollJob(id).value();
    if (p.done_rows >= 2 || p.state != serve::JobState::kRunning) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(service.CancelJob(id).ok());
  serve::JobProgress progress;
  for (;;) {
    progress = service.PollJob(id).value();
    if (progress.state != serve::JobState::kPending &&
        progress.state != serve::JobState::kRunning) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(progress.state, serve::JobState::kCancelled);
  EXPECT_LT(progress.done_rows, 400u);

  // The service still answers lookups after the cancellation.
  const HostMatrix probe = ClusteredPoints(4, 6, 2, 9012);
  EXPECT_TRUE(service.JoinBatch(probe, 3).ok());
  stop.store(true);
  client.join();
  EXPECT_GT(lookups.load(), 0);

  // Reaping a cancelled job reports why and releases its state.
  EXPECT_EQ(service.TakeJobResult(id).status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(service.PollJob(id).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(service.stats().jobs_cancelled, 1u);
}

TYPED_TEST(JobTest, ShutdownFailsPendingJobs) {
  const HostMatrix target = ClusteredPoints(100, 4, 3, 9013);
  const auto service = TestFixture::Make(target, 2);
  ASSERT_NE(service, nullptr);

  std::vector<uint64_t> ids;
  for (int i = 0; i < 3; ++i) {
    serve::JobSpec spec;
    spec.kind = serve::JobKind::kSelfJoin;
    spec.radius = 1.0f;
    spec.chunk_rows = 1;
    ids.push_back(service->SubmitJob(spec).value());
  }
  service->Shutdown();

  // Every job is terminal; none may be stuck pending/running.
  int failed = 0;
  for (const uint64_t id : ids) {
    const serve::JobProgress p = service->PollJob(id).value();
    EXPECT_TRUE(p.state == serve::JobState::kDone ||
                p.state == serve::JobState::kFailed ||
                p.state == serve::JobState::kCancelled)
        << "job " << id;
    if (p.state == serve::JobState::kFailed) ++failed;
  }
  EXPECT_GT(failed, 0);  // at least the never-started tail

  // New submissions are rejected after shutdown.
  serve::JobSpec late;
  late.kind = serve::JobKind::kKnnGraph;
  late.k = 3;
  EXPECT_EQ(service->SubmitJob(late).status().code(),
            StatusCode::kUnavailable);
}

TYPED_TEST(JobTest, ValidationAndUnknownIds) {
  const HostMatrix target = ClusteredPoints(60, 4, 2, 9014);
  MAKE_BACKEND(service, target, 1);

  serve::JobSpec spec;
  spec.kind = serve::JobKind::kRadiusSearch;
  spec.radius = 1.0f;
  // No query rows.
  EXPECT_EQ(service.SubmitJob(spec).status().code(),
            StatusCode::kInvalidArgument);
  // Wrong dims.
  spec.queries = ClusteredPoints(4, 7, 2, 9015);
  EXPECT_EQ(service.SubmitJob(spec).status().code(),
            StatusCode::kInvalidArgument);
  // Negative radius.
  spec.queries = ClusteredPoints(4, 4, 2, 9016);
  spec.radius = -1.0f;
  EXPECT_EQ(service.SubmitJob(spec).status().code(),
            StatusCode::kInvalidArgument);
  // k <= 0 for a graph job.
  serve::JobSpec graph;
  graph.kind = serve::JobKind::kKnnGraph;
  graph.k = 0;
  EXPECT_EQ(service.SubmitJob(graph).status().code(),
            StatusCode::kInvalidArgument);

  // Unknown tenant.
  serve::JobSpec elsewhere;
  elsewhere.kind = serve::JobKind::kSelfJoin;
  elsewhere.tenant = "no-such-index";
  EXPECT_EQ(service.SubmitJob(elsewhere).status().code(),
            StatusCode::kNotFound);
  // The synchronous wrappers validate through the same engine: a clean
  // status, never an abort.
  EXPECT_EQ(service.SelfJoin(-1.0f).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.KnnGraph(0).status().code(),
            StatusCode::kInvalidArgument);

  EXPECT_EQ(service.PollJob(999).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(service.CancelJob(999).code(), StatusCode::kNotFound);
  EXPECT_EQ(service.TakeJobResult(999).status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace sweetknn
