#include "core/clustering.h"

#include <cmath>
#include <cstring>
#include <set>
#include <string>

#include "gtest/gtest.h"
#include "test_util.h"

namespace sweetknn::core {
namespace {

using testing::ClusteredPoints;

class ClusteringTest : public ::testing::Test {
 protected:
  ClusteringTest() : dev_(gpusim::DeviceSpec::TeslaK20c()) {}
  gpusim::Device dev_;
};

TEST_F(ClusteringTest, DefaultLandmarkCountFollowsRule) {
  EXPECT_EQ(DefaultLandmarkCount(10000, 1ull << 30), 300);
  EXPECT_EQ(DefaultLandmarkCount(100, 1ull << 30), 30);
  EXPECT_EQ(DefaultLandmarkCount(1, 1ull << 30), 1);
}

TEST_F(ClusteringTest, DefaultLandmarkCountCappedByMemory) {
  // With only 32 KiB free, 8 * m^2 <= 8 KiB -> m <= 32.
  EXPECT_LE(DefaultLandmarkCount(1'000'000, 32 * 1024), 32);
}

TEST_F(ClusteringTest, SelectLandmarksReturnsDistinctValidIds) {
  const HostMatrix m = ClusteredPoints(200, 4, 4, 91);
  const DevicePoints pts =
      DevicePoints::Upload(&dev_, m, PointLayout::kRowMajor, "p");
  const auto ids = SelectLandmarks(&dev_, pts, 40, 10, 7, 256);
  EXPECT_EQ(ids.size(), 40u);
  std::set<uint32_t> unique(ids.begin(), ids.end());
  EXPECT_EQ(unique.size(), 40u);
  for (const uint32_t id : ids) EXPECT_LT(id, 200u);
}

TEST_F(ClusteringTest, QueryAssignmentIsNearestCenter) {
  const HostMatrix m = ClusteredPoints(300, 5, 6, 92);
  const DevicePoints pts =
      DevicePoints::Upload(&dev_, m, PointLayout::kRowMajor, "p");
  ClusteringConfig cfg;
  const QueryClustering qc = BuildQueryClustering(&dev_, pts, cfg);
  ASSERT_GT(qc.num_clusters, 1);
  for (size_t p = 0; p < 300; ++p) {
    const uint32_t assigned = qc.assignment[p];
    const float assigned_dist = AccessorDistance(
        pts.HostPoint(p), qc.centers.HostPoint(assigned), 5);
    for (int c = 0; c < qc.num_clusters; ++c) {
      const float d = AccessorDistance(pts.HostPoint(p),
                                       qc.centers.HostPoint(c), 5);
      EXPECT_GE(d, assigned_dist - 1e-5f)
          << "point " << p << " closer to center " << c;
    }
  }
}

TEST_F(ClusteringTest, QueryMaxDistCoversAllMembers) {
  const HostMatrix m = ClusteredPoints(250, 4, 5, 93);
  const DevicePoints pts =
      DevicePoints::Upload(&dev_, m, PointLayout::kRowMajor, "p");
  ClusteringConfig cfg;
  const QueryClustering qc = BuildQueryClustering(&dev_, pts, cfg);
  for (size_t p = 0; p < 250; ++p) {
    const uint32_t c = qc.assignment[p];
    const float d =
        AccessorDistance(pts.HostPoint(p), qc.centers.HostPoint(c), 4);
    EXPECT_LE(d, qc.max_dist[c] + 1e-5f);
  }
}

TEST_F(ClusteringTest, QueryMemberListsPartitionTheSet) {
  const HostMatrix m = ClusteredPoints(180, 3, 4, 94);
  const DevicePoints pts =
      DevicePoints::Upload(&dev_, m, PointLayout::kRowMajor, "p");
  ClusteringConfig cfg;
  const QueryClustering qc = BuildQueryClustering(&dev_, pts, cfg);
  std::set<uint32_t> seen;
  for (int c = 0; c < qc.num_clusters; ++c) {
    for (uint32_t i = qc.member_offsets[c]; i < qc.member_offsets[c + 1];
         ++i) {
      const uint32_t member = qc.members[i];
      EXPECT_TRUE(seen.insert(member).second) << "duplicate " << member;
      EXPECT_EQ(qc.assignment[member], static_cast<uint32_t>(c));
    }
  }
  EXPECT_EQ(seen.size(), 180u);
}

TEST_F(ClusteringTest, TargetMembersSortedDescendingByCenterDistance) {
  const HostMatrix m = ClusteredPoints(260, 6, 5, 95);
  const DevicePoints pts =
      DevicePoints::Upload(&dev_, m, PointLayout::kRowMajor, "p");
  ClusteringConfig cfg;
  const TargetClustering tc = BuildTargetClustering(&dev_, pts, cfg);
  std::set<uint32_t> seen;
  for (int c = 0; c < tc.num_clusters; ++c) {
    float prev = std::numeric_limits<float>::infinity();
    for (uint32_t i = tc.member_offsets[c]; i < tc.member_offsets[c + 1];
         ++i) {
      EXPECT_LE(tc.member_dists[i], prev + 1e-6f);
      prev = tc.member_dists[i];
      // Stored distance matches the actual distance to the center.
      const float actual = AccessorDistance(
          pts.HostPoint(tc.member_ids[i]), tc.centers.HostPoint(c), 6);
      EXPECT_NEAR(tc.member_dists[i], actual, 1e-5f);
      seen.insert(tc.member_ids[i]);
    }
    // First member (if any) realizes the cluster radius.
    if (tc.member_offsets[c + 1] > tc.member_offsets[c]) {
      EXPECT_NEAR(tc.member_dists[tc.member_offsets[c]], tc.max_dist[c],
                  1e-5f);
    }
  }
  EXPECT_EQ(seen.size(), 260u);
}

TEST_F(ClusteringTest, LandmarkOverrideIsHonored) {
  const HostMatrix m = ClusteredPoints(400, 3, 4, 96);
  const DevicePoints pts =
      DevicePoints::Upload(&dev_, m, PointLayout::kRowMajor, "p");
  ClusteringConfig cfg;
  cfg.landmarks_override = 17;
  const TargetClustering tc = BuildTargetClustering(&dev_, pts, cfg);
  EXPECT_EQ(tc.num_clusters, 17);
}

TEST_F(ClusteringTest, SelfJoinViewMatchesIndependentBuild) {
  const HostMatrix m = ClusteredPoints(220, 5, 4, 97);
  const DevicePoints pts =
      DevicePoints::Upload(&dev_, m, PointLayout::kRowMajor, "p");
  ClusteringConfig cfg;
  const TargetClustering tc = BuildTargetClustering(&dev_, pts, cfg);
  const QueryClustering qc = QueryClusteringFromTarget(&dev_, pts, tc);
  EXPECT_EQ(qc.num_clusters, tc.num_clusters);
  for (size_t p = 0; p < 220; ++p) {
    EXPECT_EQ(qc.assignment[p], tc.assignment[p]);
  }
  for (int c = 0; c < qc.num_clusters; ++c) {
    EXPECT_EQ(qc.max_dist[c], tc.max_dist[c]);
    EXPECT_EQ(qc.member_offsets[c], tc.member_offsets[c]);
  }
  for (size_t j = 0; j < 5; ++j) {
    EXPECT_EQ(qc.centers.At(2, j), tc.centers.At(2, j));
  }
}

// ---------------------------------------------------------------------------
// The host Step 1 (BuildTargetClusteringOnHost) against the simulated one:
// a ShardHost builds its image from the host clustering and checks it
// against the device's on its first device route, so the two must agree
// byte for byte on every shape, metric, layout and option.
// ---------------------------------------------------------------------------

/// Step 1 as a shard's first device route runs it: upload to a fresh
/// device, cluster, download.
TargetClusteringHost DeviceStep1(const HostMatrix& target, Metric metric,
                                 PointLayout layout,
                                 const ClusteringConfig& cfg,
                                 const gpusim::DeviceSpec& spec) {
  gpusim::Device dev(spec);
  const DevicePoints pts = DevicePoints::Upload(&dev, target, layout,
                                                "target points", 4, metric);
  return DownloadTargetClustering(BuildTargetClustering(&dev, pts, cfg));
}

/// Byte equality of two arrays, naming the first differing element.
template <typename T>
::testing::AssertionResult SameBytes(const char* field,
                                     const std::vector<T>& device,
                                     const std::vector<T>& host) {
  if (device.size() != host.size()) {
    return ::testing::AssertionFailure()
           << field << ": device has " << device.size() << " entries, host "
           << host.size();
  }
  for (size_t i = 0; i < device.size(); ++i) {
    if (std::memcmp(&device[i], &host[i], sizeof(T)) != 0) {
      return ::testing::AssertionFailure()
             << field << "[" << i << "]: device " << device[i] << ", host "
             << host[i];
    }
  }
  return ::testing::AssertionSuccess();
}

/// The member order level 2 relies on: each cluster's members by
/// descending distance to the center, ties by ascending id, every member
/// assigned to its cluster, and the radius the first member's distance.
::testing::AssertionResult WellOrdered(const TargetClusteringHost& tc) {
  for (int c = 0; c < tc.num_clusters; ++c) {
    const uint32_t begin = tc.member_offsets[c];
    const uint32_t end = tc.member_offsets[c + 1];
    const float radius = begin < end ? tc.member_dists[begin] : 0.0f;
    if (std::memcmp(&radius, &tc.max_dist[c], sizeof(float)) != 0) {
      return ::testing::AssertionFailure()
             << "cluster " << c << " radius " << tc.max_dist[c]
             << ", first member at " << radius;
    }
    for (uint32_t i = begin; i < end; ++i) {
      if (tc.assignment[tc.member_ids[i]] != static_cast<uint32_t>(c)) {
        return ::testing::AssertionFailure()
               << "member " << tc.member_ids[i] << " listed in cluster " << c;
      }
      if (i == begin) continue;
      const float prev = tc.member_dists[i - 1];
      const float cur = tc.member_dists[i];
      if (prev < cur ||
          (prev == cur && tc.member_ids[i - 1] > tc.member_ids[i])) {
        return ::testing::AssertionFailure()
               << "cluster " << c << " lists (" << tc.member_ids[i - 1]
               << ", " << prev << ") before (" << tc.member_ids[i] << ", "
               << cur << ")";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

void ExpectHostStep1MatchesDevice(
    const HostMatrix& target, Metric metric, PointLayout layout,
    const ClusteringConfig& cfg,
    const gpusim::DeviceSpec& spec = gpusim::DeviceSpec::TeslaK20c()) {
  SCOPED_TRACE(::testing::Message()
               << "n " << target.rows() << ", dims " << target.cols()
               << (metric == Metric::kEuclidean ? ", euclidean" : ", manhattan")
               << (layout == PointLayout::kRowMajor ? ", row-major"
                                                    : ", column-major")
               << ", landmarks_override " << cfg.landmarks_override
               << ", kmeans_iterations " << cfg.kmeans_iterations
               << ", device memory " << spec.global_mem_bytes);
  const TargetClusteringHost device =
      DeviceStep1(target, metric, layout, cfg, spec);
  const TargetClusteringHost host = BuildTargetClusteringOnHost(
      target, metric, cfg, spec, /*workers=*/2);
  ASSERT_EQ(device.num_clusters, host.num_clusters);
  EXPECT_TRUE(
      SameBytes("centers", device.centers.storage(), host.centers.storage()));
  EXPECT_TRUE(SameBytes("assignment", device.assignment, host.assignment));
  EXPECT_TRUE(
      SameBytes("member_offsets", device.member_offsets, host.member_offsets));
  EXPECT_TRUE(SameBytes("member_ids", device.member_ids, host.member_ids));
  EXPECT_TRUE(
      SameBytes("member_dists", device.member_dists, host.member_dists));
  EXPECT_TRUE(SameBytes("max_dist", device.max_dist, host.max_dist));
  EXPECT_TRUE(device == host);
  EXPECT_TRUE(WellOrdered(host));
}

/// `n` rows drawn from `distinct` clustered points, so exact duplicates
/// share clusters, center distances and (as landmarks) centers.
HostMatrix DuplicateRows(size_t n, size_t dims, size_t distinct,
                         uint64_t seed) {
  const HostMatrix pool = ClusteredPoints(distinct, dims, 3, seed);
  HostMatrix out(n, dims);
  for (size_t p = 0; p < n; ++p) {
    std::memcpy(out.mutable_row(p), pool.row((p * 7) % distinct),
                dims * sizeof(float));
  }
  return out;
}

/// n on both sides of RunAssignKernel's switch to its pair-parallel
/// kernel at MaxConcurrentThreads() / 4 (6 656 on the K20c).
class HostStep1Test : public ::testing::TestWithParam<size_t> {};

TEST_P(HostStep1Test, MatchesTheSimulatedBuild) {
  const size_t n = GetParam();
  const bool small = n <= 100;
  for (const size_t dims : {1, 4, 42, 129}) {
    const HostMatrix target =
        ClusteredPoints(n, dims, 5, 300 + n + dims, 0.08f);
    // Both metrics and both layouts at the default configuration.
    for (const Metric metric : {Metric::kEuclidean, Metric::kManhattan}) {
      for (const PointLayout layout :
           {PointLayout::kRowMajor, PointLayout::kColumnMajor}) {
        ExpectHostStep1MatchesDevice(target, metric, layout,
                                     ClusteringConfig{});
      }
    }
    // Forced landmark counts and k-means refinement. Every row as a
    // landmark costs trials * n^2 distances, so only small bases take it.
    std::vector<int> overrides = {1, 7};
    if (small) overrides.push_back(static_cast<int>(n));
    int round = 0;
    for (const int landmarks : overrides) {
      for (const int iterations : {0, 1, 3}) {
        ClusteringConfig cfg;
        cfg.landmarks_override = landmarks;
        cfg.kmeans_iterations = iterations;
        ExpectHostStep1MatchesDevice(
            target, round % 2 == 0 ? Metric::kEuclidean : Metric::kManhattan,
            round % 3 == 0 ? PointLayout::kColumnMajor
                           : PointLayout::kRowMajor,
            cfg);
        ++round;
      }
    }
    for (const int iterations : {1, 3}) {
      ClusteringConfig cfg;
      cfg.kmeans_iterations = iterations;
      ExpectHostStep1MatchesDevice(target, Metric::kEuclidean,
                                   PointLayout::kRowMajor, cfg);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, HostStep1Test,
                         ::testing::Values(1, 2, 31, 100, 6655, 6657, 12288),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return "n" + std::to_string(info.param);
                         });

TEST(HostStep1DuplicatesTest, MatchesTheSimulatedBuild) {
  // Duplicate landmarks tie every nearby row between two centers (the
  // lower must win), and duplicate rows tie member distances (the lower
  // id must come first), on both assignment kernels.
  for (const size_t n : {100, 6657}) {
    const HostMatrix target = DuplicateRows(n, 6, n / 20, 401);
    for (const Metric metric : {Metric::kEuclidean, Metric::kManhattan}) {
      for (const int iterations : {0, 3}) {
        ClusteringConfig cfg;
        cfg.kmeans_iterations = iterations;
        ExpectHostStep1MatchesDevice(target, metric, PointLayout::kRowMajor,
                                     cfg);
        cfg.landmarks_override = 7;
        ExpectHostStep1MatchesDevice(target, metric,
                                     PointLayout::kColumnMajor, cfg);
      }
    }
  }
}

TEST(HostStep1MemoryCapTest, MatchesTheSimulatedBuild) {
  // A device whose free memory after the upload caps the landmark count
  // below the 3*sqrt(N) rule.
  for (const size_t n : {100, 12288}) {
    const size_t dims = 42;
    const HostMatrix target = ClusteredPoints(n, dims, 5, 402, 0.08f);
    const size_t spare = n < 1000 ? 16 * 1024 : 1024 * 1024;
    const gpusim::DeviceSpec spec = gpusim::DeviceSpec::ScaledK20c(
        gpusim::internal_memory::RoundUpAllocation(n * dims * sizeof(float)) +
        spare);
    const int capped = DefaultLandmarkCount(n, spare);
    ASSERT_LT(capped, DefaultLandmarkCount(n, size_t{1} << 40));
    for (const int iterations : {0, 1}) {
      ClusteringConfig cfg;
      cfg.kmeans_iterations = iterations;
      ExpectHostStep1MatchesDevice(target, Metric::kEuclidean,
                                   PointLayout::kRowMajor, cfg, spec);
      EXPECT_EQ(BuildTargetClusteringOnHost(target, Metric::kEuclidean, cfg,
                                            spec, 1)
                    .num_clusters,
                capped);
    }
  }
}

}  // namespace
}  // namespace sweetknn::core
