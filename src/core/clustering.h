#ifndef SWEETKNN_CORE_CLUSTERING_H_
#define SWEETKNN_CORE_CLUSTERING_H_

#include <cstdint>
#include <vector>

#include "common/matrix.h"
#include "core/device_points.h"
#include "core/options.h"
#include "gpusim/device.h"

namespace sweetknn::core {

/// Step-1 configuration (paper section III-A).
struct ClusteringConfig {
  /// 0 = the 3*sqrt(N) rule, capped by device memory; else a forced count.
  int landmarks_override = 0;
  /// Candidate-set trials for landmark selection (paper: 10).
  int landmark_trials = 10;
  /// Optional Lloyd refinement of the landmark centers before the final
  /// assignment (0 = the paper's sampling-only landmarks). The paper
  /// cites k-means-based pivot selection [3] as an alternative; a few
  /// iterations tighten the cluster radii and the TI bounds with them.
  int kmeans_iterations = 0;
  uint64_t seed = 7;
  int block_threads = 256;
};

/// The Step-1 configuration an engine with `options` builds under.
ClusteringConfig ClusteringConfigFor(const TiOptions& options);

/// The paper's landmark-count rule: 3*sqrt(N), at least 1, at most N,
/// further capped so the clustering structures fit in device memory.
int DefaultLandmarkCount(size_t n, size_t free_bytes);

/// Picks `m` landmark point indices from `points` with the paper's
/// procedure: `trials` random candidate sets, keep the set with the
/// largest sum of pairwise distances (computed by a simulated kernel).
std::vector<uint32_t> SelectLandmarks(gpusim::Device* dev,
                                      const DevicePoints& points, int m,
                                      int trials, uint64_t seed,
                                      int block_threads);

/// Clustering of the query set: assignments plus per-cluster radius and
/// member lists (member lists feed thread-data remapping).
struct QueryClustering {
  int num_clusters = 0;
  DevicePoints centers;
  gpusim::DeviceBuffer<uint32_t> assignment;      // |Q|
  gpusim::DeviceBuffer<float> max_dist;           // per cluster
  gpusim::DeviceBuffer<uint32_t> member_offsets;  // num_clusters + 1
  gpusim::DeviceBuffer<uint32_t> members;         // |Q| grouped by cluster
};

/// Clustering of the target set: per-cluster member ids sorted by
/// descending distance to the center (the order level-2 filtering relies
/// on), with the parallel distance array.
struct TargetClustering {
  int num_clusters = 0;
  DevicePoints centers;
  gpusim::DeviceBuffer<uint32_t> assignment;      // |T|
  gpusim::DeviceBuffer<uint32_t> member_offsets;  // num_clusters + 1
  gpusim::DeviceBuffer<uint32_t> member_ids;      // |T|, desc by distance
  gpusim::DeviceBuffer<float> member_dists;       // parallel to member_ids
  gpusim::DeviceBuffer<float> max_dist;           // per cluster

  uint32_t ClusterBegin(int c) const { return member_offsets[c]; }
  uint32_t ClusterEnd(int c) const { return member_offsets[c + 1]; }
};

/// Builds the query-side clustering (assignment kernel with atomic
/// max-distance update, then the two-pass member-list construction).
QueryClustering BuildQueryClustering(gpusim::Device* dev,
                                     const DevicePoints& query,
                                     const ClusteringConfig& cfg);

/// Derives the query-side clustering from an existing target clustering
/// of the same point set (the paper's experiments always use Q == T, so
/// the landmark selection and assignment need not run twice). The
/// structures are device-to-device copies, charged as one bulk copy.
QueryClustering QueryClusteringFromTarget(gpusim::Device* dev,
                                          const DevicePoints& points,
                                          const TargetClustering& tc);

/// Builds the target-side clustering (two-pass construction with local
/// IDs to avoid synchronization, then per-cluster descending sort).
TargetClustering BuildTargetClustering(gpusim::Device* dev,
                                       const DevicePoints& target,
                                       const ClusteringConfig& cfg);

/// Host-side, serializable image of a TargetClustering — what the index
/// snapshot store (src/store) persists so that a restart can skip the
/// Step-1 landmark clustering entirely.
struct TargetClusteringHost {
  int num_clusters = 0;
  HostMatrix centers;                    // m x dims
  std::vector<uint32_t> assignment;      // |T|
  std::vector<uint32_t> member_offsets;  // m + 1
  std::vector<uint32_t> member_ids;      // |T|, desc by distance
  std::vector<float> member_dists;       // parallel to member_ids
  std::vector<float> max_dist;           // per cluster
};

/// Byte equality of every field (floats compared by their bits).
bool operator==(const TargetClusteringHost& a, const TargetClusteringHost& b);

/// Copies a prepared target clustering to the host (no simulated-device
/// charge: persistence happens outside the modeled GPU timeline).
TargetClusteringHost DownloadTargetClustering(const TargetClustering& tc);

/// Step 1 on the host, with no simulated device: exactly the bytes
/// DownloadTargetClustering(BuildTargetClustering(...)) returns for
/// `target` uploaded to a fresh device of `spec` (either layout, any
/// vector width). It draws the same landmarks, runs the same k-means
/// centroid update and member sort, and assigns each row to its nearest
/// center with simd::PackedKnn at k = 1, which breaks a tie toward the
/// lower center as both assignment kernels do. `spec` only sets the
/// landmark count's memory cap. Parallel over rows on up to `workers`
/// threads; the bytes do not depend on the count.
TargetClusteringHost BuildTargetClusteringOnHost(
    const HostMatrix& target, Metric metric, const ClusteringConfig& cfg,
    const gpusim::DeviceSpec& spec, int workers);

/// Re-materializes a host clustering image on `dev`, charging the H2D
/// uploads. The live allocations (and therefore free_bytes, which feeds
/// the query-side landmark-count rule) end up byte-for-byte the same
/// sizes as after BuildTargetClustering, so a warm-started engine answers
/// every subsequent query bit-identically to a cold-built one.
TargetClustering UploadTargetClustering(gpusim::Device* dev,
                                        const TargetClusteringHost& host,
                                        PointLayout layout, int vector_width,
                                        Metric metric);

}  // namespace sweetknn::core

#endif  // SWEETKNN_CORE_CLUSTERING_H_
