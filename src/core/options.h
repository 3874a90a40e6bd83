#ifndef SWEETKNN_CORE_OPTIONS_H_
#define SWEETKNN_CORE_OPTIONS_H_

#include <cstdint>
#include <optional>
#include <string>

#include "gpusim/stats.h"

namespace sweetknn::core {

/// Distance metric. The triangle-inequality machinery is metric-
/// agnostic (the paper notes "some metric (e.g., Euclidean distance)");
/// the CUBLAS-style brute-force baseline supports Euclidean only (its
/// norm trick needs an inner-product form).
enum class Metric { kEuclidean, kManhattan };

/// Strength of the level-2 (point-level) filter (paper section IV-B1).
enum class Level2Filter {
  /// Algorithm 2 as written: per-thread kNearests heap, theta tightened
  /// after every insertion.
  kFull,
  /// Weakened filter: theta frozen at the level-1 upper bound, surviving
  /// distances spilled to global memory, k minima selected by a second
  /// kernel.
  kPartial,
};

/// Where the per-thread kNearests array lives (paper section IV-C2).
enum class KnearestsPlacement { kGlobal, kShared, kRegisters };

/// Which path answers a kNN group's per-shard base scan. Both return
/// bit-identical neighbor lists (the host route's TI scan over the
/// member-order HostImage prunes only rows that cannot enter the top k,
/// and the engine is fuzz-proven against brute force), so the route is
/// purely a latency choice. The host route wins at every measured shape
/// (docs/performance.md, "Routes"), so it is the default; the device
/// runs where a caller sets it (tests, the cross-route fuzz, the paper
/// benches). The values are the wire encoding (net/wire.cc); 0 was the
/// retired device-sampling mode and is not reused.
enum class QueryRoute {
  kDevice = 1,  ///< the simulated-GPU TI engine (the paper's)
  kHost = 2,    ///< the host route's TI scan over the HostImage
};

/// Point-matrix layout (paper Fig. 7).
enum class PointLayout {
  /// Dimension-major: element (p, j) at j*N + p. Used by GEMM-style
  /// baselines; coalesces when all lanes touch the same dimension of
  /// consecutive points.
  kColumnMajor,
  /// Point-major with float4 vector loads; fits TI-KNN's strided access.
  kRowMajor,
};

/// Memory layout of the global-memory kNearests pool (paper Fig. 6).
enum class KnearestsLayout {
  /// Layout 1: thread t owns the contiguous block [t*k, (t+1)*k).
  kBlocked,
  /// Layout 2: entry j of thread t at j*num_threads + t, so a warp
  /// stepping through entry j accesses consecutive addresses.
  kInterleaved,
};

/// Tuning knobs and adaptive-scheme overrides. Default-constructed
/// options mean "decide adaptively like Sweet KNN".
struct TiOptions {
  Metric metric = Metric::kEuclidean;
  int block_threads = 256;
  PointLayout layout = PointLayout::kRowMajor;
  /// Elements per point-load instruction; 4 = float4 vector loads
  /// (a Sweet optimization, paper IV-C3), 1 = scalar loads.
  int point_vector_width = 4;
  KnearestsLayout knearests_layout = KnearestsLayout::kInterleaved;
  /// Thread-data remapping (paper section IV-C1). Off in basic KNN-TI.
  bool remap_threads = true;
  /// Elastic multi-thread-per-query parallelism (section IV-B2). Off in
  /// basic KNN-TI.
  bool elastic_parallelism = true;
  /// Cache-conflict factor r of the parallelism model (section IV-D3).
  double parallelism_r = 0.25;
  /// 0 = the 3*sqrt(N) rule (memory-capped); otherwise a forced count.
  int landmarks_override = 0;
  /// Lloyd iterations refining the landmark centers (0 = paper default;
  /// see ClusteringConfig::kmeans_iterations).
  int kmeans_iterations = 0;
  /// Force a filter strength instead of the k/d > 8 rule.
  std::optional<Level2Filter> filter_override;
  /// Force a kNearests placement instead of the th1/th2 rule.
  std::optional<KnearestsPlacement> placement_override;
  /// Force the number of threads cooperating on one query (0 = adaptive).
  int threads_per_query_override = 0;
  /// k/d threshold for choosing the partial filter (paper: 8).
  double partial_filter_kd_threshold = 8.0;
  /// Host worker threads for the simulator's parallel execution engine
  /// and host-side sweeps. 0 = inherit the device's current setting
  /// (which defaults to SWEETKNN_SIM_THREADS, or 1); 1 = the exact legacy
  /// serial path. Any value produces bit-identical results and simulated
  /// times; only host wall-clock changes.
  int sim_threads = 0;

  /// Configuration of the paper's basic KNN-TI (section III): no Sweet
  /// optimizations — always the full filter with a global interleaved
  /// kNearests pool (the layout section III settles on), row-major
  /// scalar point loads (float4 vectorization and the layout study are
  /// Sweet-level optimizations), query-level parallelism only.
  static TiOptions BasicTi() {
    TiOptions opt;
    opt.layout = PointLayout::kRowMajor;
    opt.point_vector_width = 1;
    opt.knearests_layout = KnearestsLayout::kInterleaved;
    opt.remap_threads = false;
    opt.elastic_parallelism = false;
    opt.filter_override = Level2Filter::kFull;
    opt.placement_override = KnearestsPlacement::kGlobal;
    return opt;
  }

  /// Sweet KNN defaults: everything adaptive.
  static TiOptions Sweet() { return TiOptions(); }
};

/// What the run actually did, plus the profiling quantities the paper
/// reports (Table IV, Table V).
struct KnnRunStats {
  /// Point-to-point distance computations performed by the level-2 stage
  /// (the paper's profiling variable in section V-B).
  uint64_t distance_calcs = 0;
  /// |Q| * |T|.
  uint64_t total_pairs = 0;
  /// (total_pairs - distance_calcs) / total_pairs.
  double SavedFraction() const {
    if (total_pairs == 0) return 0.0;
    const double extra =
        static_cast<double>(total_pairs) - static_cast<double>(distance_calcs);
    return extra < 0 ? 0.0 : extra / static_cast<double>(total_pairs);
  }

  /// Total simulated time (kernels + transfers + preprocessing).
  double sim_time_s = 0.0;
  /// Warp efficiency of the level-2 filtering kernel(s), as Table IV
  /// profiles Algorithm 2.
  double level2_warp_efficiency = 0.0;

  // Decisions taken by the adaptive scheme (or forced by options).
  Level2Filter filter_used = Level2Filter::kFull;
  KnearestsPlacement placement_used = KnearestsPlacement::kGlobal;
  int threads_per_query = 1;
  int landmarks_query = 0;
  int landmarks_target = 0;
  int query_partitions = 1;

  /// Full launch-by-launch profile of the run.
  gpusim::Profile profile;
};

}  // namespace sweetknn::core

#endif  // SWEETKNN_CORE_OPTIONS_H_
