#ifndef SWEETKNN_CORE_TI_KNN_GPU_H_
#define SWEETKNN_CORE_TI_KNN_GPU_H_

#include <cstdint>

#include "common/knn_result.h"
#include "common/matrix.h"
#include "core/clustering.h"
#include "core/device_points.h"
#include "core/level1.h"
#include "core/level2.h"
#include "core/options.h"
#include "gpusim/device.h"

namespace sweetknn::core {

/// Triangle-inequality KNN on the simulated GPU. Configured with
/// TiOptions::BasicTi() it is the paper's section-III baseline
/// implementation; with TiOptions::Sweet() (the default) it is Sweet KNN
/// with every section-IV optimization and the adaptive scheme.
///
/// Typical use:
///   gpusim::Device dev(gpusim::DeviceSpec::TeslaK20c());
///   TiKnnEngine engine(&dev, TiOptions::Sweet());
///   engine.Prepare(queries, targets);   // Step 1: clustering
///   KnnRunStats stats;
///   KnnResult result = engine.Run(20, &stats);  // Steps 2-3 for k=20
///
/// Prepare's clustering does not depend on k, so one Prepare can serve
/// many Run calls (each Run's reported time includes the preprocessing,
/// as the paper's speedup numbers do).
class TiKnnEngine {
 public:
  TiKnnEngine(gpusim::Device* dev, TiOptions options)
      : dev_(dev), options_(options) {}

  TiKnnEngine(const TiKnnEngine&) = delete;
  TiKnnEngine& operator=(const TiKnnEngine&) = delete;

  /// Uploads the point sets and builds the landmark clusterings
  /// (Step 1). Resets the device profile first.
  void Prepare(const HostMatrix& query, const HostMatrix& target);

  /// Index-style use: prepare only the target side (upload + cluster).
  /// Query batches then run against it via RunQueries.
  void PrepareTarget(const HostMatrix& target);

  /// Warm start from a persisted index image (src/store): uploads the
  /// target and re-materializes the given clustering instead of running
  /// the Step-1 landmark build. Leaves the engine in the same state as
  /// PrepareTarget on the same data — same live device allocations (so
  /// the adaptive scheme sees the same free memory) and therefore
  /// bit-identical answers from every subsequent RunQueries call.
  void RestoreTarget(const HostMatrix& target,
                     const TargetClusteringHost& clustering);

  /// Host image of the prepared target clustering, ready for
  /// serialization. Requires PrepareTarget/Prepare/RestoreTarget.
  TargetClusteringHost ExportTargetClustering() const;

  /// Runs a query batch against the prepared target: uploads the batch,
  /// builds its query-side clustering, and runs Steps 2-3. The reported
  /// stats cover the batch (query preprocessing + filtering) plus the
  /// amortizable target preparation recorded by PrepareTarget/Prepare.
  KnnResult RunQueries(const HostMatrix& query, int k, KnnRunStats* stats);

  /// Runs level-1 and level-2 filtering for one k value over the query
  /// set given to Prepare. Resets the device profile (the Prepare
  /// profile is folded into the stats).
  KnnResult Run(int k, KnnRunStats* stats);

  /// Prepare + Run in one call.
  static KnnResult RunOnce(gpusim::Device* dev, const HostMatrix& query,
                           const HostMatrix& target, int k,
                           const TiOptions& options, KnnRunStats* stats) {
    TiKnnEngine engine(dev, options);
    engine.Prepare(query, target);
    return engine.Run(k, stats);
  }

  const TiOptions& options() const { return options_; }
  const QueryClustering& query_clustering() const { return qc_; }
  const TargetClustering& target_clustering() const { return tc_; }

 private:
  KnnResult RunPrepared(int k, KnnRunStats* stats);

  gpusim::Device* dev_;
  TiOptions options_;
  bool target_prepared_ = false;
  bool prepared_ = false;
  DevicePoints query_;
  DevicePoints target_;
  QueryClustering qc_;
  TargetClustering tc_;
  gpusim::Profile prepare_profile_;
};

}  // namespace sweetknn::core

#endif  // SWEETKNN_CORE_TI_KNN_GPU_H_
