#ifndef SWEETKNN_CORE_ROUTE_PLANNER_H_
#define SWEETKNN_CORE_ROUTE_PLANNER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "core/options.h"

namespace sweetknn::core {

/// Which execution path answers a query fragment. Both paths return
/// bit-identical neighbor lists (the mutation-differential fuzz suite
/// proves engine == brute force, and the host path's TI scan over the
/// member-order HostImage is byte-identical to the brute-force kernels:
/// its pruning only ever skips rows that cannot enter the top k), so
/// routing is purely a latency decision.
enum class QueryRoute { kDevice, kHost };

enum class PlannerMode {
  kAuto,         ///< cost model decides per fragment
  kForceDevice,  ///< always the simulated-GPU TI engine (pre-planner behavior)
  kForceHost,    ///< always the host route's TI scan (HostImage)
};

/// Calibrated per-fragment cost model, all costs in wall-clock seconds
/// of THIS process. The "device" runs on a cycle-accounting simulator,
/// so its wall-clock constants reflect simulation overhead per modeled
/// operation, not real GPU silicon; the TI filter's selectivity (the
/// fraction of candidate pairs whose distance the engine actually
/// evaluates) scales the device's dominant term and is learned online
/// from KnnRunStats of completed device runs.
struct PlannerConfig {
  PlannerMode mode = PlannerMode::kAuto;
  /// Host path: fixed + |Q| * n * dims * per_pair_dim.
  double host_fixed_s = 1e-5;
  double host_per_pair_dim_s = 2e-10;
  /// Device path: fixed + |Q| * per_query + |Q| * n * dims *
  /// per_pair_dim * predicted_selectivity.
  double device_fixed_s = 2e-3;
  double device_per_query_s = 2e-5;
  double device_per_pair_dim_s = 8e-9;
  /// EMA weight of the newest selectivity observation.
  double selectivity_alpha = 0.25;
  /// In kAuto, every explore_interval-th decision (starting with the
  /// first) runs on the device regardless of cost, so the selectivity
  /// estimate keeps tracking the workload. <= 0 disables exploration.
  int explore_interval = 16;
};

/// Thread-safe cost-based router between the simulated-GPU TI engine
/// and the host route's TI scan. Choose() and the observers are
/// lock-free (plain atomics): the serving dispatcher calls Choose per
/// shard per group while tests and the fuzz harness flip the mode
/// concurrently.
class RoutePlanner {
 public:
  /// `config.mode` may be overridden by SWEETKNN_PLANNER
  /// ("auto" | "device" | "host"); unknown values are ignored.
  explicit RoutePlanner(const PlannerConfig& config = {});

  /// Routes one fragment of `num_queries` rows against `target_rows`
  /// points of dimension `dims`, and counts the decision.
  QueryRoute Choose(size_t num_queries, size_t target_rows, size_t dims);

  /// Feeds the selectivity EMA from a completed device run.
  void ObserveDeviceRun(const KnnRunStats& stats);

  /// Live mode switch (tests and the mutation fuzz harness).
  void set_mode(PlannerMode mode) {
    mode_.store(static_cast<int>(mode), std::memory_order_relaxed);
  }
  PlannerMode mode() const {
    return static_cast<PlannerMode>(mode_.load(std::memory_order_relaxed));
  }

  uint64_t device_routes() const {
    return device_routes_.load(std::memory_order_relaxed);
  }
  uint64_t host_routes() const {
    return host_routes_.load(std::memory_order_relaxed);
  }
  /// Current selectivity estimate in [0, 1] (1 until the first device
  /// run reports in — pessimistic about the filter, so a cold planner
  /// prefers the host path except for exploration).
  double PredictedSelectivity() const {
    return selectivity_.load(std::memory_order_relaxed);
  }

  /// Cost-model halves, exposed for tests and docs.
  double HostCost(size_t num_queries, size_t target_rows, size_t dims) const;
  double DeviceCost(size_t num_queries, size_t target_rows,
                    size_t dims) const;

  const PlannerConfig& config() const { return config_; }

 private:
  PlannerConfig config_;
  std::atomic<int> mode_;
  std::atomic<uint64_t> decisions_{0};
  std::atomic<uint64_t> device_routes_{0};
  std::atomic<uint64_t> host_routes_{0};
  std::atomic<double> selectivity_{1.0};
};

}  // namespace sweetknn::core

#endif  // SWEETKNN_CORE_ROUTE_PLANNER_H_
