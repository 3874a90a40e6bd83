#ifndef SWEETKNN_CORE_ROUTE_PLANNER_H_
#define SWEETKNN_CORE_ROUTE_PLANNER_H_

#include <atomic>
#include <cstdint>

namespace sweetknn::core {

/// Which execution path answers a kNN query fragment. Both paths return
/// bit-identical neighbor lists (the mutation-differential fuzz suite
/// proves engine == brute force, and the host path's TI scan over the
/// member-order HostImage is byte-identical to the brute-force kernels:
/// its pruning only ever skips rows that cannot enter the top k), so
/// routing is purely a latency decision.
enum class QueryRoute { kDevice, kHost };

/// The values are the wire encoding (net/wire.cc); 0 was the retired
/// device-sampling mode and is not reused.
enum class PlannerMode {
  kForceDevice = 1,  ///< always the simulated-GPU TI engine (the paper's)
  kForceHost = 2,    ///< always the host route's TI scan (HostImage)
};

struct PlannerConfig {
  PlannerMode mode = PlannerMode::kForceHost;
};

/// Thread-safe router between the simulated-GPU TI engine and the host
/// route's TI scan. Both run the paper's two TI filters and the host
/// route wins at every measured shape (docs/performance.md, "The route
/// planner"), so the default sends every decision to the host; the
/// device runs only where a caller forces it (tests, the cross-route
/// fuzz, the paper benches). Choose() is lock-free (plain atomics): the
/// serving dispatcher calls it per shard per kNN group while tests and
/// the fuzz harness flip the mode concurrently.
class RoutePlanner {
 public:
  /// `config.mode` may be overridden by SWEETKNN_PLANNER
  /// ("device" | "host", and "auto", which selects the host);
  /// unknown values are ignored.
  explicit RoutePlanner(const PlannerConfig& config = {});

  /// Routes one kNN fragment and counts the decision.
  QueryRoute Choose();

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

 private:
  std::atomic<int> mode_;
  std::atomic<uint64_t> device_routes_{0};
  std::atomic<uint64_t> host_routes_{0};
};

}  // namespace sweetknn::core

#endif  // SWEETKNN_CORE_ROUTE_PLANNER_H_
