#ifndef SWEETKNN_TESTS_TEST_UTIL_H_
#define SWEETKNN_TESTS_TEST_UTIL_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/knn_result.h"
#include "common/matrix.h"
#include "common/rng.h"
#include "dataset/generators.h"
#include "gtest/gtest.h"
#include "simd/simd_kernels.h"

namespace sweetknn::testing {

/// Small clustered dataset for correctness tests.
inline HostMatrix ClusteredPoints(size_t n, size_t dims, int clusters,
                                  uint64_t seed, float spread = 0.05f) {
  dataset::MixtureConfig cfg;
  cfg.n = n;
  cfg.dims = dims;
  cfg.clusters = clusters;
  cfg.spread = spread;
  cfg.seed = seed;
  return dataset::MakeGaussianMixture("test", cfg).points;
}

/// Uniform random points.
inline HostMatrix UniformPoints(size_t n, size_t dims, uint64_t seed) {
  return dataset::MakeUniform("test", n, dims, seed).points;
}

/// Asserts two results agree on every neighbor distance (indices may
/// differ on exact ties).
inline void ExpectResultsMatch(const KnnResult& expected,
                               const KnnResult& actual,
                               float tolerance = 2e-4f) {
  std::string mismatch;
  const size_t bad =
      CountResultMismatches(expected, actual, tolerance, &mismatch);
  EXPECT_EQ(bad, 0u) << "first mismatch: " << mismatch;
}

/// `answer` holds k >= 1 rows for the points with stable ids first_id,
/// first_id + 1, ..., each queried against an index holding it: a live
/// point is its own nearest neighbor at distance 0, a removed one never
/// appears. On the host route, which reads each shard's dead_rows, this
/// reads every bit of them.
inline void ExpectSelfQueriesSeeTheLiveSet(const KnnResult& answer,
                                           uint32_t first_id,
                                           const std::set<uint32_t>& removed,
                                           const std::string& what) {
  for (size_t q = 0; q < answer.num_queries(); ++q) {
    const uint32_t id = first_id + static_cast<uint32_t>(q);
    const Neighbor& nearest = answer.row(q)[0];
    if (removed.count(id) != 0) {
      EXPECT_NE(nearest.index, id) << what << ": removed id " << id;
    } else {
      EXPECT_TRUE(nearest.index == id && nearest.distance == 0.0f)
          << what << ": live id " << id << " answered " << nearest.index
          << " at " << nearest.distance;
    }
  }
}

/// Every SIMD tier this build and CPU can run, scalar first.
inline std::vector<simd::Level> AvailableLevels() {
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  for (const simd::Level l : {simd::Level::kAvx2, simd::Level::kAvx512}) {
    if (simd::CompiledIn(l) && simd::CpuSupports(l)) levels.push_back(l);
  }
  return levels;
}

/// Restores normal SIMD dispatch when a test exits.
struct LevelGuard {
  ~LevelGuard() { simd::ForceLevelForTest(-1); }
};

/// Parks a serving backend's dispatcher inside its pre-dispatch hook:
/// after Block(), the next request it dequeues stalls until Release(),
/// holding every later submission in the queue at a known depth. Works
/// with any backend that has SetPreDispatchHookForTest (KnnService,
/// Router).
class DispatcherGate {
  /// Shared with the installed hook, so a hook copy the dispatcher took
  /// before the gate went out of scope can still run safely.
  struct State {
    std::mutex mutex;
    std::condition_variable cv;
    bool blocked = false;
    int entered = 0;
  };

 public:
  template <typename Backend>
  explicit DispatcherGate(Backend* backend)
      : state_(std::make_shared<State>()) {
    std::shared_ptr<State> state = state_;
    backend->SetPreDispatchHookForTest([state] {
      std::unique_lock<std::mutex> lock(state->mutex);
      ++state->entered;
      state->cv.notify_all();
      state->cv.wait(lock, [&state] { return !state->blocked; });
    });
  }

  void Block() {
    std::lock_guard<std::mutex> lock(state_->mutex);
    state_->blocked = true;
  }

  void Release() {
    {
      std::lock_guard<std::mutex> lock(state_->mutex);
      state_->blocked = false;
    }
    state_->cv.notify_all();
  }

  /// Waits until the dispatcher has entered the hook `n` times (i.e. is
  /// parked on its n-th batch). False on a 10 s timeout.
  bool AwaitEntered(int n) {
    std::unique_lock<std::mutex> lock(state_->mutex);
    return state_->cv.wait_for(lock, std::chrono::seconds(10),
                               [&] { return state_->entered >= n; });
  }

 private:
  std::shared_ptr<State> state_;
};

/// Waits until a serving backend has admitted `requests` calls — with
/// the dispatcher parked by a DispatcherGate, the parked one plus
/// everything queued behind it.
template <typename Backend>
void AwaitAdmitted(const Backend& backend, uint64_t requests) {
  while (backend.stats().requests < requests) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

}  // namespace sweetknn::testing

#endif  // SWEETKNN_TESTS_TEST_UTIL_H_
