#ifndef SWEETKNN_COMMON_THREAD_POOL_H_
#define SWEETKNN_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sweetknn::common {

/// Hard cap on fork-join participants. Far above any real core count; it
/// bounds the lazily grown worker table and lets callers oversubscribe
/// (determinism tests run 8 workers on single-core hosts).
inline constexpr int kMaxSimThreads = 256;

/// Worker count selected by the SWEETKNN_SIM_THREADS environment variable.
/// Unset or unparsable means 1 — the exact legacy serial path — so existing
/// callers and tests see no behavioral change unless they opt in. The value
/// "0" means one worker per hardware thread.
int SimThreadsFromEnv();

/// A persistent fork-join pool shared by the simulator's execution engine
/// and the host-side parallel loops.
///
/// One fork-join region runs at a time (regions from different threads are
/// serialized); the calling thread always participates as slot 0 and pool
/// threads fill slots 1..P-1, so ForkJoin(1, ...) never touches a pool
/// thread. Workers are spawned lazily on first use and kept parked on a
/// condition variable between regions.
class ThreadPool {
 public:
  ThreadPool() = default;
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Process-wide pool. Intentionally leaked so parked workers never race
  /// static destruction at exit.
  static ThreadPool* Global();

  /// Fork-join slot of the calling thread: 0 on the main/calling thread,
  /// 1..P-1 on pool workers while a region runs. Stable for the duration of
  /// a ForkJoin body; used to index per-worker shards.
  static int CurrentSlot();

  /// Runs body(slot) on `parallelism` participants (the caller is slot 0)
  /// and returns once every participant finished. parallelism <= 1 — or a
  /// call nested inside a region, from a pool worker or from the region's
  /// own calling thread — degenerates to body(0) on the calling thread,
  /// so nesting cannot deadlock.
  void ForkJoin(int parallelism, const std::function<void(int)>& body);

 private:
  void EnsureWorkers(int count);
  void WorkerLoop(int slot);

  std::mutex region_mutex_;  // serializes whole fork-join regions

  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> threads_;
  const std::function<void(int)>* body_ = nullptr;  // guarded by mutex_
  uint64_t generation_ = 0;                         // bumped per region
  int active_workers_ = 0;  // pool slots participating in the region
  int remaining_ = 0;       // participants still running
  bool stop_ = false;
};

/// A counter incremented from concurrent fork-join participants without
/// cross-thread contention: each participant bumps a cache-line-padded slot
/// selected by ThreadPool::CurrentSlot(). Sum() is an integer reduction, so
/// the total is independent of worker count and interleaving.
class ShardedCounter {
 public:
  ShardedCounter() = default;
  ShardedCounter(const ShardedCounter& other) { *this = other; }
  ShardedCounter& operator=(const ShardedCounter& other) {
    if (this != &other) Reset(other.Sum());
    return *this;
  }

  void Add(uint64_t delta) {
    shards_[static_cast<size_t>(ThreadPool::CurrentSlot())].value.fetch_add(
        delta, std::memory_order_relaxed);
  }

  uint64_t Sum() const {
    uint64_t total = 0;
    for (const Shard& s : shards_) {
      total += s.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  void Reset(uint64_t value = 0) {
    for (Shard& s : shards_) s.value.store(0, std::memory_order_relaxed);
    shards_[0].value.store(value, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };
  // +1: slot 0 is the calling thread, slots 1..kMaxSimThreads are workers.
  std::vector<Shard> shards_{kMaxSimThreads + 1};
};

}  // namespace sweetknn::common

#endif  // SWEETKNN_COMMON_THREAD_POOL_H_
