#include "common/thread_pool.h"

#include <algorithm>
#include <cstdlib>

namespace sweetknn::common {

namespace {

// 0 outside fork-join regions (and on the region's calling thread); pool
// workers set it to their slot for the lifetime of the thread.
thread_local int tls_slot = 0;

// True on a calling thread while it runs slot 0 of a region (and so holds
// region_mutex_).
thread_local bool tls_in_region = false;

}  // namespace

int SimThreadsFromEnv() {
  const char* raw = std::getenv("SWEETKNN_SIM_THREADS");
  if (raw == nullptr || *raw == '\0') return 1;
  char* end = nullptr;
  const long parsed = std::strtol(raw, &end, 10);
  if (end == raw || *end != '\0' || parsed < 0) return 1;
  if (parsed == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(std::min<unsigned>(hw, kMaxSimThreads));
  }
  return static_cast<int>(std::min<long>(parsed, kMaxSimThreads));
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

ThreadPool* ThreadPool::Global() {
  static ThreadPool* pool = new ThreadPool();  // leaked: see class comment
  return pool;
}

int ThreadPool::CurrentSlot() { return tls_slot; }

void ThreadPool::EnsureWorkers(int count) {
  std::lock_guard<std::mutex> lock(mutex_);
  while (static_cast<int>(threads_.size()) < count) {
    const int slot = static_cast<int>(threads_.size()) + 1;
    threads_.emplace_back([this, slot] { WorkerLoop(slot); });
  }
}

void ThreadPool::ForkJoin(int parallelism,
                          const std::function<void(int)>& body) {
  parallelism = std::min(parallelism, kMaxSimThreads + 1);
  // A nested region runs inline wherever it is opened: on a pool worker,
  // or on the calling thread, which already holds region_mutex_.
  if (parallelism <= 1 || tls_slot != 0 || tls_in_region) {
    body(0);
    return;
  }
  std::lock_guard<std::mutex> region(region_mutex_);
  tls_in_region = true;
  EnsureWorkers(parallelism - 1);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    body_ = &body;
    active_workers_ = parallelism - 1;
    remaining_ = parallelism;
    ++generation_;
  }
  work_cv_.notify_all();
  body(0);
  tls_in_region = false;
  std::unique_lock<std::mutex> lock(mutex_);
  if (--remaining_ > 0) {
    done_cv_.wait(lock, [this] { return remaining_ == 0; });
  }
  body_ = nullptr;
}

void ThreadPool::WorkerLoop(int slot) {
  tls_slot = slot;
  uint64_t seen_generation = 0;
  for (;;) {
    const std::function<void(int)>* body = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] {
        return stop_ || generation_ != seen_generation;
      });
      if (stop_) return;
      seen_generation = generation_;
      if (slot > active_workers_) continue;  // region is narrower than us
      body = body_;
    }
    (*body)(slot);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--remaining_ == 0) done_cv_.notify_all();
    }
  }
}

}  // namespace sweetknn::common
