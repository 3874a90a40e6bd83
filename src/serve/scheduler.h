#ifndef SWEETKNN_SERVE_SCHEDULER_H_
#define SWEETKNN_SERVE_SCHEDULER_H_

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/blocking_queue.h"  // common::PopResult
#include "common/status.h"

namespace sweetknn::serve {

/// Parses a comma-separated weight list ("4,1,2"); every entry must be a
/// positive number. Used by serve-bench `--weights=` and the
/// multi-tenant bench.
Result<std::vector<double>> ParseWeightList(const std::string& spec);

/// The admission scheduler of the multi-tenant service: one bounded
/// sub-queue per tenant, drained by deficit round-robin (DRR) so the
/// dispatcher's service rate follows the configured per-tenant weights
/// under saturation — a 4:1 weighted pair is served 4:1 in cost units
/// (query rows), no matter how either tenant floods its queue.
///
/// How the accounting works: each tenant carries a `deficit` of cost
/// units it is allowed to consume. When the round-robin cursor arrives
/// at a non-empty tenant, the tenant earns `quantum * weight`; items
/// are served while the deficit covers their cost. The micro-batcher
/// may also pull *specific* tenants out of turn (TryPopTenant /
/// WaitPopTenantUntil) to coalesce a batch — those pops charge the same
/// deficit, which simply goes negative: the tenant borrowed ahead and
/// the cursor skips it until refills repay the debt. Fairness holds in
/// the long run regardless of batch shapes.
///
/// Admission is bounded: beyond `max_queue_depth` total queued items,
/// Submit sheds (the service maps that to Status kUnavailable) instead
/// of growing memory and tail latency without limit.
///
/// Thread-safe; one mutex guards all state. Close() ends the stream
/// with the same drain guarantee as BlockingQueue: admitted items keep
/// popping until every sub-queue is empty, then pops report kClosed.
template <typename T>
class FairScheduler {
 public:
  struct Options {
    /// Total queued items across all tenants before Submit sheds.
    /// 0 = unbounded (the legacy single-FIFO behavior).
    size_t max_queue_depth = 0;
    /// Cost units (query rows) a weight-1.0 tenant earns per cursor
    /// visit. Any positive value gives the same long-run ratios; the
    /// service uses its max_batch_size so one visit roughly funds one
    /// micro-batch.
    size_t quantum = 64;
  };

  enum class Admit {
    kAdmitted,  ///< Queued; a dispatcher pop will deliver it.
    kShed,      ///< Bounced by the depth bound — map to kUnavailable.
    kClosed,    ///< The scheduler is shut down.
  };

  explicit FairScheduler(Options opts) : opts_(opts) {
    opts_.quantum = std::max<size_t>(1, opts_.quantum);
  }
  FairScheduler(const FairScheduler&) = delete;
  FairScheduler& operator=(const FairScheduler&) = delete;

  /// Sets (or updates) a tenant's weight; creates the sub-queue. Higher
  /// weight = proportionally more service under contention. Clamped to
  /// a small positive floor so every tenant always makes progress.
  void SetWeight(const std::string& tenant, double weight) {
    std::lock_guard<std::mutex> lock(mutex_);
    SubQueue& sub = queues_[tenant];
    sub.weight = std::max(weight, 1e-3);
    if (cursor_.empty()) cursor_ = tenant;
  }

  /// Drops the bookkeeping of an empty sub-queue (after DropIndex). A
  /// tenant with queued items is kept — the dispatcher still has to
  /// drain and fail them.
  void Forget(const std::string& tenant) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = queues_.find(tenant);
    if (it == queues_.end() || !it->second.items.empty()) return;
    if (cursor_ == tenant) AdvanceCursorLocked();
    queues_.erase(it);
    if (queues_.empty()) cursor_.clear();
  }

  /// Enqueues `item` on the tenant's sub-queue at `cost` cost units
  /// (the service uses query rows, so wide JoinBatch calls weigh what
  /// they cost). Unknown tenants get a weight-1.0 sub-queue on first
  /// use.
  Admit Submit(const std::string& tenant, T item, size_t cost) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return Admit::kClosed;
      if (opts_.max_queue_depth > 0 && total_ >= opts_.max_queue_depth) {
        return Admit::kShed;
      }
      SubQueue& sub = queues_[tenant];
      if (cursor_.empty()) cursor_ = tenant;
      sub.items.emplace_back(std::move(item), std::max<size_t>(1, cost));
      ++total_;
      peak_depth_ = std::max(peak_depth_, total_);
    }
    cv_.notify_all();
    return Admit::kAdmitted;
  }

  /// Blocks for the next item in DRR order; fills *tenant_out with the
  /// owning tenant. kItem or (closed and fully drained) kClosed.
  common::PopResult WaitPop(T* out, std::string* tenant_out) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return closed_ || total_ > 0; });
    if (total_ == 0) return common::PopResult::kClosed;
    PopDrrLocked(out, tenant_out);
    return common::PopResult::kItem;
  }

  /// Non-blocking pop from one specific tenant (batch coalescing).
  bool TryPopTenant(const std::string& tenant, T* out) {
    std::lock_guard<std::mutex> lock(mutex_);
    return PopTenantLocked(tenant, out);
  }

  /// Waits until `deadline` for an item of one specific tenant — the
  /// micro-batcher keeping a batch window open for its current tenant.
  /// kTimeout when the window closes empty-handed; kClosed when the
  /// scheduler is closed and THIS tenant's queue is drained (other
  /// tenants' backlogs do not keep the window open).
  template <typename Clock, typename Duration>
  common::PopResult WaitPopTenantUntil(
      const std::string& tenant, T* out,
      std::chrono::time_point<Clock, Duration> deadline) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait_until(lock, deadline, [this, &tenant] {
      return closed_ || TenantDepthLocked(tenant) > 0;
    });
    if (PopTenantLocked(tenant, out)) return common::PopResult::kItem;
    return closed_ ? common::PopResult::kClosed : common::PopResult::kTimeout;
  }

  /// Rejects future submits and wakes every waiter; queued items keep
  /// draining. Idempotent.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  /// Total queued items across every tenant right now.
  size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return total_;
  }

  /// High-water mark of size() (queue-depth pressure).
  size_t peak_depth() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return peak_depth_;
  }

  size_t tenant_depth(const std::string& tenant) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return TenantDepthLocked(tenant);
  }

 private:
  struct SubQueue {
    std::deque<std::pair<T, size_t>> items;  // (item, cost)
    double weight = 1.0;
    double deficit = 0.0;
  };

  size_t TenantDepthLocked(const std::string& tenant) const {
    const auto it = queues_.find(tenant);
    return it == queues_.end() ? 0 : it->second.items.size();
  }

  /// Moves the cursor to the next tenant in name order (wrapping).
  void AdvanceCursorLocked() {
    auto it = queues_.upper_bound(cursor_);
    if (it == queues_.end()) it = queues_.begin();
    cursor_ = it == queues_.end() ? std::string() : it->first;
  }

  /// DRR pick. Precondition: total_ > 0 (so some queue is non-empty and
  /// the loop terminates — every cursor arrival at a non-empty tenant
  /// grows its deficit by quantum * weight > 0 until it covers the
  /// head's cost).
  void PopDrrLocked(T* out, std::string* tenant_out) {
    for (;;) {
      SubQueue& sub = queues_[cursor_];
      if (sub.items.empty()) {
        // Idle tenants earn no credit while skipped (classic DRR
        // resets on empty); debt from out-of-turn pops is kept.
        sub.deficit = std::min(sub.deficit, 0.0);
        AdvanceLocked();
        continue;
      }
      if (sub.deficit >= static_cast<double>(sub.items.front().second)) {
        *tenant_out = cursor_;
        PopFrontLocked(&sub, out);
        return;
      }
      AdvanceLocked();
    }
  }

  /// One cursor step of the DRR round: move to the next tenant and pay
  /// the arrival credit if it has work queued. EVERY advance must grant
  /// — including the step off an idle tenant — or a lone backlogged
  /// tenant whose head costs more than its deficit never earns anything
  /// while the cursor bounces over its idle neighbors, and the pick
  /// loop spins forever.
  void AdvanceLocked() {
    AdvanceCursorLocked();
    SubQueue& next = queues_[cursor_];
    if (!next.items.empty()) {
      next.deficit += static_cast<double>(opts_.quantum) * next.weight;
    }
  }

  bool PopTenantLocked(const std::string& tenant, T* out) {
    auto it = queues_.find(tenant);
    if (it == queues_.end() || it->second.items.empty()) return false;
    PopFrontLocked(&it->second, out);
    return true;
  }

  void PopFrontLocked(SubQueue* sub, T* out) {
    *out = std::move(sub->items.front().first);
    sub->deficit -= static_cast<double>(sub->items.front().second);
    sub->items.pop_front();
    --total_;
  }

  Options opts_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::map<std::string, SubQueue> queues_;  // name order == round order
  std::string cursor_;  ///< Tenant the DRR round is currently serving.
  size_t total_ = 0;
  size_t peak_depth_ = 0;
  bool closed_ = false;
};

}  // namespace sweetknn::serve

#endif  // SWEETKNN_SERVE_SCHEDULER_H_
