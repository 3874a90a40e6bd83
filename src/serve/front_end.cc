#include "serve/front_end.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <unordered_set>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"

namespace sweetknn::serve {

namespace {

using SteadyClock = std::chrono::steady_clock;

/// recall@k per row, |approx ids ∩ exact ids| / |exact live ids|,
/// averaged over the rows that have any truth (padding rows measure
/// nothing). Negative when no row does.
double MeanRecall(const KnnResult& approx, const KnnResult& exact, int k) {
  double recall_sum = 0.0;
  size_t measured = 0;
  std::unordered_set<uint32_t> truth;
  for (size_t q = 0; q < exact.num_queries(); ++q) {
    truth.clear();
    for (int j = 0; j < k; ++j) {
      const Neighbor& nb = exact.row(q)[j];
      if (nb.index == kInvalidNeighbor) break;
      truth.insert(nb.index);
    }
    if (truth.empty()) continue;
    size_t hits = 0;
    for (int j = 0; j < k; ++j) {
      if (truth.count(approx.row(q)[j].index) != 0) ++hits;
    }
    recall_sum +=
        static_cast<double>(hits) / static_cast<double>(truth.size());
    ++measured;
  }
  return measured == 0 ? -1.0 : recall_sum / static_cast<double>(measured);
}

}  // namespace

FrontEnd::FrontEnd(const ServiceConfig& config, ShardTransport* transport,
                   common::MetricsRegistry* metrics)
    : config_(config),
      transport_(transport),
      metrics_(metrics),
      // A fair_quantum of 0 lets one round fund about one micro-batch.
      queue_({.max_queue_depth = config.max_queue_depth,
              .quantum = config.fair_quantum > 0
                             ? config.fair_quantum
                             : static_cast<size_t>(config.max_batch_size)}) {
  SK_CHECK_GT(config_.max_batch_size, 0);
  InitMetrics();
}

FrontEnd::~FrontEnd() { Shutdown(); }

void FrontEnd::Start() {
  dispatcher_ = std::thread(&FrontEnd::DispatchLoop, this);
}

void FrontEnd::Shutdown() {
  queue_.Close();
  if (dispatcher_.joinable()) dispatcher_.join();
}

void FrontEnd::InitMetrics() {
  common::MetricsRegistry& m = *metrics_;
  const std::vector<double> latency = common::LatencyBucketsSeconds();
  m_requests_ = m.GetCounter("sweetknn_requests_total",
                             "Search/JoinBatch calls admitted");
  m_queries_ = m.GetCounter("sweetknn_queries_total",
                            "Query rows answered, including cache hits");
  m_rejected_ = m.GetCounter(
      "sweetknn_rejected_requests_total",
      "Requests rejected because the service was shutting down");
  m_shed_requests_ = m.GetCounter(
      "sweetknn_shed_requests_total",
      "Requests bounced by the max_queue_depth admission bound");
  m_deadline_exceeded_ = m.GetCounter(
      "sweetknn_deadline_exceeded_total",
      "Admitted requests whose deadline expired while queued");
  m_batches_ = m.GetCounter("sweetknn_batches_total",
                            "Micro-batches dispatched");
  m_engine_groups_ = m.GetCounter(
      "sweetknn_engine_groups_total",
      "Same-k groups run through the shard engines");
  m_batched_queries_ = m.GetCounter(
      "sweetknn_batched_queries_total",
      "Query rows that went through the engines");
  m_distance_calcs_ = m.GetCounter(
      "sweetknn_distance_calcs_total",
      "Level-2 distance computations summed over shards");
  m_sim_level1_ = m.GetCounter(
      "sweetknn_sim_level1_seconds_total",
      "Simulated seconds in level-1 (landmark filter) kernels");
  m_sim_level2_ = m.GetCounter(
      "sweetknn_sim_level2_seconds_total",
      "Simulated seconds in level-2 (point filter) kernels");
  m_sim_transfer_ = m.GetCounter("sweetknn_sim_transfer_seconds_total",
                                 "Simulated seconds in PCIe transfers");
  m_sim_preprocess_ = m.GetCounter(
      "sweetknn_sim_preprocess_seconds_total",
      "Simulated seconds in preprocessing kernels (upload layout, "
      "clustering, member scatter)");
  m_sim_total_ = m.GetCounter(
      "sweetknn_sim_device_seconds_total",
      "Simulated device seconds summed over every shard");
  m_sim_critical_ = m.GetCounter(
      "sweetknn_sim_critical_seconds_total",
      "Per-group max shard time, summed (the latency cost)");
  m_filter_full_ = m.GetCounter(
      "sweetknn_adaptive_filter_full_total",
      "Shard runs that used the full level-2 filter");
  m_filter_partial_ = m.GetCounter(
      "sweetknn_adaptive_filter_partial_total",
      "Shard runs that used the partial level-2 filter");
  m_placement_global_ = m.GetCounter(
      "sweetknn_adaptive_placement_global_total",
      "Shard runs with the kNearests array in global memory");
  m_placement_shared_ = m.GetCounter(
      "sweetknn_adaptive_placement_shared_total",
      "Shard runs with the kNearests array in shared memory");
  m_placement_registers_ = m.GetCounter(
      "sweetknn_adaptive_placement_registers_total",
      "Shard runs with the kNearests array in registers");
  m_planner_device_routes_ = m.GetCounter(
      "sweetknn_planner_device_routes_total",
      "Shard base scans routed to the simulated-GPU TI engine");
  m_planner_host_routes_ = m.GetCounter(
      "sweetknn_planner_host_routes_total",
      "Shard base scans routed to the vectorized host kernels");
  m_route_device_seconds_ = m.GetHistogram(
      "sweetknn_planner_device_route_seconds",
      "Host wall-clock of one device-routed shard base scan", latency);
  m_route_host_seconds_ = m.GetHistogram(
      "sweetknn_planner_host_route_seconds",
      "Host wall-clock of one host-routed shard base scan", latency);
  m_threads_per_query_ = m.GetHistogram(
      "sweetknn_adaptive_threads_per_query",
      "Threads cooperating on one query, per shard run",
      {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048});
  m_queue_wait_ = m.GetHistogram("sweetknn_queue_wait_seconds",
                                 "Admission to dequeue by the dispatcher",
                                 latency);
  m_batch_assembly_ = m.GetHistogram("sweetknn_batch_assembly_seconds",
                                     "First dequeue to micro-batch sealed",
                                     latency);
  m_shard_fanout_ = m.GetHistogram(
      "sweetknn_shard_fanout_seconds",
      "Host wall-clock of the shard fan-out critical path", latency);
  m_merge_ = m.GetHistogram("sweetknn_merge_seconds",
                            "Host wall-clock of the shard merge", latency);
  m_request_latency_ = m.GetHistogram(
      "sweetknn_request_latency_seconds",
      "Admission to promise fulfillment, end to end", latency);
  m_batch_rows_ = m.GetHistogram("sweetknn_batch_size_rows",
                                 "Query rows per dispatched micro-batch",
                                 {1, 2, 4, 8, 16, 32, 64, 128, 256});
  m_range_groups_ = m.GetCounter(
      "sweetknn_range_groups_total",
      "Same-radius range groups run through the shards");
  m_range_queries_ = m.GetCounter("sweetknn_range_queries_total",
                                  "Query rows answered by range groups");
  m_range_matches_ = m.GetCounter("sweetknn_range_matches_total",
                                  "In-ball matches returned by range groups");
  m_approx_groups_ = m.GetCounter(
      "sweetknn_approx_groups_total",
      "Engine groups answered through the ANN graph tier");
  m_approx_queries_ = m.GetCounter(
      "sweetknn_approx_queries_total",
      "Query rows answered through the ANN graph tier");
  m_ann_hops_ = m.GetCounter(
      "sweetknn_ann_hops_total",
      "Graph nodes expanded by ANN searches, summed over shards");
  m_ann_candidates_ = m.GetCounter(
      "sweetknn_ann_candidates_total",
      "Distance evaluations made by ANN searches, summed over shards");
  m_recall_probes_ = m.GetCounter(
      "sweetknn_ann_recall_probes_total",
      "Approx groups re-answered exactly to measure recall");
  m_recall_estimate_ = m.GetHistogram(
      "sweetknn_ann_recall_estimate",
      "Measured recall@k of probed approx groups against the exact answer",
      {0.5, 0.8, 0.9, 0.95, 0.99, 0.995, 0.999, 1.0});
  m_queue_depth_ = m.GetGauge("sweetknn_queue_depth", "Admission-queue depth");
  m_peak_queue_depth_ = m.GetGauge("sweetknn_peak_queue_depth",
                                   "Admission-queue high-water mark");
}

void FrontEnd::RegisterTenant(TenantIndex* tenant) {
  const std::string labels = common::TenantLabel(tenant->name);
  tenant->m_requests = metrics_->GetCounter(
      "sweetknn_tenant_requests_total", labels,
      "Search/JoinBatch calls admitted, per tenant");
  tenant->m_queries = metrics_->GetCounter(
      "sweetknn_tenant_queries_total", labels,
      "Query rows answered, per tenant");
  tenant->m_shed = metrics_->GetCounter(
      "sweetknn_tenant_shed_requests_total", labels,
      "Requests shed by the admission bound, per tenant");
  tenant->m_deadline_exceeded = metrics_->GetCounter(
      "sweetknn_tenant_deadline_exceeded_total", labels,
      "Requests whose deadline expired while queued, per tenant");
  tenant->m_latency = metrics_->GetHistogram(
      "sweetknn_tenant_request_latency_seconds", labels,
      "Admission to promise fulfillment, per tenant",
      common::LatencyBucketsSeconds());
}

void FrontEnd::SetWeight(const std::string& tenant, double weight) {
  queue_.SetWeight(tenant, weight);
}

void FrontEnd::Forget(const std::string& tenant) { queue_.Forget(tenant); }

// ---------------------------------------------------------------------------
// Admission
// ---------------------------------------------------------------------------

Result<KnnResult> FrontEnd::Knn(std::shared_ptr<TenantIndex> tenant,
                                std::vector<float> rows, size_t num_rows,
                                int k, const ann::SearchMode& mode,
                                std::chrono::microseconds timeout) {
  auto request = std::make_unique<Request>();
  request->tenant = std::move(tenant);
  request->rows = std::move(rows);
  request->num_rows = num_rows;
  request->k = k;
  request->mode = ann::Normalize(mode);
  std::future<Result<KnnResult>> future = request->promise.get_future();
  SK_RETURN_IF_ERROR(Admit(std::move(request), timeout));
  return future.get();
}

Result<RangeResult> FrontEnd::Range(std::shared_ptr<TenantIndex> tenant,
                                    std::vector<float> rows, size_t num_rows,
                                    float radius,
                                    std::chrono::microseconds timeout) {
  auto request = std::make_unique<Request>();
  request->tenant = std::move(tenant);
  request->rows = std::move(rows);
  request->num_rows = num_rows;
  request->is_range = true;
  request->radius = radius;
  std::future<Result<RangeResult>> future =
      request->range_promise.get_future();
  SK_RETURN_IF_ERROR(Admit(std::move(request), timeout));
  return future.get();
}

Status FrontEnd::Admit(RequestPtr request, std::chrono::microseconds timeout) {
  const size_t rows = request->num_rows;
  // Pinned before the move: the dispatcher may consume the request (and
  // a concurrent DropIndex release the manager's reference) before the
  // accounting below runs.
  const std::shared_ptr<TenantIndex> tenant = request->tenant;
  request->admit_time = SteadyClock::now();
  if (timeout.count() > 0) {
    request->has_deadline = true;
    request->deadline = request->admit_time + timeout;
  }
  // Admission refuses once Shutdown() has closed the scheduler — including
  // when the close lands between our caller's checks and here. Rejection
  // is a clean Unavailable, never an abort: a serving process must
  // survive clients racing its shutdown. A shed is the same status with
  // its own counters: the client backs off either way.
  switch (queue_.Submit(tenant->name, std::move(request), rows)) {
    case FairScheduler<RequestPtr>::Admit::kClosed:
      m_rejected_->Increment();
      return Status::Unavailable("serving front-end is shut down; request "
                                 "rejected");
    case FairScheduler<RequestPtr>::Admit::kShed:
      m_shed_requests_->Increment();
      tenant->m_shed->Increment();
      return Status::Unavailable(
          "admission queue is full (max_queue_depth=" +
          std::to_string(config_.max_queue_depth) + "); request shed");
    case FairScheduler<RequestPtr>::Admit::kAdmitted:
      break;
  }
  m_requests_->Increment();
  m_queries_->Increment(static_cast<double>(rows));
  tenant->m_requests->Increment();
  tenant->m_queries->Increment(static_cast<double>(rows));
  return Status::Ok();
}

void FrontEnd::CountCacheHit(TenantIndex* tenant, double seconds) {
  m_requests_->Increment();
  m_queries_->Increment();
  tenant->m_requests->Increment();
  tenant->m_queries->Increment();
  m_request_latency_->Observe(seconds);
  tenant->m_latency->Observe(seconds);
}

void FrontEnd::ObserveRoute(bool device_routed, double seconds) {
  if (device_routed) {
    m_planner_device_routes_->Increment();
    m_route_device_seconds_->Observe(seconds);
  } else {
    m_planner_host_routes_->Increment();
    m_route_host_seconds_->Observe(seconds);
  }
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

void FrontEnd::FailRequest(Request* request, Status status) {
  if (request->is_range) {
    request->range_promise.set_value(Result<RangeResult>(std::move(status)));
  } else {
    request->promise.set_value(Result<KnnResult>(std::move(status)));
  }
}

bool FrontEnd::FailFast(RequestPtr* request) {
  Request& req = **request;
  if (req.tenant->dropped.load(std::memory_order_acquire)) {
    FailRequest(&req, Status::NotFound("index '" + req.tenant->name +
                                       "' was dropped"));
    // The sub-queue may be empty now; let the scheduler forget it.
    queue_.Forget(req.tenant->name);
    request->reset();
    return true;
  }
  if (req.has_deadline && SteadyClock::now() >= req.deadline) {
    m_deadline_exceeded_->Increment();
    req.tenant->m_deadline_exceeded->Increment();
    FailRequest(&req, Status::DeadlineExceeded(
                          "request deadline expired in the admission queue"));
    request->reset();
    return true;
  }
  return false;
}

void FrontEnd::DispatchLoop() {
  for (;;) {
    RequestPtr first;
    std::string tenant_name;
    if (queue_.WaitPop(&first, &tenant_name) != common::PopResult::kItem) {
      return;
    }
    {
      std::function<void()> hook;
      {
        std::lock_guard<std::mutex> lock(hook_mutex_);
        hook = pre_dispatch_hook_;
      }
      if (hook) hook();
    }
    if (FailFast(&first)) continue;
    // Micro-batching: coalesce admitted requests OF THIS TENANT until
    // max_batch_size query rows are on board or max_batch_wait has
    // passed since the batch opened. Batches are single-tenant — a
    // group answers against one tenant's index state — and the
    // out-of-turn tenant pops below charge the same DRR deficit WaitPop
    // does, so coalescing cannot cheat the fair shares.
    const SteadyClock::time_point opened = SteadyClock::now();
    m_queue_wait_->Observe(SecondsBetween(first->admit_time, opened));
    std::vector<RequestPtr> batch;
    size_t rows = first->num_rows;
    batch.push_back(std::move(first));
    const auto deadline = opened + config_.max_batch_wait;
    while (rows < static_cast<size_t>(config_.max_batch_size)) {
      RequestPtr next;
      if (!queue_.TryPopTenant(tenant_name, &next)) {
        if (SteadyClock::now() >= deadline ||
            queue_.WaitPopTenantUntil(tenant_name, &next, deadline) !=
                common::PopResult::kItem) {
          break;  // the batch is as full as it will get
        }
      }
      if (FailFast(&next)) continue;
      m_queue_wait_->Observe(
          SecondsBetween(next->admit_time, SteadyClock::now()));
      rows += next->num_rows;
      batch.push_back(std::move(next));
    }
    m_batch_assembly_->Observe(SecondsBetween(opened, SteadyClock::now()));
    m_batch_rows_->Observe(static_cast<double>(rows));
    // One micro-batch dispatched; the per-k engine groups below are
    // accounted separately (engine_groups), so mixed-k traffic cannot
    // inflate the batch count and skew occupancy.
    m_batches_->Increment();

    // One engine batch per distinct (k, mode) — or per distinct radius
    // for range requests — preserving admission order within each group
    // and a deterministic order across groups (kNN groups by k
    // ascending, exact before approx; range groups after them by
    // radius). Modes were normalized at admission, so effectively exact
    // traffic lands in one group.
    struct GroupKey {
      bool is_range;
      float radius;
      int k;
      ann::SearchMode mode;
    };
    struct GroupKeyLess {
      bool operator()(const GroupKey& a, const GroupKey& b) const {
        if (a.is_range != b.is_range) return b.is_range;
        if (a.is_range) return a.radius < b.radius;
        if (a.k != b.k) return a.k < b.k;
        return ann::SearchModeLess(a.mode, b.mode);
      }
    };
    std::map<GroupKey, std::vector<RequestPtr>, GroupKeyLess> by_key;
    for (RequestPtr& request : batch) {
      by_key[{request->is_range, request->radius, request->k,
              request->mode}]
          .push_back(std::move(request));
    }
    for (auto& [key, group] : by_key) {
      if (key.is_range) {
        RunRangeGroup(std::move(group));
      } else {
        RunGroup(std::move(group));
      }
    }
  }
}

HostMatrix FrontEnd::GatherRows(const std::vector<RequestPtr>& group) {
  const size_t dims = group[0]->tenant->dims;
  size_t rows = 0;
  for (const RequestPtr& request : group) rows += request->num_rows;
  HostMatrix queries(rows, dims);
  size_t row = 0;
  for (const RequestPtr& request : group) {
    std::memcpy(queries.mutable_row(row), request->rows.data(),
                request->num_rows * dims * sizeof(float));
    row += request->num_rows;
  }
  return queries;
}

void FrontEnd::ObserveLatency(const Request& request) {
  const double seconds =
      SecondsBetween(request.admit_time, SteadyClock::now());
  m_request_latency_->Observe(seconds);
  request.tenant->m_latency->Observe(seconds);
}

void FrontEnd::RunGroup(std::vector<RequestPtr> group) {
  const TenantIndex& tenant = *group[0]->tenant;
  const int k = group[0]->k;
  const ann::SearchMode mode = group[0]->mode;
  const HostMatrix queries = GatherRows(group);
  const size_t rows = queries.rows();

  // Recall self-measurement: every Nth approx group is also answered
  // exactly — same queries, same index state, inside the same transport
  // call — and the measured recall@k lands in the histogram. The probe
  // costs one exact group; interval 0 disables it.
  bool probe = false;
  if (!mode.EffectiveExact()) {
    const int interval = config_.ann_recall_probe_interval;
    probe = interval > 0 &&
            approx_group_counter_ % static_cast<uint64_t>(interval) == 0;
    ++approx_group_counter_;
  }
  std::vector<core::ShardAnswer> answers;
  std::vector<core::ShardAnswer> exact_answers;
  double fanout_seconds = 0.0;
  const Status status = transport_->SearchGroup(
      tenant, queries, k, mode, &answers, probe ? &exact_answers : nullptr,
      &fanout_seconds);
  if (!status.ok()) {
    for (RequestPtr& request : group) FailRequest(request.get(), status);
    return;
  }
  m_shard_fanout_->Observe(fanout_seconds);

  const SteadyClock::time_point merge_start = SteadyClock::now();
  for (const core::ShardAnswer& answer : answers) {
    // An approx shard ran the graph search, not a planner route; it
    // belongs to neither route counter.
    if (answer.approx) continue;
    ObserveRoute(answer.device_routed, answer.route_seconds);
  }
  // The identical exact merge on both transports: this is where cluster
  // answers become bit-identical to in-process ones.
  const KnnResult merged = core::MergeShardAnswers(answers, k);
  m_merge_->Observe(SecondsBetween(merge_start, SteadyClock::now()));

  if (probe) {
    const double recall =
        MeanRecall(merged, core::MergeShardAnswers(exact_answers, k), k);
    m_recall_probes_->Increment();
    if (recall >= 0.0) m_recall_estimate_->Observe(recall);
  }
  RecordGroupStats(answers, rows);

  // Slice the merged result back into per-request answers.
  size_t row = 0;
  for (RequestPtr& request : group) {
    KnnResult answer(request->num_rows, k);
    std::memcpy(answer.mutable_row(0), merged.row(row),
                request->num_rows * static_cast<size_t>(k) * sizeof(Neighbor));
    row += request->num_rows;
    ObserveLatency(*request);
    request->promise.set_value(Result<KnnResult>(std::move(answer)));
  }
}

void FrontEnd::RunRangeGroup(std::vector<RequestPtr> group) {
  const TenantIndex& tenant = *group[0]->tenant;
  const float radius = group[0]->radius;
  const HostMatrix queries = GatherRows(group);
  const size_t rows = queries.rows();

  std::vector<core::RangeShardAnswer> answers;
  double fanout_seconds = 0.0;
  const Status status = transport_->RangeGroup(tenant, queries, radius,
                                               &answers, &fanout_seconds);
  if (!status.ok()) {
    for (RequestPtr& request : group) FailRequest(request.get(), status);
    return;
  }
  m_shard_fanout_->Observe(fanout_seconds);
  const SteadyClock::time_point merge_start = SteadyClock::now();
  const RangeResult merged = core::MergeRangeShardAnswers(answers, rows);
  m_merge_->Observe(SecondsBetween(merge_start, SteadyClock::now()));

  m_range_groups_->Increment();
  m_range_queries_->Increment(static_cast<double>(rows));
  m_range_matches_->Increment(static_cast<double>(merged.total_matches()));

  // Slice the merged result back into per-request answers.
  size_t row = 0;
  for (RequestPtr& request : group) {
    RangeResult answer;
    for (size_t q = 0; q < request->num_rows; ++q) {
      answer.AppendRow(merged.begin(row + q), merged.count(row + q));
    }
    row += request->num_rows;
    ObserveLatency(*request);
    request->range_promise.set_value(Result<RangeResult>(std::move(answer)));
  }
}

void FrontEnd::RecordGroupStats(const std::vector<core::ShardAnswer>& answers,
                                size_t rows) {
  double slowest = 0.0;
  double total = 0.0;
  double level1 = 0.0;
  double level2 = 0.0;
  double transfer = 0.0;
  double preprocess = 0.0;
  uint64_t distance_calcs = 0;
  bool any_approx = false;
  uint64_t ann_hops = 0;
  uint64_t ann_candidates = 0;
  for (const core::ShardAnswer& s : answers) {
    if (s.approx) {
      any_approx = true;
      ann_hops += s.ann_hops;
      ann_candidates += s.ann_candidates;
    }
    // A host-routed shard ran no simulated device: its answer carries no
    // device stats and it made no adaptive decisions, so it contributes
    // to neither the sim-time counters nor the decision counts.
    if (!s.device_routed) continue;
    total += s.sim_time_s;
    slowest = std::max(slowest, s.sim_time_s);
    distance_calcs += s.distance_calcs;
    level1 += s.level1_s;
    level2 += s.level2_s;
    preprocess += s.preprocess_s;
    transfer += s.transfer_s;
    (s.filter_used == core::Level2Filter::kFull ? m_filter_full_
                                                : m_filter_partial_)
        ->Increment();
    const core::KnearestsPlacement placement = s.placement_used;
    (placement == core::KnearestsPlacement::kGlobal   ? m_placement_global_
     : placement == core::KnearestsPlacement::kShared ? m_placement_shared_
                                                      : m_placement_registers_)
        ->Increment();
    m_threads_per_query_->Observe(static_cast<double>(s.threads_per_query));
  }
  if (any_approx) {
    m_approx_groups_->Increment();
    m_approx_queries_->Increment(static_cast<double>(rows));
    m_ann_hops_->Increment(static_cast<double>(ann_hops));
    m_ann_candidates_->Increment(static_cast<double>(ann_candidates));
  }
  m_engine_groups_->Increment();
  m_batched_queries_->Increment(static_cast<double>(rows));
  m_sim_total_->Increment(total);
  m_sim_critical_->Increment(slowest);
  m_distance_calcs_->Increment(static_cast<double>(distance_calcs));
  m_sim_level1_->Increment(level1);
  m_sim_level2_->Increment(level2);
  m_sim_transfer_->Increment(transfer);
  m_sim_preprocess_->Increment(preprocess);
}

// ---------------------------------------------------------------------------
// Stats and gauges
// ---------------------------------------------------------------------------

ServiceStats FrontEnd::Stats() const {
  auto count = [this](const char* name) {
    return static_cast<uint64_t>(metrics_->CounterValue(name));
  };
  ServiceStats s;
  s.requests = count("sweetknn_requests_total");
  s.queries = count("sweetknn_queries_total");
  s.rejected_requests = count("sweetknn_rejected_requests_total");
  s.shed_requests = count("sweetknn_shed_requests_total");
  s.deadline_exceeded = count("sweetknn_deadline_exceeded_total");
  s.batches = count("sweetknn_batches_total");
  s.engine_groups = count("sweetknn_engine_groups_total");
  s.batched_queries = count("sweetknn_batched_queries_total");
  s.cache_lookups = count("sweetknn_cache_lookups_total");
  s.cache_hits = count("sweetknn_cache_hits_total");
  s.cache_stale_drops = count("sweetknn_cache_stale_drops_total");
  s.peak_queue_depth = queue_.peak_depth();
  s.total_sim_time_s = m_sim_total_->value();
  s.critical_sim_time_s = m_sim_critical_->value();
  s.distance_calcs = count("sweetknn_distance_calcs_total");
  s.warm_started_shards = count("sweetknn_warm_started_shards_total");
  s.index_swaps = count("sweetknn_index_swaps_total");
  s.inserts = count("sweetknn_inserts_total");
  s.removes = count("sweetknn_removes_total");
  s.remove_misses = count("sweetknn_remove_misses_total");
  s.compactions = count("sweetknn_compactions_total");
  s.compaction_aborts = count("sweetknn_compaction_aborts_total");
  s.approx_groups = count("sweetknn_approx_groups_total");
  s.approx_queries = count("sweetknn_approx_queries_total");
  s.range_groups = count("sweetknn_range_groups_total");
  s.range_queries = count("sweetknn_range_queries_total");
  s.range_matches = count("sweetknn_range_matches_total");
  s.jobs_submitted = count("sweetknn_jobs_submitted_total");
  s.jobs_completed = count("sweetknn_jobs_completed_total");
  s.jobs_cancelled = count("sweetknn_jobs_cancelled_total");
  s.jobs_failed = count("sweetknn_jobs_failed_total");
  return s;
}

void FrontEnd::RefreshGauges() const {
  m_queue_depth_->Set(static_cast<double>(queue_.size()));
  m_peak_queue_depth_->Set(static_cast<double>(queue_.peak_depth()));
}

void FrontEnd::SetPreDispatchHookForTest(std::function<void()> hook) {
  std::lock_guard<std::mutex> lock(hook_mutex_);
  pre_dispatch_hook_ = std::move(hook);
}

}  // namespace sweetknn::serve
