#include "core/ti_knn_gpu.h"

#include <algorithm>

#include "core/adaptive.h"

namespace sweetknn::core {

void TiKnnEngine::PrepareTarget(const HostMatrix& target) {
  SK_CHECK(!target.empty());
  if (options_.sim_threads > 0) {
    dev_->set_execution_threads(options_.sim_threads);
  }
  dev_->ResetProfile();
  target_ = DevicePoints::Upload(dev_, target, options_.layout,
                                 "target points",
                                 options_.point_vector_width,
                                 options_.metric);
  tc_ = BuildTargetClustering(dev_, target_, ClusteringConfigFor(options_));
  prepare_profile_ = dev_->profile();
  target_prepared_ = true;
  prepared_ = false;
}

void TiKnnEngine::RestoreTarget(const HostMatrix& target,
                                const TargetClusteringHost& clustering) {
  SK_CHECK(!target.empty());
  SK_CHECK_EQ(clustering.assignment.size(), target.rows());
  if (options_.sim_threads > 0) {
    dev_->set_execution_threads(options_.sim_threads);
  }
  dev_->ResetProfile();
  target_ = DevicePoints::Upload(dev_, target, options_.layout,
                                 "target points",
                                 options_.point_vector_width,
                                 options_.metric);
  tc_ = UploadTargetClustering(dev_, clustering, options_.layout,
                               options_.point_vector_width, options_.metric);
  prepare_profile_ = dev_->profile();
  target_prepared_ = true;
  prepared_ = false;
}

TargetClusteringHost TiKnnEngine::ExportTargetClustering() const {
  SK_CHECK(target_prepared_) << "call PrepareTarget() or Prepare() first";
  return DownloadTargetClustering(tc_);
}

void TiKnnEngine::Prepare(const HostMatrix& query, const HostMatrix& target) {
  SK_CHECK(!query.empty() && !target.empty());
  SK_CHECK_EQ(query.cols(), target.cols());
  PrepareTarget(target);
  dev_->ResetProfile();

  query_ = DevicePoints::Upload(dev_, query, options_.layout, "query points",
                                options_.point_vector_width,
                                options_.metric);
  if (&query == &target) {
    // Self-join (the paper's experimental setting): share the landmark
    // selection and assignment between the two sides.
    qc_ = QueryClusteringFromTarget(dev_, query_, tc_);
  } else {
    qc_ = BuildQueryClustering(dev_, query_, ClusteringConfigFor(options_));
  }

  for (const gpusim::LaunchRecord& record : dev_->profile().launches) {
    prepare_profile_.launches.push_back(record);
  }
  prepare_profile_.transfer_time_s += dev_->profile().transfer_time_s;
  prepared_ = true;
}

KnnResult TiKnnEngine::RunQueries(const HostMatrix& query, int k,
                                  KnnRunStats* stats) {
  SK_CHECK(target_prepared_) << "call PrepareTarget() or Prepare() first";
  SK_CHECK_EQ(query.cols(), target_.dims());
  if (options_.sim_threads > 0) {
    dev_->set_execution_threads(options_.sim_threads);
  }
  dev_->ResetProfile();
  query_ = DevicePoints::Upload(dev_, query, options_.layout, "query batch",
                                options_.point_vector_width,
                                options_.metric);
  qc_ = BuildQueryClustering(dev_, query_, ClusteringConfigFor(options_));
  // Query-side preparation is part of this batch's cost.
  gpusim::Profile batch_prep = dev_->profile();
  prepared_ = true;
  KnnResult result = RunPrepared(k, stats);
  if (stats != nullptr) {
    // Splice the batch's query-side preparation into the profile (the
    // target preparation is already included by RunPrepared).
    for (const gpusim::LaunchRecord& record : batch_prep.launches) {
      stats->profile.launches.push_back(record);
    }
    stats->profile.transfer_time_s += batch_prep.transfer_time_s;
    stats->sim_time_s = stats->profile.TotalTime();
  }
  return result;
}

KnnResult TiKnnEngine::Run(int k, KnnRunStats* stats) {
  SK_CHECK(prepared_) << "call Prepare() first";
  return RunPrepared(k, stats);
}

KnnResult TiKnnEngine::RunPrepared(int k, KnnRunStats* stats) {
  SK_CHECK_GT(k, 0);
  dev_->ResetProfile();

  const size_t num_q = query_.n();
  const size_t num_t = target_.n();
  const size_t dims = query_.dims();

  Level1Result l1 = RunLevel1(dev_, qc_, tc_, k, options_.block_threads);

  const AdaptiveDecision decision = DecideConfiguration(
      dev_->spec(), options_, num_q, num_t, dims, k, tc_.num_clusters);

  Level2Config cfg;
  cfg.k = k;
  cfg.filter = decision.filter;
  cfg.placement = decision.placement;
  cfg.knearests_layout = options_.knearests_layout;
  cfg.remap = options_.remap_threads;
  cfg.threads_per_query =
      decision.filter == Level2Filter::kPartial ? 1 : decision.threads_per_query;
  cfg.inner_stride =
      decision.filter == Level2Filter::kPartial ? 1 : decision.inner_stride;
  cfg.block_threads = options_.block_threads;

  // Partition the query slots so per-partition level-2 buffers fit in the
  // remaining device memory (the paper partitions the query set the same
  // way when memory is insufficient).
  KnnResult result(num_q, k);
  Level2Stats l2_stats;
  int partitions = 0;
  size_t slot = 0;
  const size_t budget = static_cast<size_t>(
      0.9 * static_cast<double>(dev_->free_bytes()));
  while (slot < num_q) {
    size_t end = num_q;
    while (end > slot + 1 &&
           Level2BufferBytes(cfg, qc_, tc_, l1, slot, end) > budget) {
      end = slot + (end - slot + 1) / 2;
    }
    RunLevel2(dev_, query_, target_, qc_, tc_, l1, cfg, slot, end, &result,
              &l2_stats);
    ++partitions;
    slot = end;
  }

  if (stats != nullptr) {
    stats->distance_calcs = l2_stats.distance_calcs;
    stats->total_pairs = static_cast<uint64_t>(num_q) * num_t;
    stats->filter_used = cfg.filter;
    stats->placement_used = cfg.placement;
    stats->threads_per_query = cfg.threads_per_query;
    stats->landmarks_query = qc_.num_clusters;
    stats->landmarks_target = tc_.num_clusters;
    stats->query_partitions = partitions;

    // Fold the Step-1 preprocessing into the reported time and profile,
    // as the paper's end-to-end speedups do.
    stats->profile = prepare_profile_;
    for (const gpusim::LaunchRecord& record : dev_->profile().launches) {
      stats->profile.launches.push_back(record);
    }
    stats->profile.transfer_time_s += dev_->profile().transfer_time_s;
    stats->sim_time_s = stats->profile.TotalTime();

    gpusim::KernelStats filter_stats =
        stats->profile.StatsForKernelsMatching("level2_full_filter");
    filter_stats.Merge(
        stats->profile.StatsForKernelsMatching("level2_partial_filter"));
    stats->level2_warp_efficiency = filter_stats.WarpEfficiency();
  }
  return result;
}

}  // namespace sweetknn::core
