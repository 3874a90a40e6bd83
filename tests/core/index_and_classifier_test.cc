#include "baseline/brute_force_cpu.h"

#include "common/rng.h"
#include "core/clustering.h"
#include "core/knn_classifier.h"
#include "core/sweet_knn.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace sweetknn {
namespace {

using testing::ClusteredPoints;
using testing::ExpectResultsMatch;

TEST(SweetKnnIndexTest, BatchesMatchOracle) {
  const HostMatrix gallery = ClusteredPoints(400, 6, 6, 151);
  SweetKnnIndex index(gallery);
  EXPECT_EQ(index.size(), 400u);
  EXPECT_EQ(index.dims(), 6u);
  for (uint64_t seed : {152, 153, 154}) {
    const HostMatrix batch = ClusteredPoints(90, 6, 3, seed);
    ExpectResultsMatch(baseline::BruteForceCpu(batch, gallery, 5),
                       index.Query(batch, 5));
  }
}

TEST(SweetKnnIndexTest, DifferentKPerBatch) {
  const HostMatrix gallery = ClusteredPoints(300, 4, 4, 155);
  SweetKnnIndex index(gallery);
  const HostMatrix batch = ClusteredPoints(50, 4, 2, 156);
  for (int k : {1, 3, 11, 40}) {
    ExpectResultsMatch(baseline::BruteForceCpu(batch, gallery, k),
                       index.Query(batch, k));
  }
}

TEST(SweetKnnIndexTest, SinglePointQuery) {
  HostMatrix gallery(4, 2);
  gallery.at(0, 0) = 0.0f;
  gallery.at(1, 0) = 1.0f;
  gallery.at(2, 0) = 5.0f;
  gallery.at(3, 0) = 9.0f;
  SweetKnnIndex index(gallery);
  const auto neighbors =
      index.Query(std::vector<float>{4.4f, 0.0f}, 2);
  ASSERT_EQ(neighbors.size(), 2u);
  EXPECT_EQ(neighbors[0].index, 2u);
  EXPECT_EQ(neighbors[1].index, 1u);
}

TEST(SweetKnnIndexTest, StatsIncludeAmortizedPreparation) {
  const HostMatrix gallery = ClusteredPoints(300, 5, 5, 157);
  // Host-routed batches report no simulated-device stats.
  SweetKnn::Config config;
  config.route = core::QueryRoute::kDevice;
  SweetKnnIndex index(gallery, config);
  const HostMatrix batch = ClusteredPoints(60, 5, 2, 158);
  core::KnnRunStats stats;
  index.Query(batch, 4, &stats);
  bool saw_target_prep = false;
  for (const auto& launch : stats.profile.launches) {
    saw_target_prep |=
        launch.kernel_name.find("assign_target") != std::string::npos;
  }
  EXPECT_TRUE(saw_target_prep);
  EXPECT_GT(stats.sim_time_s, 0.0);
}

TEST(KnnClassifierTest, SeparableClassesAreLearned) {
  // Two well-separated blobs.
  HostMatrix train(200, 3);
  std::vector<int> labels(200);
  Rng rng(161);
  for (size_t i = 0; i < 200; ++i) {
    const int label = i < 100 ? 0 : 1;
    labels[i] = label;
    for (size_t j = 0; j < 3; ++j) {
      train.at(i, j) = static_cast<float>(label) * 5.0f +
                       0.2f * rng.NextFloat();
    }
  }
  KnnClassifier classifier(train, labels);
  HostMatrix queries(2, 3);
  for (size_t j = 0; j < 3; ++j) {
    queries.at(0, j) = 0.1f;
    queries.at(1, j) = 5.1f;
  }
  const std::vector<int> predicted = classifier.Predict(queries);
  EXPECT_EQ(predicted[0], 0);
  EXPECT_EQ(predicted[1], 1);
  EXPECT_DOUBLE_EQ(classifier.Score(queries, {0, 1}), 1.0);
}

TEST(KnnClassifierTest, ConfidenceReflectsVoteShare) {
  HostMatrix train(3, 1);
  train.at(0, 0) = 0.0f;
  train.at(1, 0) = 0.1f;
  train.at(2, 0) = 0.2f;
  KnnClassifier::Options options;
  options.k = 3;
  KnnClassifier classifier(train, {0, 0, 1}, options);
  HostMatrix query(1, 1);
  query.at(0, 0) = 0.05f;
  const auto predictions = classifier.PredictWithConfidence(query);
  EXPECT_EQ(predictions[0].label, 0);
  EXPECT_NEAR(predictions[0].confidence, 2.0 / 3.0, 1e-9);
}

TEST(KnnClassifierTest, DistanceWeightingBreaksMajority) {
  // Two far votes for class 1 vs one adjacent vote for class 0.
  HostMatrix train(3, 1);
  train.at(0, 0) = 0.0f;
  train.at(1, 0) = 3.0f;
  train.at(2, 0) = 3.1f;
  HostMatrix query(1, 1);
  query.at(0, 0) = 0.01f;
  KnnClassifier::Options plain;
  plain.k = 3;
  KnnClassifier majority(train, {0, 1, 1}, plain);
  EXPECT_EQ(majority.Predict(query)[0], 1);
  KnnClassifier::Options weighted = plain;
  weighted.distance_weighted = true;
  KnnClassifier nearest_wins(train, {0, 1, 1}, weighted);
  EXPECT_EQ(nearest_wins.Predict(query)[0], 0);
}

TEST(KMeansRefinementTest, StaysExactAndReportsStats) {
  const HostMatrix points = ClusteredPoints(300, 6, 5, 162);
  const KnnResult oracle = baseline::BruteForceCpu(points, points, 5);
  for (int iterations : {1, 3}) {
    SweetKnn::Config config;
    config.options.kmeans_iterations = iterations;
    SweetKnn knn(config);
    core::KnnRunStats stats;
    ExpectResultsMatch(oracle, knn.SelfJoin(points, 5, &stats));
    bool saw_kmeans = false;
    for (const auto& launch : stats.profile.launches) {
      saw_kmeans |= launch.kernel_name.find("kmeans") != std::string::npos;
    }
    EXPECT_TRUE(saw_kmeans);
  }
}

TEST(KMeansRefinementTest, TightensClusterRadii) {
  // Refined centroids should shrink the mean cluster radius vs the
  // paper's sampled landmarks.
  const HostMatrix points = ClusteredPoints(600, 8, 10, 163, 0.05f);
  auto mean_radius = [&](int iterations) {
    gpusim::Device dev(gpusim::DeviceSpec::TeslaK20c());
    core::DevicePoints d_points = core::DevicePoints::Upload(
        &dev, points, core::PointLayout::kRowMajor, "p");
    core::ClusteringConfig cfg;
    cfg.kmeans_iterations = iterations;
    const core::TargetClustering tc =
        core::BuildTargetClustering(&dev, d_points, cfg);
    double sum = 0.0;
    int count = 0;
    for (int c = 0; c < tc.num_clusters; ++c) {
      if (tc.member_offsets[c + 1] > tc.member_offsets[c]) {
        sum += tc.max_dist[c];
        ++count;
      }
    }
    return sum / count;
  };
  EXPECT_LT(mean_radius(3), mean_radius(0));
}

}  // namespace
}  // namespace sweetknn
