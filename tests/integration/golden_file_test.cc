// Golden-file regression tests: the full KnnResult (neighbor ids and
// distances) plus the key aggregate KernelStats counters of a
// TiOptions::Sweet() run over two small paper-dataset stand-ins,
// snapshotted into checked-in text files. Any change to clustering,
// filtering, the simulator, or the cost model that shifts a neighbor,
// a distance bit, or a counter shows up as a golden diff.
//
// To regenerate after an intentional behavior change:
//   ./build/tests/golden_file_test --update_goldens
//
// The snapshots pin IEEE-754 float results produced by this repository's
// toolchain; distances are printed with %.9g (float round-trip) and
// simulated times with %.17g (double round-trip).

// A second leg pins the same neighbor tables through the multi-process
// serving path: a router/worker cluster (docs/distributed.md) over the
// same datasets must reproduce the golden neighbor lines byte for byte.
// That leg needs the worker binary and skips unless SWEETKNN_CLI points
// at the sweetknn_cli executable (ctest exports it).

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <vector>
#include <sstream>
#include <string>

#include "core/range_search.h"
#include "core/sweet_knn.h"
#include "core/ti_knn_gpu.h"
#include "dataset/paper_datasets.h"
#include "gtest/gtest.h"
#include "serve/router.h"

#ifndef SWEETKNN_GOLDEN_DIR
#define SWEETKNN_GOLDEN_DIR "tests/goldens"
#endif

namespace sweetknn {
namespace {

bool g_update_goldens = false;

std::string GoldenPath(const std::string& name) {
  return std::string(SWEETKNN_GOLDEN_DIR) + "/" + name + ".golden";
}

std::string Snapshot(const std::string& dataset_name, double size_factor,
                     int k) {
  const dataset::Dataset data = dataset::MakePaperDataset(
      dataset::PaperDatasetByName(dataset_name), size_factor);

  gpusim::Device dev(gpusim::DeviceSpec::TeslaK20c());
  core::KnnRunStats stats;
  const KnnResult result = core::TiKnnEngine::RunOnce(
      &dev, data.points, data.points, k, core::TiOptions::Sweet(), &stats);

  const gpusim::KernelStats agg = stats.profile.AggregateStats();
  std::ostringstream out;
  out << "dataset " << dataset_name << " n " << data.n() << " d "
      << data.dims() << " k " << k << "\n";
  out << "distance_calcs " << stats.distance_calcs << " total_pairs "
      << stats.total_pairs << "\n";
  out << "landmarks_query " << stats.landmarks_query << " landmarks_target "
      << stats.landmarks_target << " threads_per_query "
      << stats.threads_per_query << "\n";
  out << "warp_instructions " << agg.warp_instructions << " active_lane_ops "
      << agg.active_lane_ops << " divergent_branches "
      << agg.divergent_branches << "\n";
  out << "global_transactions " << agg.global_transactions
      << " dram_transactions " << agg.dram_transactions
      << " atomic_operations " << agg.atomic_operations << "\n";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", stats.sim_time_s);
  out << "sim_time_s " << buf << "\n";
  for (size_t q = 0; q < result.num_queries(); ++q) {
    out << q << ":";
    for (int i = 0; i < result.k(); ++i) {
      const Neighbor& n = result.row(q)[i];
      std::snprintf(buf, sizeof(buf), "%.9g", n.distance);
      out << " " << n.index << ":" << buf;
    }
    out << "\n";
  }
  return out.str();
}

void CheckGolden(const std::string& name, const std::string& actual) {
  const std::string path = GoldenPath(name);
  if (g_update_goldens) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    std::printf("updated %s\n", path.c_str());
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good())
      << "missing golden " << path
      << " — run this binary with --update_goldens to create it";
  std::stringstream expected;
  expected << in.rdbuf();
  if (expected.str() == actual) return;
  // Point at the first differing line rather than dumping both files.
  std::istringstream a(expected.str());
  std::istringstream b(actual);
  std::string line_a;
  std::string line_b;
  size_t line_no = 1;
  while (std::getline(a, line_a)) {
    if (!std::getline(b, line_b)) line_b = "<missing>";
    if (line_a != line_b) break;
    ++line_no;
  }
  FAIL() << "golden mismatch for " << name << " at line " << line_no
         << "\n  golden: " << line_a << "\n  actual: " << line_b
         << "\nif the change is intentional, rerun with --update_goldens";
}

TEST(GoldenFileTest, Kegg) { CheckGolden("kegg", Snapshot("kegg", 0.02, 10)); }

TEST(GoldenFileTest, SpatialNetwork3D) {
  CheckGolden("3DNet", Snapshot("3DNet", 0.005, 10));
}

// --- Range-modality goldens (docs/modalities.md) -----------------------------

/// RadiusSearch + SelfJoin snapshot over a paper dataset: the pruning
/// counters, every per-query match row ("q: id:dist ..."), and every
/// self-join pair ("p a b dist"). Radii are fixed per dataset, chosen so
/// rows hold a handful of matches each — big enough to exercise the TI
/// pruning, small enough to diff by eye.
std::string RangeSnapshot(const std::string& dataset_name, double size_factor,
                          float radius) {
  const dataset::Dataset data = dataset::MakePaperDataset(
      dataset::PaperDatasetByName(dataset_name), size_factor);

  SweetKnnIndex index(data.points, SweetKnn::Config());
  core::RangeScanStats stats;
  const RangeResult result = index.RadiusSearch(data.points, radius, &stats);
  const std::vector<SelfJoinPair> pairs = index.SelfJoin(radius);

  std::ostringstream out;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", radius);
  out << "dataset " << dataset_name << " n " << data.n() << " d "
      << data.dims() << " radius " << buf << "\n";
  out << "candidates " << stats.candidates << " total_pairs "
      << stats.total_pairs << " clusters_pruned " << stats.clusters_pruned
      << " members_pruned " << stats.members_pruned << "\n";
  out << "matches " << result.total_matches() << " pairs " << pairs.size()
      << "\n";
  for (size_t q = 0; q < result.num_queries(); ++q) {
    out << q << ":";
    const Neighbor* row = result.begin(q);
    for (size_t i = 0; i < result.count(q); ++i) {
      std::snprintf(buf, sizeof(buf), "%.9g", row[i].distance);
      out << " " << row[i].index << ":" << buf;
    }
    out << "\n";
  }
  for (const SelfJoinPair& pair : pairs) {
    std::snprintf(buf, sizeof(buf), "%.9g", pair.distance);
    out << "p " << pair.a << " " << pair.b << " " << buf << "\n";
  }
  return out.str();
}

constexpr float kKeggRadius = 0.6f;
constexpr float k3DNetRadius = 0.2f;

TEST(GoldenFileTest, KeggRange) {
  CheckGolden("kegg_range", RangeSnapshot("kegg", 0.02, kKeggRadius));
}

TEST(GoldenFileTest, SpatialNetwork3DRange) {
  CheckGolden("3DNet_range", RangeSnapshot("3DNet", 0.005, k3DNetRadius));
}

// --- Cluster leg -------------------------------------------------------------

/// The neighbor-table section of a golden snapshot: the "q: id:dist ..."
/// lines (they alone start with a digit). The counters above them are
/// engine-run artifacts; the neighbor rows are what any serving backend
/// must reproduce bit for bit.
std::string NeighborLines(const std::string& snapshot_text) {
  std::istringstream in(snapshot_text);
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && std::isdigit(static_cast<unsigned char>(line[0]))) {
      out << line << "\n";
    }
  }
  return out.str();
}

/// The same self-join the engine snapshot runs, answered by a
/// router/worker cluster on the workers' device route, formatted as
/// golden neighbor lines.
std::string ClusterNeighborSnapshot(const std::string& dataset_name,
                                    double size_factor, int k,
                                    const char* worker_binary) {
  const dataset::Dataset data = dataset::MakePaperDataset(
      dataset::PaperDatasetByName(dataset_name), size_factor);

  serve::RouterConfig config;
  config.service.num_shards = 2;
  config.service.planner.mode = core::PlannerMode::kForceDevice;
  config.num_workers = 2;
  config.worker_binary = worker_binary;
  Result<std::unique_ptr<serve::Router>> started =
      serve::Router::Start(data.points, config);
  if (!started.ok()) {
    ADD_FAILURE() << "Router::Start failed: "
                  << started.status().ToString();
    return "";
  }
  const Result<KnnResult> result =
      started.value()->JoinBatch(data.points, k);
  if (!result.ok()) {
    ADD_FAILURE() << "cluster JoinBatch failed: "
                  << result.status().ToString();
    return "";
  }
  std::ostringstream out;
  char buf[64];
  for (size_t q = 0; q < result.value().num_queries(); ++q) {
    out << q << ":";
    for (int i = 0; i < result.value().k(); ++i) {
      const Neighbor& n = result.value().row(q)[i];
      std::snprintf(buf, sizeof(buf), "%.9g", n.distance);
      out << " " << n.index << ":" << buf;
    }
    out << "\n";
  }
  return out.str();
}

void CheckGoldenNeighborsViaCluster(const std::string& name,
                                    double size_factor, int k) {
  const char* cli = std::getenv("SWEETKNN_CLI");
  if (cli == nullptr) {
    GTEST_SKIP() << "SWEETKNN_CLI not set; cluster leg needs the CLI binary";
  }
  if (g_update_goldens) {
    GTEST_SKIP() << "goldens are owned by the engine leg";
  }
  const std::string path = GoldenPath(name);
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden " << path;
  std::stringstream golden;
  golden << in.rdbuf();
  const std::string want = NeighborLines(golden.str());
  ASSERT_FALSE(want.empty()) << path << " holds no neighbor lines";
  const std::string got = ClusterNeighborSnapshot(name, size_factor, k, cli);
  if (::testing::Test::HasFailure()) return;
  if (want == got) return;
  std::istringstream a(want);
  std::istringstream b(got);
  std::string line_a;
  std::string line_b;
  size_t line_no = 1;
  while (std::getline(a, line_a)) {
    if (!std::getline(b, line_b)) line_b = "<missing>";
    if (line_a != line_b) break;
    ++line_no;
  }
  FAIL() << "cluster neighbor mismatch for " << name << " at neighbor line "
         << line_no << "\n  golden: " << line_a << "\n  cluster: " << line_b;
}

TEST(GoldenFileClusterTest, Kegg) {
  CheckGoldenNeighborsViaCluster("kegg", 0.02, 10);
}

TEST(GoldenFileClusterTest, SpatialNetwork3D) {
  CheckGoldenNeighborsViaCluster("3DNet", 0.005, 10);
}

/// The match-row and pair sections of a range golden: "q: ..." lines
/// (leading digit) and "p a b dist" lines. The counter lines above them
/// are single-index scan artifacts; the match tables are what the
/// cluster must reproduce byte for byte.
std::string RangeTableLines(const std::string& snapshot_text) {
  std::istringstream in(snapshot_text);
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (std::isdigit(static_cast<unsigned char>(line[0])) ||
        line.compare(0, 2, "p ") == 0) {
      out << line << "\n";
    }
  }
  return out.str();
}

/// The same radius scan and self-join, answered by a 2-worker cluster
/// (the radius group as one RangeQuery RPC per primary worker, the
/// self-join on the front-end's job engine), formatted as golden table
/// lines.
std::string ClusterRangeSnapshot(const std::string& dataset_name,
                                 double size_factor, float radius,
                                 const char* worker_binary) {
  const dataset::Dataset data = dataset::MakePaperDataset(
      dataset::PaperDatasetByName(dataset_name), size_factor);

  serve::RouterConfig config;
  config.service.num_shards = 2;
  config.num_workers = 2;
  config.worker_binary = worker_binary;
  Result<std::unique_ptr<serve::Router>> started =
      serve::Router::Start(data.points, config);
  if (!started.ok()) {
    ADD_FAILURE() << "Router::Start failed: "
                  << started.status().ToString();
    return "";
  }
  const Result<RangeResult> result =
      started.value()->RadiusSearch(data.points, radius);
  if (!result.ok()) {
    ADD_FAILURE() << "cluster RadiusSearch failed: "
                  << result.status().ToString();
    return "";
  }
  const Result<std::vector<SelfJoinPair>> pairs =
      started.value()->SelfJoin(radius);
  if (!pairs.ok()) {
    ADD_FAILURE() << "cluster SelfJoin failed: "
                  << pairs.status().ToString();
    return "";
  }
  std::ostringstream out;
  char buf[64];
  for (size_t q = 0; q < result.value().num_queries(); ++q) {
    out << q << ":";
    const Neighbor* row = result.value().begin(q);
    for (size_t i = 0; i < result.value().count(q); ++i) {
      std::snprintf(buf, sizeof(buf), "%.9g", row[i].distance);
      out << " " << row[i].index << ":" << buf;
    }
    out << "\n";
  }
  for (const SelfJoinPair& pair : pairs.value()) {
    std::snprintf(buf, sizeof(buf), "%.9g", pair.distance);
    out << "p " << pair.a << " " << pair.b << " " << buf << "\n";
  }
  return out.str();
}

void CheckRangeGoldenViaCluster(const std::string& name,
                                const std::string& dataset_name,
                                double size_factor, float radius) {
  const char* cli = std::getenv("SWEETKNN_CLI");
  if (cli == nullptr) {
    GTEST_SKIP() << "SWEETKNN_CLI not set; cluster leg needs the CLI binary";
  }
  if (g_update_goldens) {
    GTEST_SKIP() << "goldens are owned by the engine leg";
  }
  const std::string path = GoldenPath(name);
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden " << path;
  std::stringstream golden;
  golden << in.rdbuf();
  const std::string want = RangeTableLines(golden.str());
  ASSERT_FALSE(want.empty()) << path << " holds no range table lines";
  const std::string got =
      ClusterRangeSnapshot(dataset_name, size_factor, radius, cli);
  if (::testing::Test::HasFailure()) return;
  if (want == got) return;
  std::istringstream a(want);
  std::istringstream b(got);
  std::string line_a;
  std::string line_b;
  size_t line_no = 1;
  while (std::getline(a, line_a)) {
    if (!std::getline(b, line_b)) line_b = "<missing>";
    if (line_a != line_b) break;
    ++line_no;
  }
  FAIL() << "cluster range mismatch for " << name << " at table line "
         << line_no << "\n  golden: " << line_a << "\n  cluster: " << line_b;
}

TEST(GoldenFileClusterTest, KeggRange) {
  CheckRangeGoldenViaCluster("kegg_range", "kegg", 0.02, kKeggRadius);
}

TEST(GoldenFileClusterTest, SpatialNetwork3DRange) {
  CheckRangeGoldenViaCluster("3DNet_range", "3DNet", 0.005, k3DNetRadius);
}

}  // namespace
}  // namespace sweetknn

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--update_goldens") {
      sweetknn::g_update_goldens = true;
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
