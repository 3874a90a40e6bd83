// Smoke tests of the sweetknn_cli binary: spawn it against generated CSVs
// and validate the output against the in-process oracle.

#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <unistd.h>

#include "baseline/brute_force_cpu.h"
#include "dataset/generators.h"
#include "dataset/io.h"
#include "gtest/gtest.h"

namespace sweetknn {
namespace {

std::string CliPath() {
  // The test binary lives in build/tests/, the CLI in build/tools/.
  const char* env = std::getenv("SWEETKNN_CLI");
  return env != nullptr ? env : "../tools/sweetknn_cli";
}

/// Runs a command and captures stdout.
int RunCommand(const std::string& cmd, std::string* output) {
  std::FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return -1;
  std::array<char, 4096> chunk;
  output->clear();
  while (std::fgets(chunk.data(), chunk.size(), pipe) != nullptr) {
    *output += chunk.data();
  }
  return pclose(pipe);
}

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset::MixtureConfig cfg;
    cfg.n = 150;
    cfg.dims = 4;
    cfg.clusters = 3;
    cfg.seed = 17;
    data_ = dataset::MakeGaussianMixture("cli", cfg);
    // Unique per test process: ctest runs the suite's cases in parallel,
    // and a shared path would let one case's TearDown delete the CSV
    // while another case's CLI is reading it.
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    csv_path_ = ::testing::TempDir() + "/cli_points_" +
                std::string(info->name()) + "_" +
                std::to_string(::getpid()) + ".csv";
    ASSERT_TRUE(dataset::SaveCsv(data_, csv_path_).ok());
  }
  void TearDown() override { std::remove(csv_path_.c_str()); }

  dataset::Dataset data_;
  std::string csv_path_;
};

TEST_F(CliTest, SelfJoinMatchesOracle) {
  std::string output;
  const int status = RunCommand(
      CliPath() + " --target=" + csv_path_ + " --k=3 2>/dev/null", &output);
  ASSERT_EQ(status, 0) << "is the CLI built? " << CliPath();

  const KnnResult oracle =
      baseline::BruteForceCpu(data_.points, data_.points, 3);
  std::stringstream lines(output);
  std::string line;
  size_t q = 0;
  while (std::getline(lines, line)) {
    std::stringstream cells(line);
    std::string cell;
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(std::getline(cells, cell, ','));
      const uint32_t idx = static_cast<uint32_t>(std::stoul(cell));
      ASSERT_TRUE(std::getline(cells, cell, ','));
      const float dist = std::stof(cell);
      EXPECT_NEAR(dist, oracle.row(q)[i].distance, 2e-4f)
          << "query " << q << " rank " << i << " idx " << idx;
    }
    ++q;
  }
  EXPECT_EQ(q, 150u);
}

TEST_F(CliTest, EngineVariantsAgree) {
  std::string sweet;
  std::string basic;
  ASSERT_EQ(RunCommand(CliPath() + " --target=" + csv_path_ +
                           " --k=2 --engine=sweet 2>/dev/null",
                       &sweet),
            0);
  ASSERT_EQ(RunCommand(CliPath() + " --target=" + csv_path_ +
                           " --k=2 --engine=basic 2>/dev/null",
                       &basic),
            0);
  EXPECT_EQ(sweet, basic);
}

TEST_F(CliTest, BadUsageFails) {
  std::string output;
  EXPECT_NE(RunCommand(CliPath() + " --bogus 2>/dev/null", &output), 0);
  EXPECT_NE(RunCommand(CliPath() + " --target=/does/not/exist.csv --k=2"
                                   " 2>/dev/null",
                       &output),
            0);
}

TEST_F(CliTest, ServeBenchReportsServiceCounters) {
  std::string output;
  ASSERT_EQ(RunCommand(CliPath() + " serve-bench --target=" + csv_path_ +
                           " --k=3 --shards=2 --clients=3 --requests=4"
                           " --rows=2 --max-batch=8 --cache=4 2>/dev/null",
                       &output),
            0);
  // 3 clients x 4 requests x 2 rows = 24 queries through the service.
  EXPECT_NE(output.find("requests 12 queries 24"), std::string::npos)
      << output;
  EXPECT_NE(output.find("batch occupancy"), std::string::npos) << output;
  EXPECT_NE(output.find("amortized sim time per query"), std::string::npos)
      << output;
  EXPECT_NE(output.find("cache lookups"), std::string::npos) << output;
}

// Both legs print one report from the same stats view, and the cluster
// leg honors --max-queue-depth: the admission queue never holds more
// than the bound, and every offered request is served or shed.
TEST_F(CliTest, ServeBenchClusterHonorsMaxQueueDepth) {
  std::string output;
  ASSERT_EQ(RunCommand(CliPath() + " serve-bench --target=" + csv_path_ +
                           " --k=3 --shards=2 --cluster=1 --clients=4"
                           " --requests=8 --rows=2 --max-batch=2"
                           " --max-queue-depth=1 2>/dev/null",
                       &output),
            0)
      << output;
  // The line starting with `prefix`, or "" when the report lacks it.
  auto line = [&](const char* prefix) {
    const size_t at = output.find(prefix);
    if (at == std::string::npos) return std::string();
    return output.substr(at, output.find('\n', at) - at);
  };
  unsigned long long requests = 0, queries = 0, shed = 0, offered = 0;
  unsigned long long peak = 0;
  ASSERT_EQ(std::sscanf(line("requests ").c_str(),
                        "requests %llu queries %llu", &requests, &queries),
            2)
      << output;
  ASSERT_EQ(std::sscanf(line("shed total ").c_str(),
                        "shed total %llu of %llu offered", &shed, &offered),
            2)
      << output;
  ASSERT_EQ(std::sscanf(line("peak queue depth ").c_str(),
                        "peak queue depth %llu", &peak),
            1)
      << output;
  EXPECT_LE(peak, 1u) << output;
  // The clients' 32 requests plus the bit-identity and radius probes.
  EXPECT_EQ(offered, 34u) << output;
  EXPECT_EQ(requests + shed, offered) << output;
  EXPECT_EQ(queries, 2 * requests) << output;
  EXPECT_NE(output.find("request latency p50"), std::string::npos) << output;
  EXPECT_NE(output.find("worker deaths 0"), std::string::npos) << output;
}

TEST_F(CliTest, ServeBenchWritesMetricsJsonAndStatsRendersIt) {
  const std::string metrics_path = ::testing::TempDir() + "/cli_metrics.json";
  std::remove(metrics_path.c_str());

  std::string output;
  ASSERT_EQ(RunCommand(CliPath() + " serve-bench --target=" + csv_path_ +
                           " --k=3 --shards=2 --clients=2 --requests=4"
                           " --rows=2 --metrics-out=" + metrics_path +
                           " 2>/dev/null",
                       &output),
            0);
  EXPECT_NE(output.find("request latency p50"), std::string::npos) << output;
  EXPECT_NE(output.find("queue wait p99"), std::string::npos) << output;

  std::ifstream in(metrics_path);
  ASSERT_TRUE(in.good()) << metrics_path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("sweetknn_requests_total"), std::string::npos);
  EXPECT_NE(json.find("sweetknn_request_latency_seconds"), std::string::npos);
  EXPECT_NE(json.find("sweetknn_sim_level1_seconds_total"),
            std::string::npos);
  EXPECT_NE(json.find("\"type\": \"histogram\""), std::string::npos);

  // `stats` reads the file back and renders every metric as a table.
  ASSERT_EQ(RunCommand(CliPath() + " stats --metrics=" + metrics_path +
                           " 2>/dev/null",
                       &output),
            0);
  EXPECT_NE(output.find("sweetknn_requests_total"), std::string::npos)
      << output;
  EXPECT_NE(output.find("sweetknn_queue_wait_seconds"), std::string::npos)
      << output;
  EXPECT_NE(output.find("p99"), std::string::npos) << output;
  std::remove(metrics_path.c_str());
}

TEST_F(CliTest, StatsBadUsageFails) {
  std::string output;
  EXPECT_NE(RunCommand(CliPath() + " stats 2>/dev/null", &output), 0);
  EXPECT_NE(RunCommand(CliPath() + " stats --metrics=/does/not/exist.json"
                                   " 2>/dev/null",
                       &output),
            0);
}

TEST_F(CliTest, ServeBenchBadUsageFails) {
  std::string output;
  EXPECT_NE(RunCommand(CliPath() + " serve-bench --k=3 2>/dev/null",
                       &output),
            0);
  EXPECT_NE(RunCommand(CliPath() + " serve-bench --target=" + csv_path_ +
                           " --shards=0 2>/dev/null",
                       &output),
            0);
}

TEST_F(CliTest, IndexBuildInspectVerifyRoundTrip) {
  const std::string dir = ::testing::TempDir() + "/cli_index";
  std::filesystem::remove_all(dir);

  std::string output;
  ASSERT_EQ(RunCommand(CliPath() + " index-build --target=" + csv_path_ +
                           " --out-dir=" + dir +
                           " --shards=2 --dataset=cli 2>/dev/null",
                       &output),
            0);
  EXPECT_NE(output.find("total"), std::string::npos) << output;
  EXPECT_NE(output.find("2 snapshots"), std::string::npos) << output;

  const std::string shard0 = dir + "/shard-0-of-2.sksnap";
  ASSERT_EQ(RunCommand(CliPath() + " index-inspect --snapshot=" + shard0 +
                           " 2>/dev/null",
                       &output),
            0);
  EXPECT_NE(output.find("format version 1"), std::string::npos) << output;
  EXPECT_NE(output.find("section 3 (target)"), std::string::npos) << output;
  EXPECT_NE(output.find("dataset 'cli'"), std::string::npos) << output;
  EXPECT_NE(output.find("shard 0 of 2"), std::string::npos) << output;

  ASSERT_EQ(RunCommand(CliPath() + " index-verify --snapshot-dir=" + dir +
                           " 2>/dev/null",
                       &output),
            0);
  EXPECT_NE(output.find("OK"), std::string::npos) << output;
  EXPECT_EQ(output.find("FAIL"), std::string::npos) << output;

  // Corrupt one byte of shard 0: verify must fail with a nonzero exit.
  {
    std::fstream f(shard0, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(32);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(32);
    f.write(&byte, 1);
  }
  EXPECT_NE(RunCommand(CliPath() + " index-verify --snapshot=" + shard0 +
                           " 2>/dev/null",
                       &output),
            0);
  EXPECT_NE(output.find("FAIL"), std::string::npos) << output;
  std::filesystem::remove_all(dir);
}

TEST_F(CliTest, ServeBenchWarmStartsFromSnapshots) {
  const std::string dir = ::testing::TempDir() + "/cli_warm";
  std::filesystem::remove_all(dir);

  std::string output;
  ASSERT_EQ(RunCommand(CliPath() + " index-build --target=" + csv_path_ +
                           " --out-dir=" + dir + " --shards=2 2>/dev/null",
                       &output),
            0);
  ASSERT_EQ(RunCommand(CliPath() + " serve-bench --target=" + csv_path_ +
                           " --k=3 --shards=2 --clients=2 --requests=2"
                           " --snapshot-dir=" + dir +
                           " --require-warm 2>&1",
                       &output),
            0)
      << output;
  EXPECT_NE(output.find("warm-started"), std::string::npos) << output;

  // --require-warm against an empty directory must fail loudly (the
  // service falls back to a cold build, which the flag forbids).
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  EXPECT_NE(RunCommand(CliPath() + " serve-bench --target=" + csv_path_ +
                           " --k=3 --shards=2 --clients=2 --requests=2"
                           " --snapshot-dir=" + dir +
                           " --require-warm 2>/dev/null",
                       &output),
            0);
  std::filesystem::remove_all(dir);
}

TEST_F(CliTest, ProfileFlagPrintsReport) {
  std::string output;
  ASSERT_EQ(RunCommand(CliPath() + " --target=" + csv_path_ +
                           " --k=2 --profile 2>&1 >/dev/null",
                       &output),
            0);
  EXPECT_NE(output.find("level2_full_filter"), std::string::npos);
  EXPECT_NE(output.find("saved computations"), std::string::npos);
}

}  // namespace
}  // namespace sweetknn
