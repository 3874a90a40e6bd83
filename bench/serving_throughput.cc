// Measures the KnnService serving layer: concurrent clients firing
// small JoinBatch requests at a sharded index, swept over the
// micro-batch size knob. For each (dataset, max_batch_size) point it
// reports host throughput, mean batch size, batch occupancy, and the
// amortized simulated device time per query — the number dynamic
// micro-batching drives down — plus request-latency and queue-wait
// percentiles and the per-stage simulated-time split from the service's
// metrics registry, while asserting that every served answer is
// bit-identical to a single-engine RunOnce over the unsharded target
// set. The service sets the device route, so every shard scan runs the
// paper's engine and the simulated columns report. Exits 1 on any
// mismatch.
// Emits BENCH_serving.json.
//
// Usage: serving_throughput [--scale=F] [--only=a,b] [--shards=N]
//        [--clients=N]

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "core/ti_knn_gpu.h"
#include "serve/knn_service.h"

namespace sweetknn::bench {
namespace {

constexpr int kNeighbors = 10;
constexpr int kRowsPerRequest = 2;

struct ServingRun {
  std::string name;
  size_t n = 0;
  size_t num_queries = 0;
  int max_batch_size = 0;
  double wall_s = 0.0;
  double qps = 0.0;
  double mean_batch = 0.0;
  double occupancy = 0.0;
  double amortized_sim_s = 0.0;
  double critical_sim_s = 0.0;
  double total_sim_s = 0.0;
  // End-to-end request latency and queue-wait percentiles (seconds),
  // pulled from the service's metrics registry.
  double latency_p50_s = 0.0;
  double latency_p90_s = 0.0;
  double latency_p99_s = 0.0;
  double queue_wait_p50_s = 0.0;
  double queue_wait_p90_s = 0.0;
  double queue_wait_p99_s = 0.0;
  // Per-stage simulated time over all shards (seconds).
  double sim_level1_s = 0.0;
  double sim_level2_s = 0.0;
  double sim_transfer_s = 0.0;
  double sim_preprocess_s = 0.0;
  bool exact = false;
};

/// Reads one counter back out of a parsed JSON metrics export.
/// GetCounter registers on first use, so an absent name reads as 0.
double CounterValue(common::MetricsRegistry* parsed, const char* name) {
  return parsed->GetCounter(name, "")->value();
}

/// The query workload: a prefix of the target set, so every request has
/// in-distribution points and the single-engine reference stays small.
HostMatrix QueryPrefix(const HostMatrix& points) {
  const size_t rows = std::min<size_t>(points.rows(), 192);
  HostMatrix queries(rows, points.cols());
  std::memcpy(queries.mutable_data(), points.row(0),
              rows * points.cols() * sizeof(float));
  return queries;
}

ServingRun RunOne(const dataset::Dataset& data, const HostMatrix& queries,
                  const KnnResult& reference, int shards, int clients,
                  int max_batch_size) {
  serve::ServiceConfig config;
  config.num_shards = shards;
  config.max_batch_size = max_batch_size;
  config.route = core::QueryRoute::kDevice;
  serve::KnnService service(data.points, config);

  const size_t requests_total =
      (queries.rows() + kRowsPerRequest - 1) / kRowsPerRequest;
  const size_t per_client =
      (requests_total + static_cast<size_t>(clients) - 1) /
      static_cast<size_t>(clients);
  std::vector<KnnResult> answers(requests_total);

  const Stopwatch wall;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const size_t first = static_cast<size_t>(c) * per_client;
      const size_t last = std::min(requests_total, first + per_client);
      for (size_t r = first; r < last; ++r) {
        const size_t begin = r * kRowsPerRequest;
        const size_t rows =
            std::min<size_t>(kRowsPerRequest, queries.rows() - begin);
        HostMatrix slice(rows, queries.cols());
        std::memcpy(slice.mutable_data(), queries.row(begin),
                    rows * queries.cols() * sizeof(float));
        answers[r] = service.JoinBatch(slice, kNeighbors).value();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall_s = wall.ElapsedSeconds();
  service.Shutdown();

  bool exact = true;
  for (size_t r = 0; r < requests_total && exact; ++r) {
    const size_t begin = r * kRowsPerRequest;
    for (size_t q = 0; q < answers[r].num_queries() && exact; ++q) {
      for (int i = 0; i < kNeighbors; ++i) {
        const Neighbor& want = reference.row(begin + q)[i];
        const Neighbor& got = answers[r].row(q)[i];
        if (want.index != got.index || want.distance != got.distance) {
          exact = false;
          break;
        }
      }
    }
  }

  const serve::ServiceStats stats = service.stats();
  ServingRun run;
  run.n = data.n();
  run.num_queries = queries.rows();
  run.max_batch_size = max_batch_size;
  run.wall_s = wall_s;
  run.qps = static_cast<double>(stats.queries) / wall_s;
  run.mean_batch = stats.MeanBatchSize();
  run.occupancy = stats.BatchOccupancy(max_batch_size);
  run.amortized_sim_s = stats.AmortizedSimTimePerQuery();
  run.critical_sim_s = stats.critical_sim_time_s;
  run.total_sim_s = stats.total_sim_time_s;
  const common::HistogramSnapshot latency =
      service.metrics().SnapshotHistogram("sweetknn_request_latency_seconds");
  run.latency_p50_s = latency.Percentile(0.50);
  run.latency_p90_s = latency.Percentile(0.90);
  run.latency_p99_s = latency.Percentile(0.99);
  const common::HistogramSnapshot queue_wait =
      service.metrics().SnapshotHistogram("sweetknn_queue_wait_seconds");
  run.queue_wait_p50_s = queue_wait.Percentile(0.50);
  run.queue_wait_p90_s = queue_wait.Percentile(0.90);
  run.queue_wait_p99_s = queue_wait.Percentile(0.99);
  common::MetricsRegistry parsed;
  if (common::ParseMetricsJson(service.ExportMetricsJson(), &parsed).ok()) {
    run.sim_level1_s =
        CounterValue(&parsed, "sweetknn_sim_level1_seconds_total");
    run.sim_level2_s =
        CounterValue(&parsed, "sweetknn_sim_level2_seconds_total");
    run.sim_transfer_s =
        CounterValue(&parsed, "sweetknn_sim_transfer_seconds_total");
    run.sim_preprocess_s =
        CounterValue(&parsed, "sweetknn_sim_preprocess_seconds_total");
  }
  run.exact = exact;
  return run;
}

int Main(int argc, char** argv) {
  int shards = 2;
  int clients = 4;
  std::vector<char*> rest;
  rest.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--shards=", 0) == 0) {
      shards = std::atoi(arg.c_str() + 9);
    } else if (arg.rfind("--clients=", 0) == 0) {
      clients = std::atoi(arg.c_str() + 10);
    } else {
      rest.push_back(argv[i]);
    }
  }
  const BenchArgs args =
      BenchArgs::Parse(static_cast<int>(rest.size()), rest.data());
  const std::vector<int> batch_sizes = {1, 8, 64};

  std::printf("=== Serving layer: %d shards, %d concurrent clients, "
              "%d-row requests, k=%d ===\n\n",
              shards, clients, kRowsPerRequest, kNeighbors);
  PrintTableHeader({"dataset", "n", "batch", "wall(s)", "qps", "mean_b",
                    "occup", "sim/q(us)", "p50(us)", "p99(us)",
                    "exact"});

  std::vector<ServingRun> runs;
  bool all_exact = true;
  for (const auto& info : dataset::PaperDatasets()) {
    if (!args.WantDataset(info.name)) continue;
    const dataset::Dataset data = LoadPaperDataset(info.name, args);
    const HostMatrix queries = QueryPrefix(data.points);
    gpusim::Device dev = MakeBenchDevice();
    const KnnResult reference = core::TiKnnEngine::RunOnce(
        &dev, queries, data.points, kNeighbors, core::TiOptions::Sweet(),
        nullptr);
    for (int batch : batch_sizes) {
      ServingRun run =
          RunOne(data, queries, reference, shards, clients, batch);
      run.name = info.name;
      all_exact = all_exact && run.exact;
      PrintTableRow({run.name, std::to_string(run.n),
                     std::to_string(run.max_batch_size),
                     FormatDouble(run.wall_s, 3), FormatDouble(run.qps, 0),
                     FormatDouble(run.mean_batch, 2),
                     FormatPercent(run.occupancy),
                     FormatDouble(run.amortized_sim_s * 1e6, 3),
                     FormatDouble(run.latency_p50_s * 1e6, 1),
                     FormatDouble(run.latency_p99_s * 1e6, 1),
                     run.exact ? "yes" : "NO"});
      runs.push_back(std::move(run));
    }
  }
  std::printf("\nall answers bit-identical to single-engine RunOnce: %s\n",
              all_exact ? "yes" : "NO");

  FILE* json = std::fopen("BENCH_serving.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n  \"bench\": \"serving_throughput\",\n%s"
                 "  \"shards\": %d,\n  \"clients\": %d,\n"
                 "  \"rows_per_request\": %d,\n  \"k\": %d,\n"
                 "  \"scale\": %g,\n  \"runs\": [\n",
                 EnvJson(DetectEnv()).c_str(), shards, clients,
                 kRowsPerRequest, kNeighbors, args.scale);
    for (size_t i = 0; i < runs.size(); ++i) {
      const ServingRun& run = runs[i];
      std::fprintf(
          json,
          "    {\"name\": \"%s\", \"n\": %zu, \"queries\": %zu, "
          "\"max_batch_size\": %d, \"wall_s\": %.6f, \"qps\": %.1f, "
          "\"mean_batch_size\": %.3f, \"batch_occupancy\": %.4f, "
          "\"amortized_sim_s_per_query\": %.9g, "
          "\"critical_sim_s\": %.9g, \"total_sim_s\": %.9g, "
          "\"latency_s\": {\"p50\": %.9g, \"p90\": %.9g, \"p99\": %.9g}, "
          "\"queue_wait_s\": {\"p50\": %.9g, \"p90\": %.9g, \"p99\": %.9g}, "
          "\"sim_stage_s\": {\"level1\": %.9g, \"level2\": %.9g, "
          "\"transfer\": %.9g, \"preprocess\": %.9g}, "
          "\"exact\": %s}%s\n",
          run.name.c_str(), run.n, run.num_queries, run.max_batch_size,
          run.wall_s, run.qps, run.mean_batch, run.occupancy,
          run.amortized_sim_s, run.critical_sim_s, run.total_sim_s,
          run.latency_p50_s, run.latency_p90_s, run.latency_p99_s,
          run.queue_wait_p50_s, run.queue_wait_p90_s, run.queue_wait_p99_s,
          run.sim_level1_s, run.sim_level2_s, run.sim_transfer_s,
          run.sim_preprocess_s, run.exact ? "true" : "false",
          i + 1 < runs.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n  \"all_exact\": %s\n}\n",
                 all_exact ? "true" : "false");
    std::fclose(json);
    std::printf("wrote BENCH_serving.json\n");
  }
  return all_exact ? 0 : 1;
}

}  // namespace
}  // namespace sweetknn::bench

int main(int argc, char** argv) { return sweetknn::bench::Main(argc, argv); }
