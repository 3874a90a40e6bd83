// Measures the multi-process serving path: concurrent clients firing
// small JoinBatch requests at a router/worker cluster
// (docs/distributed.md), swept over the worker count. For each
// (dataset, workers) point it reports host throughput, request-latency
// percentiles from the clients' own per-request timings, queue-wait
// percentiles from the serving front-end's registry series (the names
// the in-process backend exports), and the failure-path counters
// (worker deaths, RPC timeouts, retried groups), while asserting that
// every clustered answer is bit-identical to an in-process KnnService
// over the same target and request sequence. Emits BENCH_cluster.json.
//
// The worker binary is --worker-binary=PATH, else the SWEETKNN_CLI
// environment variable, else the build tree's sweetknn_cli; the
// benchmark fails when that file does not exist.
//
// Usage: cluster_throughput [--scale=F] [--only=a,b] [--shards=N]
//        [--clients=N] [--replicas=R] [--worker-binary=PATH]

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "serve/knn_service.h"
#include "serve/router.h"

namespace sweetknn::bench {
namespace {

constexpr int kNeighbors = 10;
constexpr int kRowsPerRequest = 2;

struct ClusterRun {
  std::string name;
  size_t n = 0;
  size_t num_queries = 0;
  int workers = 0;
  double wall_s = 0.0;
  double qps = 0.0;
  double latency_p50_s = 0.0;
  double latency_p90_s = 0.0;
  double latency_p99_s = 0.0;
  double queue_wait_p50_s = 0.0;
  double queue_wait_p90_s = 0.0;
  double queue_wait_p99_s = 0.0;
  uint64_t worker_deaths = 0;
  uint64_t rpc_timeouts = 0;
  uint64_t retried_groups = 0;
  bool exact = false;
};

/// The query workload: a prefix of the target set, matching
/// serving_throughput so the two benches are comparable point for point.
HostMatrix QueryPrefix(const HostMatrix& points) {
  const size_t rows = std::min<size_t>(points.rows(), 192);
  HostMatrix queries(rows, points.cols());
  std::memcpy(queries.mutable_data(), points.row(0),
              rows * points.cols() * sizeof(float));
  return queries;
}

/// Nearest-rank q-quantile of `samples` (sorted in place); 0 when empty.
double Quantile(std::vector<double>* samples, double q) {
  if (samples->empty()) return 0.0;
  std::sort(samples->begin(), samples->end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(samples->size())));
  return (*samples)[std::clamp<size_t>(rank, 1, samples->size()) - 1];
}

HostMatrix RequestSlice(const HostMatrix& queries, size_t request) {
  const size_t begin = request * kRowsPerRequest;
  const size_t rows = std::min<size_t>(kRowsPerRequest, queries.rows() - begin);
  HostMatrix slice(rows, queries.cols());
  std::memcpy(slice.mutable_data(), queries.row(begin),
              rows * queries.cols() * sizeof(float));
  return slice;
}

ClusterRun RunOne(const dataset::Dataset& data, const HostMatrix& queries,
                  const std::vector<KnnResult>& reference,
                  const serve::ServiceConfig& service_config, int workers,
                  int replicas, const std::string& worker_binary,
                  int clients) {
  serve::RouterConfig config;
  config.service = service_config;
  config.num_workers = workers;
  config.replicas = replicas;
  config.worker_binary = worker_binary;
  Result<std::unique_ptr<serve::Router>> started =
      serve::Router::Start(data.points, config);
  if (!started.ok()) {
    std::fprintf(stderr, "Router::Start(%d workers) failed: %s\n", workers,
                 started.status().ToString().c_str());
    std::exit(1);
  }
  serve::Router& router = *started.value();

  const size_t requests_total =
      (queries.rows() + kRowsPerRequest - 1) / kRowsPerRequest;
  const size_t per_client =
      (requests_total + static_cast<size_t>(clients) - 1) /
      static_cast<size_t>(clients);
  std::vector<KnnResult> answers(requests_total);
  std::vector<double> latency_s(requests_total);

  const Stopwatch wall;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const size_t first = static_cast<size_t>(c) * per_client;
      const size_t last = std::min(requests_total, first + per_client);
      for (size_t r = first; r < last; ++r) {
        const HostMatrix slice = RequestSlice(queries, r);
        const auto start = std::chrono::steady_clock::now();
        answers[r] = router.JoinBatch(slice, kNeighbors).value();
        latency_s[r] = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall_s = wall.ElapsedSeconds();

  bool exact = true;
  for (size_t r = 0; r < requests_total && exact; ++r) {
    const KnnResult& want = reference[r];
    const KnnResult& got = answers[r];
    exact = got.num_queries() == want.num_queries() && got.k() == want.k() &&
            std::memcmp(got.row(0), want.row(0),
                        want.num_queries() * static_cast<size_t>(want.k()) *
                            sizeof(Neighbor)) == 0;
  }

  const serve::ClusterStats stats = router.stats();
  ClusterRun run;
  run.n = data.n();
  run.num_queries = queries.rows();
  run.workers = workers;
  run.wall_s = wall_s;
  run.qps = static_cast<double>(stats.queries) / wall_s;
  run.latency_p50_s = Quantile(&latency_s, 0.50);
  run.latency_p90_s = Quantile(&latency_s, 0.90);
  run.latency_p99_s = Quantile(&latency_s, 0.99);
  const common::HistogramSnapshot queue_wait =
      router.metrics().SnapshotHistogram("sweetknn_queue_wait_seconds");
  run.queue_wait_p50_s = queue_wait.Percentile(0.50);
  run.queue_wait_p90_s = queue_wait.Percentile(0.90);
  run.queue_wait_p99_s = queue_wait.Percentile(0.99);
  run.worker_deaths = stats.worker_deaths;
  run.rpc_timeouts = stats.rpc_timeouts;
  run.retried_groups = stats.retried_groups;
  run.exact = exact;
  router.Shutdown();
  return run;
}

int Main(int argc, char** argv) {
  int shards = 4;
  int clients = 4;
  int replicas = 0;
  std::string worker_binary = SWEETKNN_CLUSTER_WORKER_BINARY;
  if (const char* env = std::getenv("SWEETKNN_CLI")) worker_binary = env;
  std::vector<char*> rest;
  rest.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--shards=", 0) == 0) {
      shards = std::atoi(arg.c_str() + 9);
    } else if (arg.rfind("--clients=", 0) == 0) {
      clients = std::atoi(arg.c_str() + 10);
    } else if (arg.rfind("--replicas=", 0) == 0) {
      replicas = std::atoi(arg.c_str() + 11);
    } else if (arg.rfind("--worker-binary=", 0) == 0) {
      worker_binary = arg.substr(16);
    } else {
      rest.push_back(argv[i]);
    }
  }
  if (!std::filesystem::exists(worker_binary)) {
    std::fprintf(stderr,
                 "cluster_throughput: worker binary '%s' does not exist "
                 "(pass --worker-binary=PATH or set SWEETKNN_CLI)\n",
                 worker_binary.c_str());
    return 1;
  }
  const BenchArgs args =
      BenchArgs::Parse(static_cast<int>(rest.size()), rest.data());
  const std::vector<int> worker_counts = {1, 2, 4};

  std::printf("=== Cluster serving: %d shards, %d replicas, %d concurrent "
              "clients, %d-row requests, k=%d ===\n\n",
              shards, replicas, clients, kRowsPerRequest, kNeighbors);
  PrintTableHeader({"dataset", "n", "workers", "wall(s)", "qps", "p50(us)",
                    "p99(us)", "deaths", "timeouts", "exact"});

  std::vector<ClusterRun> runs;
  bool all_exact = true;
  for (const auto& info : dataset::PaperDatasets()) {
    if (!args.WantDataset(info.name)) continue;
    const dataset::Dataset data = LoadPaperDataset(info.name, args);
    const HostMatrix queries = QueryPrefix(data.points);

    // The reference: the in-process serving backend over the identical
    // target and request sequence. The cluster must reproduce it
    // byte for byte, whatever the worker count.
    serve::ServiceConfig service_config;
    service_config.num_shards = shards;
    service_config.max_batch_size = 8;
    const size_t requests_total =
        (queries.rows() + kRowsPerRequest - 1) / kRowsPerRequest;
    std::vector<KnnResult> reference(requests_total);
    {
      serve::KnnService local(data.points, service_config);
      for (size_t r = 0; r < requests_total; ++r) {
        reference[r] =
            local.JoinBatch(RequestSlice(queries, r), kNeighbors).value();
      }
      local.Shutdown();
    }

    for (int workers : worker_counts) {
      if (workers > shards) continue;
      ClusterRun run = RunOne(data, queries, reference, service_config,
                              workers, replicas, worker_binary, clients);
      run.name = info.name;
      all_exact = all_exact && run.exact;
      PrintTableRow({run.name, std::to_string(run.n),
                     std::to_string(run.workers), FormatDouble(run.wall_s, 3),
                     FormatDouble(run.qps, 0),
                     FormatDouble(run.latency_p50_s * 1e6, 1),
                     FormatDouble(run.latency_p99_s * 1e6, 1),
                     std::to_string(run.worker_deaths),
                     std::to_string(run.rpc_timeouts),
                     run.exact ? "yes" : "NO"});
      runs.push_back(std::move(run));
    }
  }
  std::printf("\nall cluster answers bit-identical to in-process "
              "KnnService: %s\n",
              all_exact ? "yes" : "NO");

  FILE* json = std::fopen("BENCH_cluster.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n  \"bench\": \"cluster_throughput\",\n%s"
                 "  \"shards\": %d,\n  \"replicas\": %d,\n"
                 "  \"clients\": %d,\n  \"rows_per_request\": %d,\n"
                 "  \"k\": %d,\n  \"scale\": %g,\n  \"runs\": [\n",
                 EnvJson(DetectEnv()).c_str(), shards, replicas, clients,
                 kRowsPerRequest, kNeighbors, args.scale);
    for (size_t i = 0; i < runs.size(); ++i) {
      const ClusterRun& run = runs[i];
      std::fprintf(
          json,
          "    {\"name\": \"%s\", \"n\": %zu, \"queries\": %zu, "
          "\"workers\": %d, \"wall_s\": %.6f, \"qps\": %.1f, "
          "\"latency_s\": {\"p50\": %.9g, \"p90\": %.9g, \"p99\": %.9g}, "
          "\"queue_wait_s\": {\"p50\": %.9g, \"p90\": %.9g, \"p99\": %.9g}, "
          "\"worker_deaths\": %llu, \"rpc_timeouts\": %llu, "
          "\"retried_groups\": %llu, \"exact\": %s}%s\n",
          run.name.c_str(), run.n, run.num_queries, run.workers, run.wall_s,
          run.qps, run.latency_p50_s, run.latency_p90_s, run.latency_p99_s,
          run.queue_wait_p50_s, run.queue_wait_p90_s, run.queue_wait_p99_s,
          static_cast<unsigned long long>(run.worker_deaths),
          static_cast<unsigned long long>(run.rpc_timeouts),
          static_cast<unsigned long long>(run.retried_groups),
          run.exact ? "true" : "false", i + 1 < runs.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n  \"all_exact\": %s\n}\n",
                 all_exact ? "true" : "false");
    std::fclose(json);
    std::printf("wrote BENCH_cluster.json\n");
  }
  return all_exact ? 0 : 1;
}

}  // namespace
}  // namespace sweetknn::bench

int main(int argc, char** argv) { return sweetknn::bench::Main(argc, argv); }
