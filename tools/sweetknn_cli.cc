// Command-line KNN join over CSV files.
//
//   sweetknn_cli --target=points.csv [--query=queries.csv] [--k=10]
//                [--engine=sweet|basic|brute] [--out=neighbors.csv]
//                [--profile]
//
// Reads headerless numeric CSVs (one point per row), runs the KNN join on
// the simulated device, and writes one output row per query:
//   idx0,dist0,idx1,dist1,...
// With no --query, runs a self-join of the target set. --profile prints
// the per-kernel simulated-time breakdown.
//
// A second mode drives the concurrent serving layer (docs/serving.md):
//
//   sweetknn_cli serve-bench --target=points.csv [--k=10] [--shards=2]
//                [--clients=4] [--requests=32] [--rows=4]
//                [--max-batch=64] [--wait-us=500] [--cache=0]
//                [--metrics-out=FILE] [--tenants=N [--weights=4,1,..]]
//                [--max-queue-depth=N]
//
// It builds a sharded KnnService over the target set, fires `clients`
// host threads each issuing `requests` JoinBatch calls of `rows` query
// rows (drawn cyclically from the target set), and prints the service
// counters: batches, mean batch size, occupancy, amortized simulated
// time per query, latency percentiles, and host throughput. With
// --snapshot-dir=DIR the service warm-starts from persisted shard
// snapshots (--require-warm turns a cold-build fallback into an error).
// With --cluster=N the same workload instead runs against the
// multi-process router/worker cluster (docs/distributed.md): N worker
// processes (this binary, re-exec'd as `shard-worker`), optionally
// --replicas=R copies of each shard; answers are verified bit-identical
// against an in-process KnnService over the same target before the
// counters print. The run's socket/work directory is removed on every
// exit path, including SIGINT/SIGTERM. With --tenants=N (in-process
// mode only) the bench hosts N named indexes over the same target set,
// round-robins the client threads across them, applies the --weights
// list to the weighted-fair scheduler, and prints a per-tenant
// served/shed/latency breakdown; --max-queue-depth (either mode) bounds
// admission so overload sheds instead of queueing without limit
// (docs/serving.md, "Multi-tenant serving"). Both modes print the same
// report, read from the same stats view and metric names.
// --metrics-out=FILE dumps the full metrics registry as JSON (see
// docs/serving.md, "Metrics"); render such a dump later with:
//
//   sweetknn_cli stats --metrics=FILE
//
// which auto-detects the JSON or Prometheus text format and prints a
// fixed-width table of every metric (histograms with
// count/mean/p50/p90/p99/max).
//
// Index persistence (docs/persistence.md):
//
//   sweetknn_cli index-build --target=points.csv --out-dir=DIR
//                [--shards=N] [--dataset=NAME] [--ann [--ann-degree=N]]
//   sweetknn_cli index-inspect --snapshot=FILE
//   sweetknn_cli index-verify --snapshot=FILE | --snapshot-dir=DIR
//
// index-build prepares the sharded index (Step-1 landmark clustering)
// and persists one snapshot per shard; with --ann it also builds the
// approximate tier's kNN graph per shard (docs/approx.md), persisted as
// the snapshot's v3 ANN section. index-inspect prints a snapshot's
// sections and provenance, including the ANN graph block (build params,
// entry points, degree histogram) when present; index-verify re-reads
// and fully validates snapshots (checksums + structural consistency +
// recomputed distances, including ANN graph edge ordering), exiting
// non-zero on the first bad file.
//
// Finally, `shard-worker --socket=PATH` is the cluster worker entry
// point (docs/distributed.md): it binds the unix socket and serves one
// router connection. Routers (serve-bench --cluster, the integration
// tests) spawn it themselves; it is not meant for interactive use.

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "baseline/brute_force_gpu.h"
#include "common/stopwatch.h"
#include "core/sweet_knn.h"
#include "dataset/io.h"
#include "gpusim/profile_report.h"
#include "serve/knn_service.h"
#include "serve/router.h"
#include "serve/scheduler.h"
#include "serve/shard_worker.h"
#include "store/snapshot.h"

namespace {

struct CliArgs {
  std::string target_path;
  std::string query_path;
  std::string out_path;
  std::string engine = "sweet";
  int k = 10;
  bool profile = false;
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --target=FILE [--query=FILE] [--k=N]\n"
               "          [--engine=sweet|basic|brute] [--out=FILE]"
               " [--profile]\n",
               argv0);
  return 2;
}

bool ParseArgs(int argc, char** argv, CliArgs* out) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      const size_t len = std::strlen(prefix);
      return arg.rfind(prefix, 0) == 0 ? arg.c_str() + len : nullptr;
    };
    if (const char* v = value("--target=")) {
      out->target_path = v;
    } else if (const char* v = value("--query=")) {
      out->query_path = v;
    } else if (const char* v = value("--out=")) {
      out->out_path = v;
    } else if (const char* v = value("--engine=")) {
      out->engine = v;
    } else if (const char* v = value("--k=")) {
      out->k = std::atoi(v);
    } else if (arg == "--profile") {
      out->profile = true;
    } else {
      return false;
    }
  }
  return !out->target_path.empty() && out->k > 0 &&
         (out->engine == "sweet" || out->engine == "basic" ||
          out->engine == "brute");
}

struct ServeBenchArgs {
  std::string target_path;
  int k = 10;
  int shards = 2;
  int clients = 4;
  int requests = 32;  // per client
  int rows = 4;       // query rows per JoinBatch request
  int max_batch = 64;
  int wait_us = 500;
  size_t cache = 0;
  std::string snapshot_dir;  // warm-start source, empty = cold build
  bool require_warm = false;
  std::string metrics_out;  // JSON metrics dump target, empty = none
  int cluster = 0;   // worker processes; 0 = in-process KnnService
  int replicas = 0;  // shard copies beyond the primary (cluster mode)
  int tenants = 1;   // named indexes; clients round-robin across them
  std::string weights;  // per-tenant weights "4,1,..." (default all 1.0)
  int max_queue_depth = 0;  // admission bound; 0 = unbounded
};

int ServeBenchUsage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s serve-bench --target=FILE [--k=N] [--shards=N]\n"
               "          [--clients=N] [--requests=N] [--rows=N]\n"
               "          [--max-batch=N] [--wait-us=N] [--cache=N]\n"
               "          [--snapshot-dir=DIR] [--require-warm]\n"
               "          [--cluster=N [--replicas=R]] [--metrics-out=FILE]\n"
               "          [--tenants=N [--weights=W1,..,WN]]\n"
               "          [--max-queue-depth=N]\n",
               argv0);
  return 2;
}

bool ParseServeBenchArgs(int argc, char** argv, ServeBenchArgs* out) {
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      const size_t len = std::strlen(prefix);
      return arg.rfind(prefix, 0) == 0 ? arg.c_str() + len : nullptr;
    };
    if (const char* v = value("--target=")) {
      out->target_path = v;
    } else if (const char* v = value("--k=")) {
      out->k = std::atoi(v);
    } else if (const char* v = value("--shards=")) {
      out->shards = std::atoi(v);
    } else if (const char* v = value("--clients=")) {
      out->clients = std::atoi(v);
    } else if (const char* v = value("--requests=")) {
      out->requests = std::atoi(v);
    } else if (const char* v = value("--rows=")) {
      out->rows = std::atoi(v);
    } else if (const char* v = value("--max-batch=")) {
      out->max_batch = std::atoi(v);
    } else if (const char* v = value("--wait-us=")) {
      out->wait_us = std::atoi(v);
    } else if (const char* v = value("--cache=")) {
      out->cache = static_cast<size_t>(std::atoll(v));
    } else if (const char* v = value("--snapshot-dir=")) {
      out->snapshot_dir = v;
    } else if (arg == "--require-warm") {
      out->require_warm = true;
    } else if (const char* v = value("--metrics-out=")) {
      out->metrics_out = v;
    } else if (const char* v = value("--cluster=")) {
      out->cluster = std::atoi(v);
    } else if (const char* v = value("--replicas=")) {
      out->replicas = std::atoi(v);
    } else if (const char* v = value("--tenants=")) {
      out->tenants = std::atoi(v);
    } else if (const char* v = value("--weights=")) {
      out->weights = v;
    } else if (const char* v = value("--max-queue-depth=")) {
      out->max_queue_depth = std::atoi(v);
    } else {
      return false;
    }
  }
  return !out->target_path.empty() && out->k > 0 && out->shards > 0 &&
         out->clients > 0 && out->requests > 0 && out->rows > 0 &&
         out->max_batch > 0 && out->wait_us >= 0 && out->cluster >= 0 &&
         out->replicas >= 0 && out->tenants >= 1 &&
         out->max_queue_depth >= 0;
}

// The binary to re-exec as `shard-worker` for --cluster runs: this very
// executable, resolved through /proc/self/exe so a relative argv[0]
// keeps working after the router chdir-free spawn.
std::string WorkerBinaryPath(const char* argv0) {
  std::error_code ec;
  const std::filesystem::path self =
      std::filesystem::read_symlink("/proc/self/exe", ec);
  if (!ec && !self.empty()) return self.string();
  return argv0;
}

// Per-tenant request outcomes of one serve-bench run.
struct ServeTally {
  explicit ServeTally(size_t tenants) : served(tenants), shed(tenants) {}
  std::vector<std::atomic<uint64_t>> served;
  std::vector<std::atomic<uint64_t>> shed;
};

using ServeJoin = std::function<sweetknn::Result<sweetknn::KnnResult>(
    const sweetknn::HostMatrix&, const sweetknn::serve::CallOptions&)>;

// Fires the bench's client threads through `join` — the same workload on
// either backend — and returns the wall seconds. Client c drives tenant
// c mod N for its whole run, so every tenant sees sustained load; query
// rows cycle through the target set, staggered per client. A shed
// (kUnavailable) is tallied, not retried — the bench reports the shed
// rate --max-queue-depth produced; any other failure stops the client.
double RunServeClients(const ServeBenchArgs& args,
                       const sweetknn::HostMatrix& points,
                       const std::vector<std::string>& tenants,
                       const ServeJoin& join, ServeTally* tally) {
  using namespace sweetknn;
  const Stopwatch wall;
  std::vector<std::thread> clients;
  for (int c = 0; c < args.clients; ++c) {
    clients.emplace_back([&, c] {
      const size_t tenant_idx = static_cast<size_t>(c) % tenants.size();
      serve::CallOptions opts;
      opts.tenant = tenants[tenant_idx];
      for (int r = 0; r < args.requests; ++r) {
        HostMatrix batch(static_cast<size_t>(args.rows), points.cols());
        const size_t base = static_cast<size_t>(c * args.requests + r) *
                            static_cast<size_t>(args.rows);
        for (int row = 0; row < args.rows; ++row) {
          const size_t src = (base + static_cast<size_t>(row)) %
                             points.rows();
          std::memcpy(batch.mutable_row(static_cast<size_t>(row)),
                      points.row(src), points.cols() * sizeof(float));
        }
        const Result<KnnResult> answer = join(batch, opts);
        if (answer.ok()) {
          tally->served[tenant_idx].fetch_add(1, std::memory_order_relaxed);
        } else if (answer.status().code() == StatusCode::kUnavailable) {
          tally->shed[tenant_idx].fetch_add(1, std::memory_order_relaxed);
        } else {
          return;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  return wall.ElapsedSeconds();
}

// The report both serve-bench legs print: counters from the backend's
// stats view, percentiles from the registry series both backends share.
void PrintServeReport(const sweetknn::serve::ServiceStats& stats,
                      const sweetknn::common::MetricsRegistry& metrics,
                      const ServeBenchArgs& args, int num_shards,
                      double wall_s) {
  using namespace sweetknn;
  std::printf("requests %llu queries %llu batches %llu groups %llu\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.queries),
              static_cast<unsigned long long>(stats.batches),
              static_cast<unsigned long long>(stats.engine_groups));
  std::printf("mean batch size %.2f, batch occupancy %.1f%%, "
              "peak queue depth %llu\n",
              stats.MeanBatchSize(),
              stats.BatchOccupancy(args.max_batch) * 100.0,
              static_cast<unsigned long long>(stats.peak_queue_depth));
  std::printf("amortized sim time per query %.3f us "
              "(critical %.6f s, total %.6f s over %d shards)\n",
              stats.AmortizedSimTimePerQuery() * 1e6,
              stats.critical_sim_time_s, stats.total_sim_time_s,
              num_shards);
  if (args.cache > 0) {
    std::printf("cache lookups %llu hits %llu\n",
                static_cast<unsigned long long>(stats.cache_lookups),
                static_cast<unsigned long long>(stats.cache_hits));
  }
  const common::HistogramSnapshot latency =
      metrics.SnapshotHistogram("sweetknn_request_latency_seconds");
  const common::HistogramSnapshot queue_wait =
      metrics.SnapshotHistogram("sweetknn_queue_wait_seconds");
  std::printf("request latency p50 %.1f us p90 %.1f us p99 %.1f us "
              "(queue wait p99 %.1f us)\n",
              latency.Percentile(0.50) * 1e6, latency.Percentile(0.90) * 1e6,
              latency.Percentile(0.99) * 1e6,
              queue_wait.Percentile(0.99) * 1e6);
  std::printf("shed total %llu of %llu offered\n",
              static_cast<unsigned long long>(stats.shed_requests),
              static_cast<unsigned long long>(stats.shed_requests +
                                              stats.requests));
  std::printf("wall %.3f s (%.0f queries/s)\n", wall_s,
              static_cast<double>(stats.queries) / wall_s);
}

// Writes the registry export to --metrics-out when one was given; false
// when the file cannot be written.
bool WriteMetricsOut(const ServeBenchArgs& args, const std::string& json) {
  if (args.metrics_out.empty()) return true;
  std::ofstream out(args.metrics_out);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", args.metrics_out.c_str());
    return false;
  }
  out << json;
  std::fprintf(stderr, "metrics written to %s\n", args.metrics_out.c_str());
  return true;
}

// The --cluster run's scratch directory (worker sockets, catch-up
// snapshots). Written once before the signal handlers install, cleared
// when the run owns no directory; the handler removes it so a Ctrl-C'd
// bench does not leak /tmp/sweetknn-bench-* trees full of socket nodes.
char g_cluster_work_dir[512] = {0};

extern "C" void ClusterSignalExit(int /*sig*/) {
  if (g_cluster_work_dir[0] != '\0') {
    std::error_code ec;
    std::filesystem::remove_all(g_cluster_work_dir, ec);
  }
  std::_Exit(130);
}

int ClusterServeBench(const sweetknn::HostMatrix& points,
                      const ServeBenchArgs& args, const char* argv0) {
  using namespace sweetknn;
  if (!args.snapshot_dir.empty() || args.require_warm) {
    std::fprintf(stderr,
                 "error: --snapshot-dir/--require-warm are not supported "
                 "with --cluster (workers cold-build their slices)\n");
    return 2;
  }
  if (args.tenants > 1) {
    std::fprintf(stderr,
                 "error: --tenants is not supported with --cluster (a "
                 "worker set hosts one index; see docs/serving.md)\n");
    return 2;
  }

  // Own the cluster's work dir instead of letting the router mkdtemp its
  // own: a signal (or any early return) must remove the sockets, and the
  // router's cleanup only runs on an orderly Shutdown.
  std::string work_dir;
  {
    std::string tmpl = (std::filesystem::temp_directory_path() /
                        "sweetknn-bench-XXXXXX").string();
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    if (mkdtemp(buf.data()) == nullptr) {
      std::fprintf(stderr, "error: cannot create work dir under %s\n",
                   tmpl.c_str());
      return 1;
    }
    work_dir = buf.data();
  }
  std::snprintf(g_cluster_work_dir, sizeof(g_cluster_work_dir), "%s",
                work_dir.c_str());
  std::signal(SIGINT, ClusterSignalExit);
  std::signal(SIGTERM, ClusterSignalExit);
  // Declared before the router, so the router's destructor (worker
  // teardown, socket close) runs first on every exit path.
  struct WorkDirGuard {
    std::string dir;
    ~WorkDirGuard() {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
      g_cluster_work_dir[0] = '\0';
      std::signal(SIGINT, SIG_DFL);
      std::signal(SIGTERM, SIG_DFL);
    }
  } guard{work_dir};

  serve::RouterConfig config;
  config.work_dir = work_dir;
  config.service.num_shards = args.shards;
  config.service.max_batch_size = args.max_batch;
  config.service.max_batch_wait = std::chrono::microseconds(args.wait_us);
  config.service.max_queue_depth = static_cast<size_t>(args.max_queue_depth);
  config.num_workers = args.cluster;
  config.replicas = args.replicas;
  config.worker_binary = WorkerBinaryPath(argv0);

  const Stopwatch start_watch;
  Result<std::unique_ptr<serve::Router>> started =
      serve::Router::Start(points, config);
  if (!started.ok()) {
    std::fprintf(stderr, "error: %s\n", started.status().ToString().c_str());
    return 1;
  }
  serve::Router& router = *started.value();
  const double start_s = start_watch.ElapsedSeconds();
  std::fprintf(stderr,
               "serve-bench: target %zu x %zu, k=%d, shards=%d over "
               "%d workers (+%d replicas, started in %.3f s), "
               "clients=%d x %d requests x %d rows\n",
               points.rows(), points.cols(), args.k, router.num_shards(),
               router.num_workers(), args.replicas, start_s, args.clients,
               args.requests, args.rows);

  // Bit-identity probe before the timed run: one batch through the
  // cluster must match an in-process KnnService byte for byte
  // (docs/distributed.md; the full proof lives in
  // tests/integration/cluster_differential_test.cc).
  {
    const size_t probe_rows =
        std::min<size_t>(static_cast<size_t>(args.rows), points.rows());
    HostMatrix probe(probe_rows, points.cols());
    for (size_t row = 0; row < probe_rows; ++row) {
      std::memcpy(probe.mutable_row(row), points.row(row),
                  points.cols() * sizeof(float));
    }
    serve::KnnService reference(points, config.service);
    const Result<KnnResult> want = reference.JoinBatch(probe, args.k);
    const Result<KnnResult> got = router.JoinBatch(probe, args.k);
    if (!want.ok() || !got.ok()) {
      std::fprintf(stderr, "error: bit-identity probe failed: %s\n",
                   (!want.ok() ? want.status() : got.status())
                       .ToString()
                       .c_str());
      return 1;
    }
    const size_t bytes = want.value().num_queries() *
                         static_cast<size_t>(want.value().k()) *
                         sizeof(Neighbor);
    if (got.value().num_queries() != want.value().num_queries() ||
        got.value().k() != want.value().k() ||
        std::memcmp(got.value().row(0), want.value().row(0), bytes) != 0) {
      std::fprintf(stderr,
                   "error: cluster answers diverge from the in-process "
                   "service on the probe batch\n");
      return 1;
    }
    std::fprintf(stderr, "bit-identity probe: cluster == local (%zu x k=%d)\n",
                 probe_rows, args.k);

    // Job-mode probe (docs/modalities.md): a radius scan, a self-join,
    // and a kNN graph through the cluster's wire-job pipeline must also
    // match the in-process service byte for byte. The radius is the
    // first probe row's kth-neighbor distance, so it tracks the data
    // scale whatever the dataset.
    float probe_radius = 1.0f;
    for (int i = args.k - 1; i >= 0; --i) {
      if (want.value().row(0)[i].index != kInvalidNeighbor) {
        probe_radius = want.value().row(0)[i].distance;
        break;
      }
    }
    const Result<RangeResult> range_want =
        reference.RadiusSearch(probe, probe_radius);
    const Result<RangeResult> range_got =
        router.RadiusSearch(probe, probe_radius);
    const Result<std::vector<SelfJoinPair>> join_want =
        reference.SelfJoin(probe_radius);
    const Result<std::vector<SelfJoinPair>> join_got =
        router.SelfJoin(probe_radius);
    const Result<serve::JobOutput> graph_want = reference.KnnGraph(args.k);
    const Result<serve::JobOutput> graph_got = router.KnnGraph(args.k);
    reference.Shutdown();
    for (const auto* status :
         {&range_want, &range_got}) {
      if (!status->ok()) {
        std::fprintf(stderr, "error: job probe failed: %s\n",
                     status->status().ToString().c_str());
        return 1;
      }
    }
    if (!join_want.ok() || !join_got.ok() || !graph_want.ok() ||
        !graph_got.ok()) {
      std::fprintf(stderr, "error: job probe failed: %s\n",
                   (!join_want.ok()   ? join_want.status()
                    : !join_got.ok()  ? join_got.status()
                    : !graph_want.ok() ? graph_want.status()
                                       : graph_got.status())
                       .ToString()
                       .c_str());
      return 1;
    }
    if (!BitIdentical(range_want.value(), range_got.value())) {
      std::fprintf(stderr,
                   "error: cluster RadiusSearch diverges from the "
                   "in-process service\n");
      return 1;
    }
    if (join_want.value().size() != join_got.value().size() ||
        !std::equal(join_want.value().begin(), join_want.value().end(),
                    join_got.value().begin())) {
      std::fprintf(stderr,
                   "error: cluster SelfJoin diverges from the in-process "
                   "service\n");
      return 1;
    }
    const KnnResult& graph_a = graph_want.value().graph;
    const KnnResult& graph_b = graph_got.value().graph;
    const size_t graph_bytes = graph_a.num_queries() *
                               static_cast<size_t>(graph_a.k()) *
                               sizeof(Neighbor);
    if (graph_want.value().query_ids != graph_got.value().query_ids ||
        graph_a.num_queries() != graph_b.num_queries() ||
        graph_a.k() != graph_b.k() ||
        (graph_bytes != 0 &&
         std::memcmp(graph_a.row(0), graph_b.row(0), graph_bytes) != 0)) {
      std::fprintf(stderr,
                   "error: cluster KnnGraph diverges from the in-process "
                   "service\n");
      return 1;
    }
    std::fprintf(stderr,
                 "job probe: cluster == local (radius %.3g: %llu matches, "
                 "%zu pairs; graph %zu x k=%d)\n",
                 static_cast<double>(probe_radius),
                 static_cast<unsigned long long>(
                     range_want.value().total_matches()),
                 join_want.value().size(), graph_a.num_queries(),
                 graph_a.k());
  }

  ServeTally tally(1);
  const double wall_s = RunServeClients(
      args, points, {serve::kDefaultTenant},
      [&](const HostMatrix& batch, const serve::CallOptions& opts) {
        return router.JoinBatch(batch, args.k, ann::SearchMode::Exact(),
                                opts);
      },
      &tally);

  const serve::ClusterStats stats = router.stats();
  PrintServeReport(stats, router.metrics(), args, router.num_shards(),
                   wall_s);
  std::printf("worker deaths %llu rpc timeouts %llu retried groups %llu\n",
              static_cast<unsigned long long>(stats.worker_deaths),
              static_cast<unsigned long long>(stats.rpc_timeouts),
              static_cast<unsigned long long>(stats.retried_groups));
  if (!WriteMetricsOut(args, router.ExportMetricsJson())) return 1;
  router.Shutdown();
  return 0;
}

int ServeBench(int argc, char** argv) {
  using namespace sweetknn;
  ServeBenchArgs args;
  if (!ParseServeBenchArgs(argc, argv, &args)) return ServeBenchUsage(argv[0]);

  const auto target = dataset::LoadCsv("target", args.target_path);
  if (!target.ok()) {
    std::fprintf(stderr, "error: %s\n", target.status().ToString().c_str());
    return 1;
  }
  const HostMatrix& points = target.value().points;
  if (args.cluster > 0) return ClusterServeBench(points, args, argv[0]);

  const Result<std::vector<double>> weights =
      serve::ParseWeightList(args.weights);
  if (!weights.ok()) {
    std::fprintf(stderr, "error: --weights: %s\n",
                 weights.status().ToString().c_str());
    return 2;
  }
  if (!weights.value().empty() &&
      weights.value().size() != static_cast<size_t>(args.tenants)) {
    std::fprintf(stderr, "error: --weights lists %zu entries for %d tenants\n",
                 weights.value().size(), args.tenants);
    return 2;
  }
  auto tenant_weight = [&](int t) {
    return weights.value().empty() ? 1.0
                                   : weights.value()[static_cast<size_t>(t)];
  };

  serve::ServiceConfig config;
  config.num_shards = args.shards;
  config.max_batch_size = args.max_batch;
  config.max_batch_wait = std::chrono::microseconds(args.wait_us);
  config.cache_capacity = args.cache;
  config.snapshot_dir = args.snapshot_dir;
  config.max_queue_depth = static_cast<size_t>(args.max_queue_depth);
  serve::KnnService service(points, config);

  // Tenant 0 is the default index the service was built with; the rest
  // are named indexes over the same target set, so every tenant answers
  // identically and the bench measures scheduling, not index luck.
  std::vector<std::string> tenant_names = {serve::kDefaultTenant};
  if (tenant_weight(0) != 1.0) {
    (void)service.SetIndexWeight(serve::kDefaultTenant, tenant_weight(0));
  }
  for (int t = 1; t < args.tenants; ++t) {
    const std::string name = "tenant-" + std::to_string(t);
    const sweetknn::Status created =
        service.CreateIndex(name, points, tenant_weight(t));
    if (!created.ok()) {
      std::fprintf(stderr, "error: CreateIndex(%s): %s\n", name.c_str(),
                   created.ToString().c_str());
      return 1;
    }
    tenant_names.push_back(name);
  }
  const uint64_t warm_shards = service.stats().warm_started_shards;
  if (args.require_warm && warm_shards == 0) {
    std::fprintf(stderr,
                 "error: --require-warm, but the service cold-built its "
                 "shards (snapshot dir '%s' unusable)\n",
                 args.snapshot_dir.c_str());
    return 1;
  }
  std::fprintf(stderr,
               "serve-bench: target %zu x %zu, k=%d, shards=%d (%s), "
               "clients=%d x %d requests x %d rows\n",
               points.rows(), points.cols(), args.k, service.num_shards(),
               warm_shards > 0 ? "warm-started" : "cold-built",
               args.clients, args.requests, args.rows);

  ServeTally tally(tenant_names.size());
  const double wall_s = RunServeClients(
      args, points, tenant_names,
      [&](const HostMatrix& batch, const serve::CallOptions& opts) {
        return service.JoinBatch(batch, args.k, ann::SearchMode::Exact(),
                                 opts);
      },
      &tally);
  service.Shutdown();

  PrintServeReport(service.stats(), service.metrics(), args,
                   service.num_shards(), wall_s);
  if (args.tenants > 1) {
    for (size_t t = 0; t < tenant_names.size(); ++t) {
      const common::HistogramSnapshot tenant_latency =
          service.metrics().SnapshotHistogram(
              "sweetknn_tenant_request_latency_seconds{" +
              common::TenantLabel(tenant_names[t]) + "}");
      std::printf("tenant %-12s weight %.2f served %llu shed %llu "
                  "p50 %.1f us p99 %.1f us\n",
                  tenant_names[t].c_str(), tenant_weight(static_cast<int>(t)),
                  static_cast<unsigned long long>(tally.served[t].load()),
                  static_cast<unsigned long long>(tally.shed[t].load()),
                  tenant_latency.Percentile(0.50) * 1e6,
                  tenant_latency.Percentile(0.99) * 1e6);
    }
  }
  return WriteMetricsOut(args, service.ExportMetricsJson()) ? 0 : 1;
}

// --- stats: render a metrics dump ------------------------------------------

int Stats(int argc, char** argv) {
  using namespace sweetknn;
  std::string path;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--metrics=", 0) == 0) {
      path = arg.substr(std::strlen("--metrics="));
    }
  }
  if (path.empty()) {
    std::fprintf(stderr, "usage: %s stats --metrics=FILE\n", argv[0]);
    return 2;
  }
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot read %s\n", path.c_str());
    return 1;
  }
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Both exporter formats are accepted: a JSON document opens with '{',
  // Prometheus text with a '#' comment or a bare sample name.
  const size_t first = text.find_first_not_of(" \t\r\n");
  const bool json = first != std::string::npos && text[first] == '{';
  common::MetricsRegistry registry;
  const Status parsed =
      json ? common::ParseMetricsJson(text, &registry)
           : common::ParseMetricsPrometheusText(text, &registry);
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: %s: %s\n", path.c_str(),
                 parsed.ToString().c_str());
    return 1;
  }
  std::fputs(registry.FormatTable().c_str(), stdout);
  return 0;
}

// --- index-build / index-inspect / index-verify ----------------------------

int IndexBuild(int argc, char** argv) {
  using namespace sweetknn;
  std::string target_path;
  std::string out_dir;
  std::string dataset_name;
  int shards = 2;
  bool ann = false;
  int ann_degree = 0;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      const size_t len = std::strlen(prefix);
      return arg.rfind(prefix, 0) == 0 ? arg.c_str() + len : nullptr;
    };
    if (const char* v = value("--target=")) {
      target_path = v;
    } else if (const char* v = value("--out-dir=")) {
      out_dir = v;
    } else if (const char* v = value("--dataset=")) {
      dataset_name = v;
    } else if (const char* v = value("--shards=")) {
      shards = std::atoi(v);
    } else if (arg == "--ann") {
      ann = true;
    } else if (const char* v = value("--ann-degree=")) {
      ann = true;  // an explicit degree implies the tier
      ann_degree = std::atoi(v);
    } else {
      target_path.clear();
      break;
    }
  }
  if (target_path.empty() || out_dir.empty() || shards <= 0 ||
      ann_degree < 0) {
    std::fprintf(stderr,
                 "usage: %s index-build --target=FILE --out-dir=DIR"
                 " [--shards=N] [--dataset=NAME] [--ann [--ann-degree=N]]\n",
                 argv[0]);
    return 2;
  }

  const auto target = dataset::LoadCsv(
      dataset_name.empty() ? "target" : dataset_name, target_path);
  if (!target.ok()) {
    std::fprintf(stderr, "error: %s\n", target.status().ToString().c_str());
    return 1;
  }
  const HostMatrix& points = target.value().points;

  serve::ServiceConfig config;
  config.num_shards = shards;
  config.dataset_name = target.value().name;
  config.enable_ann = ann;
  if (ann_degree > 0) {
    config.ann_params.degree = static_cast<uint32_t>(ann_degree);
  }
  const Stopwatch build;
  serve::KnnService service(points, config);
  const double build_s = build.ElapsedSeconds();
  const Status saved = service.SaveSnapshots(out_dir);
  if (!saved.ok()) {
    std::fprintf(stderr, "error: %s\n", saved.ToString().c_str());
    return 1;
  }
  service.Shutdown();

  std::fprintf(stderr, "index-build: %zu x %zu rows, %d shards, %.3f s\n",
               points.rows(), points.cols(), service.num_shards(), build_s);
  uintmax_t total_bytes = 0;
  for (int s = 0; s < service.num_shards(); ++s) {
    const std::string path =
        store::ShardSnapshotPath(out_dir, s, service.num_shards());
    std::error_code ec;
    const uintmax_t bytes = std::filesystem::file_size(path, ec);
    total_bytes += ec ? 0 : bytes;
    std::printf("%s %ju bytes\n", path.c_str(),
                static_cast<uintmax_t>(ec ? 0 : bytes));
  }
  std::printf("total %ju bytes in %d snapshots\n", total_bytes,
              service.num_shards());
  return 0;
}

const char* SectionName(uint32_t id) {
  switch (id) {
    case sweetknn::store::kSectionMeta: return "meta";
    case sweetknn::store::kSectionFingerprint: return "fingerprint";
    case sweetknn::store::kSectionTarget: return "target";
    case sweetknn::store::kSectionClustering: return "clustering";
    case sweetknn::store::kSectionMutation: return "mutation";
    case sweetknn::store::kSectionAnnGraph: return "ann-graph";
    default: return "?";
  }
}

int IndexInspect(int argc, char** argv) {
  using namespace sweetknn;
  std::string path;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--snapshot=", 0) == 0) {
      path = arg.substr(std::strlen("--snapshot="));
    }
  }
  if (path.empty()) {
    std::fprintf(stderr, "usage: %s index-inspect --snapshot=FILE\n",
                 argv[0]);
    return 2;
  }

  Result<store::SnapshotReader> reader = store::SnapshotReader::Open(path);
  if (!reader.ok()) {
    std::fprintf(stderr, "error: %s\n", reader.status().ToString().c_str());
    return 1;
  }
  std::printf("%s: format version %u, %llu bytes\n", path.c_str(),
              reader.value().format_version(),
              static_cast<unsigned long long>(reader.value().file_size()));
  for (const store::SnapshotReader::SectionInfo& s :
       reader.value().sections()) {
    std::printf("  section %u (%s): %llu bytes, crc32 %08x\n", s.id,
                SectionName(s.id), static_cast<unsigned long long>(s.size),
                s.crc);
  }

  Result<store::IndexSnapshot> snap = store::LoadIndexSnapshot(path);
  if (!snap.ok()) {
    std::fprintf(stderr, "error: %s\n", snap.status().ToString().c_str());
    return 1;
  }
  const store::IndexSnapshot& index = snap.value();
  std::printf("dataset '%s' built by '%s'\n", index.dataset_name.c_str(),
              index.builder.c_str());
  std::printf("shard %u of %u, global rows [%llu, %llu)\n",
              index.shard_index, index.shard_count,
              static_cast<unsigned long long>(index.shard_offset),
              static_cast<unsigned long long>(index.shard_offset +
                                              index.target.rows()));
  std::printf("target %zu x %zu, %d landmark clusters\n",
              index.target.rows(), index.target.cols(),
              index.clustering.num_clusters);
  std::printf("options [%s]\n", index.options_fingerprint.c_str());
  std::printf("device [%s]\n", index.device_fingerprint.c_str());
  if (index.HasOverlay()) {
    std::printf("mutation overlay: %zu delta points, %zu tombstones, "
                "next id %u\n",
                index.delta_ids.size(), index.tombstones.size(),
                index.next_id);
  }
  if (index.HasAnnGraph()) {
    const ann::KnnGraph& g = index.ann_graph;
    std::printf("ann graph: %u nodes x degree %u, built in %u rounds "
                "(seed %llu)\n",
                g.num_nodes, g.degree, g.build_iters,
                static_cast<unsigned long long>(g.build_seed));
    std::printf("  entry points (%zu):", g.entry_points.size());
    const size_t show = std::min<size_t>(g.entry_points.size(), 8);
    for (size_t i = 0; i < show; ++i) {
      std::printf(" %u", g.entry_points[i]);
    }
    if (show < g.entry_points.size()) std::printf(" ...");
    std::printf("\n");
    const std::vector<size_t> hist = g.DegreeHistogram();
    std::printf("  degree histogram:");
    for (size_t d = 0; d < hist.size(); ++d) {
      if (hist[d] != 0) std::printf(" %zu:%zu", d, hist[d]);
    }
    std::printf("\n");
  }
  return 0;
}

int IndexVerify(int argc, char** argv) {
  using namespace sweetknn;
  std::vector<std::string> paths;
  std::string dir;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--snapshot=", 0) == 0) {
      paths.push_back(arg.substr(std::strlen("--snapshot=")));
    } else if (arg.rfind("--snapshot-dir=", 0) == 0) {
      dir = arg.substr(std::strlen("--snapshot-dir="));
    }
  }
  if (!dir.empty()) {
    Result<std::vector<std::string>> listed = store::ListShardSnapshots(dir);
    if (!listed.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   listed.status().ToString().c_str());
      return 1;
    }
    for (const std::string& p : listed.value()) paths.push_back(p);
  }
  if (paths.empty()) {
    std::fprintf(stderr,
                 "usage: %s index-verify --snapshot=FILE ..."
                 " | --snapshot-dir=DIR\n",
                 argv[0]);
    return 2;
  }

  for (const std::string& p : paths) {
    Result<store::IndexSnapshot> snap = store::LoadIndexSnapshot(p);
    if (!snap.ok()) {
      std::printf("FAIL %s: %s\n", p.c_str(),
                  snap.status().ToString().c_str());
      return 1;
    }
    // Beyond Load's structural checks: recompute every member distance
    // with the batch kernels and demand byte equality with the file.
    const Status deep = store::VerifySnapshotDistances(snap.value());
    if (!deep.ok()) {
      std::printf("FAIL %s: %s\n", p.c_str(), deep.ToString().c_str());
      return 1;
    }
    std::printf("OK %s (shard %u of %u, %zu x %zu, %d clusters%s, "
                "distances verified)\n",
                p.c_str(), snap.value().shard_index,
                snap.value().shard_count, snap.value().target.rows(),
                snap.value().target.cols(),
                snap.value().clustering.num_clusters,
                snap.value().HasAnnGraph() ? ", ann graph" : "");
  }
  return 0;
}

// --- shard-worker: cluster worker process entry point -----------------------

int ShardWorkerMain(int argc, char** argv) {
  using namespace sweetknn;
  std::string socket_path;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--socket=", 0) == 0) {
      socket_path = arg.substr(std::strlen("--socket="));
    }
  }
  if (socket_path.empty()) {
    std::fprintf(stderr, "usage: %s shard-worker --socket=PATH\n", argv[0]);
    return 2;
  }
  serve::ShardWorker worker(socket_path);
  const Status status = worker.Run();
  if (!status.ok()) {
    std::fprintf(stderr, "shard-worker: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sweetknn;
  if (argc > 1 && std::strcmp(argv[1], "shard-worker") == 0) {
    return ShardWorkerMain(argc, argv);
  }
  if (argc > 1 && std::strcmp(argv[1], "serve-bench") == 0) {
    return ServeBench(argc, argv);
  }
  if (argc > 1 && std::strcmp(argv[1], "stats") == 0) {
    return Stats(argc, argv);
  }
  if (argc > 1 && std::strcmp(argv[1], "index-build") == 0) {
    return IndexBuild(argc, argv);
  }
  if (argc > 1 && std::strcmp(argv[1], "index-inspect") == 0) {
    return IndexInspect(argc, argv);
  }
  if (argc > 1 && std::strcmp(argv[1], "index-verify") == 0) {
    return IndexVerify(argc, argv);
  }
  CliArgs args;
  if (!ParseArgs(argc, argv, &args)) return Usage(argv[0]);

  const auto target = dataset::LoadCsv("target", args.target_path);
  if (!target.ok()) {
    std::fprintf(stderr, "error: %s\n", target.status().ToString().c_str());
    return 1;
  }
  Result<dataset::Dataset> query = args.query_path.empty()
                                       ? target
                                       : dataset::LoadCsv(
                                             "query", args.query_path);
  if (!query.ok()) {
    std::fprintf(stderr, "error: %s\n", query.status().ToString().c_str());
    return 1;
  }

  const HostMatrix& query_points = args.query_path.empty()
                                       ? target.value().points
                                       : query.value().points;
  std::fprintf(stderr, "target: %zu x %zu, query: %zu x %zu, k=%d (%s)\n",
               target.value().n(), target.value().dims(),
               query_points.rows(), query_points.cols(), args.k,
               args.engine.c_str());

  gpusim::Device dev(gpusim::DeviceSpec::TeslaK20c());
  KnnResult result;
  if (args.engine == "brute") {
    baseline::BruteForceOptions options;
    baseline::BruteForceStats stats;
    result = baseline::BruteForceGpu(&dev, query_points,
                                     target.value().points, args.k, options,
                                     &stats);
    std::fprintf(stderr, "simulated time: %.3f ms\n",
                 stats.sim_time_s * 1e3);
    if (args.profile) {
      std::fputs(gpusim::FormatProfileReport(stats.profile).c_str(),
                 stderr);
    }
  } else {
    const core::TiOptions options = args.engine == "basic"
                                        ? core::TiOptions::BasicTi()
                                        : core::TiOptions::Sweet();
    core::KnnRunStats stats;
    result = core::TiKnnEngine::RunOnce(&dev, query_points,
                                        target.value().points, args.k,
                                        options, &stats);
    std::fprintf(stderr,
                 "simulated time: %.3f ms, saved computations: %.1f%%, "
                 "level-2 warp efficiency: %.1f%%\n",
                 stats.sim_time_s * 1e3, stats.SavedFraction() * 100.0,
                 stats.level2_warp_efficiency * 100.0);
    if (args.profile) {
      std::fputs(gpusim::FormatProfileReport(stats.profile).c_str(),
                 stderr);
    }
  }

  std::ofstream out_file;
  std::FILE* out = stdout;
  if (!args.out_path.empty()) {
    out = std::fopen(args.out_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   args.out_path.c_str());
      return 1;
    }
  }
  for (size_t q = 0; q < result.num_queries(); ++q) {
    for (int i = 0; i < result.k(); ++i) {
      const Neighbor& n = result.row(q)[i];
      std::fprintf(out, i == 0 ? "%u,%g" : ",%u,%g", n.index, n.distance);
    }
    std::fputc('\n', out);
  }
  if (out != stdout) std::fclose(out);
  return 0;
}
