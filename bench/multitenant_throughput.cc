// Measures multi-tenant serving isolation under controlled overload: a
// heavy (weight 4) and a light (weight 1) tenant share one KnnService
// behind the weighted-fair admission scheduler, and paced open-loop
// producers offer 0.5x, 1x, and 2x the service's calibrated capacity.
// For each load level it reports per-tenant offered/served/shed counts,
// the shed rate, and the per-tenant latency p50/p99 — the numbers that
// show load-shedding kicking in at the bound and the DRR scheduler
// keeping the weighted shares honest while it does. Emits
// BENCH_multitenant.json.
//
// Usage: multitenant_throughput [--scale=F]

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "serve/knn_service.h"

namespace sweetknn::bench {
namespace {

constexpr int kNeighbors = 10;
constexpr int kDims = 8;
constexpr int kShards = 2;
constexpr int kProducersPerTenant = 8;
// Deliberately below the producer count (2 x 8 outstanding max): the
// bound must be reachable or overload can never shed — each producer
// blocks on its own in-flight request, capping queued depth at the
// producer count.
constexpr size_t kMaxQueueDepth = 12;
constexpr double kHeavyWeight = 4.0;
constexpr double kLightWeight = 1.0;
constexpr auto kLevelDuration = std::chrono::milliseconds(1200);

HostMatrix MakeTarget(size_t rows) {
  Rng rng(20260809);
  HostMatrix points(rows, kDims);
  for (size_t r = 0; r < rows; ++r) {
    for (int c = 0; c < kDims; ++c) {
      points.at(r, static_cast<size_t>(c)) = rng.NextFloat();
    }
  }
  return points;
}

serve::ServiceConfig BenchConfig() {
  serve::ServiceConfig config;
  config.num_shards = kShards;
  config.max_batch_size = 16;
  config.max_batch_wait = std::chrono::microseconds(200);
  config.auto_compact = false;
  return config;
}

/// Closed-loop calibration with the SAME two-tenant shape the load
/// sweep uses (weighted tenants, one producer pool per tenant, no
/// admission bound): micro-batches are single-tenant, so a one-tenant
/// calibration would overstate capacity by the batch-size ratio. The
/// measured rate is the "1x capacity" the sweep paces against.
double CalibrateCapacityQps(const HostMatrix& points) {
  serve::KnnService service(points, BenchConfig());
  if (!service.SetIndexWeight(serve::kDefaultTenant, kHeavyWeight).ok() ||
      !service.CreateIndex("light", points, kLightWeight).ok()) {
    return 0.0;
  }
  std::atomic<uint64_t> served{0};
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(800);
  std::vector<std::thread> clients;
  for (int c = 0; c < 2 * kProducersPerTenant; ++c) {
    clients.emplace_back([&, c] {
      serve::CallOptions opts;
      opts.tenant = c % 2 == 0 ? serve::kDefaultTenant : "light";
      std::vector<float> point(kDims, 0.01f * static_cast<float>(c + 1));
      while (std::chrono::steady_clock::now() < deadline) {
        if (service.Search(point, kNeighbors, ann::SearchMode::Exact(), opts)
                .ok()) {
          served.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  const Stopwatch wall;
  for (std::thread& t : clients) t.join();
  const double elapsed = wall.ElapsedSeconds();
  return static_cast<double>(served.load()) / elapsed;
}

struct TenantOutcome {
  std::string name;
  double weight = 0.0;
  uint64_t offered = 0;
  uint64_t served = 0;
  uint64_t shed = 0;
  double p50_s = 0.0;
  double p99_s = 0.0;

  double ShedRate() const {
    return offered == 0
               ? 0.0
               : static_cast<double>(shed) / static_cast<double>(offered);
  }
};

struct LoadLevelRun {
  double load_factor = 0.0;
  double offered_qps = 0.0;
  std::vector<TenantOutcome> tenants;
  bool clean = true;  ///< only ok / shed statuses observed
};

/// One load level against a fresh service: paced producers offer
/// `capacity_qps * factor` single-row searches split evenly between the
/// heavy and the light tenant; the admission bound sheds the overflow.
LoadLevelRun RunLevel(const HostMatrix& points, double capacity_qps,
                      double factor) {
  serve::ServiceConfig config = BenchConfig();
  config.max_queue_depth = kMaxQueueDepth;
  serve::KnnService service(points, config);
  if (!service.SetIndexWeight(serve::kDefaultTenant, kHeavyWeight).ok() ||
      !service.CreateIndex("light", points, kLightWeight).ok()) {
    LoadLevelRun failed;
    failed.clean = false;
    return failed;
  }

  const double per_producer_qps =
      capacity_qps * factor / (2.0 * kProducersPerTenant);
  const auto interval = std::chrono::duration_cast<
      std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(1.0 / per_producer_qps));

  struct Tally {
    std::atomic<uint64_t> offered{0};
    std::atomic<uint64_t> served{0};
    std::atomic<uint64_t> shed{0};
  };
  Tally heavy_tally;
  Tally light_tally;
  std::atomic<bool> dirty{false};

  auto producer = [&](const std::string& tenant, Tally* tally, int lane) {
    serve::CallOptions opts;
    opts.tenant = tenant;
    std::vector<float> point(kDims, 0.01f * static_cast<float>(lane + 1));
    const auto start = std::chrono::steady_clock::now();
    const auto stop = start + kLevelDuration;
    // Phase-stagger the lanes: with a common phase all producers would
    // arrive simultaneously every slot and the synchronized spike would
    // shed against the bound even far below capacity.
    auto next_send =
        start + interval * lane / (2 * kProducersPerTenant);
    while (next_send < stop) {
      std::this_thread::sleep_until(next_send);
      // Skip slots a slow (blocked) call burned instead of firing a
      // catch-up burst: bursts would pile the queue past the bound and
      // shed even when the average offered rate is below capacity.
      const auto now = std::chrono::steady_clock::now();
      next_send += interval;
      if (next_send < now) next_send = now;
      tally->offered.fetch_add(1, std::memory_order_relaxed);
      const Result<std::vector<Neighbor>> result =
          service.Search(point, kNeighbors, ann::SearchMode::Exact(), opts);
      if (result.ok()) {
        tally->served.fetch_add(1, std::memory_order_relaxed);
      } else if (result.status().code() == StatusCode::kUnavailable) {
        tally->shed.fetch_add(1, std::memory_order_relaxed);
      } else {
        dirty.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducersPerTenant; ++p) {
    producers.emplace_back(producer, serve::kDefaultTenant, &heavy_tally, p);
    producers.emplace_back(producer, "light", &light_tally,
                           p + kProducersPerTenant);
  }
  for (std::thread& t : producers) t.join();

  auto outcome = [&](const std::string& name, double weight, Tally* tally) {
    TenantOutcome out;
    out.name = name;
    out.weight = weight;
    out.offered = tally->offered.load();
    out.served = tally->served.load();
    out.shed = tally->shed.load();
    const common::HistogramSnapshot latency =
        service.metrics().SnapshotHistogram(
            "sweetknn_tenant_request_latency_seconds{" +
            common::TenantLabel(name) + "}");
    out.p50_s = latency.Percentile(0.50);
    out.p99_s = latency.Percentile(0.99);
    return out;
  };

  LoadLevelRun run;
  run.load_factor = factor;
  run.offered_qps = capacity_qps * factor;
  run.tenants.push_back(
      outcome(serve::kDefaultTenant, kHeavyWeight, &heavy_tally));
  run.tenants.push_back(outcome("light", kLightWeight, &light_tally));
  run.clean = !dirty.load();
  return run;
}

int Main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::Parse(argc, argv);
  const size_t rows =
      std::max<size_t>(200, static_cast<size_t>(3000 * args.scale));
  const HostMatrix points = MakeTarget(rows);

  std::printf("=== Multi-tenant serving: %d shards, heavy:light weights "
              "%.0f:%.0f, %d paced producers per tenant, k=%d ===\n\n",
              kShards, kHeavyWeight, kLightWeight, kProducersPerTenant,
              kNeighbors);

  const double capacity_qps = CalibrateCapacityQps(points);
  std::printf("calibrated capacity: %.0f single-row queries/s\n\n",
              capacity_qps);

  PrintTableHeader({"load", "tenant", "weight", "offered", "served", "shed",
                    "shed_rate", "p50(us)", "p99(us)"});
  std::vector<LoadLevelRun> runs;
  bool all_clean = true;
  for (const double factor : {0.5, 1.0, 2.0}) {
    LoadLevelRun run = RunLevel(points, capacity_qps, factor);
    all_clean = all_clean && run.clean;
    for (const TenantOutcome& t : run.tenants) {
      PrintTableRow({FormatDouble(factor, 1) + "x", t.name,
                     FormatDouble(t.weight, 1), std::to_string(t.offered),
                     std::to_string(t.served), std::to_string(t.shed),
                     FormatPercent(t.ShedRate()),
                     FormatDouble(t.p50_s * 1e6, 1),
                     FormatDouble(t.p99_s * 1e6, 1)});
    }
    runs.push_back(std::move(run));
  }
  std::printf("\nonly clean ok/shed statuses observed: %s\n",
              all_clean ? "yes" : "NO");

  FILE* json = std::fopen("BENCH_multitenant.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n  \"bench\": \"multitenant_throughput\",\n%s"
                 "  \"shards\": %d,\n  \"producers_per_tenant\": %d,\n"
                 "  \"k\": %d,\n  \"target_rows\": %zu,\n"
                 "  \"scale\": %g,\n  \"capacity_qps\": %.1f,\n"
                 "  \"runs\": [\n",
                 EnvJson(DetectEnv()).c_str(), kShards, kProducersPerTenant,
                 kNeighbors, rows, args.scale, capacity_qps);
    for (size_t i = 0; i < runs.size(); ++i) {
      const LoadLevelRun& run = runs[i];
      std::fprintf(json,
                   "    {\"load_factor\": %g, \"offered_qps\": %.1f, "
                   "\"tenants\": [\n",
                   run.load_factor, run.offered_qps);
      for (size_t t = 0; t < run.tenants.size(); ++t) {
        const TenantOutcome& out = run.tenants[t];
        std::fprintf(
            json,
            "      {\"tenant\": \"%s\", \"weight\": %g, \"offered\": %llu, "
            "\"served\": %llu, \"shed\": %llu, \"shed_rate\": %.4f, "
            "\"latency_s\": {\"p50\": %.9g, \"p99\": %.9g}}%s\n",
            out.name.c_str(), out.weight,
            static_cast<unsigned long long>(out.offered),
            static_cast<unsigned long long>(out.served),
            static_cast<unsigned long long>(out.shed), out.ShedRate(),
            out.p50_s, out.p99_s, t + 1 < run.tenants.size() ? "," : "");
      }
      std::fprintf(json, "    ]}%s\n", i + 1 < runs.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n  \"all_clean\": %s\n}\n",
                 all_clean ? "true" : "false");
    std::fclose(json);
    std::printf("wrote BENCH_multitenant.json\n");
  }
  return all_clean ? 0 : 1;
}

}  // namespace
}  // namespace sweetknn::bench

int main(int argc, char** argv) { return sweetknn::bench::Main(argc, argv); }
