// Measures what the approximate tier buys: exact vs approx query
// throughput on the same ANN-enabled index, swept over base size and
// recall target. For every sweep point it reports QPS, the speedup over
// the exact path, the TRUE recall@k of the approx answers against the
// exact ones, and the graph-search work counters (hops and distance
// evaluations per query) — plus the one-off index build per scale: the
// whole SweetKnnIndex constructor, and a second production build
// (core::ShardHost) split into the TI preparation and the graph build,
// the base's TI kNN self-join, with the rows that join scored per node.
// At the second scale that graph is rebuilt at 1, 2 and 4 workers,
// which must give the index's bytes. Emits BENCH_ann.json.
//
// The run fails (exit 1) if the default mode (recall_target 0.9) does
// not beat exact throughput at the largest scale, if any sweep point's
// measured recall falls below its target — the recall SLA, checked on
// the bench's own workload — or if the worker sweep's graphs differ.
//
// Usage: ann_throughput [--scale=F] [--k=N] [--queries=N]

#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/shard_host.h"
#include "core/sweet_knn.h"

namespace sweetknn::bench {
namespace {

constexpr size_t kDims = 16;
constexpr int kClusters = 32;

/// One index build: wall-clock of the whole SweetKnnIndex constructor,
/// and of a second production build's two steps.
struct IndexBuild {
  size_t rows = 0;
  double index_s = 0.0;
  double ti_prep_s = 0.0;    ///< ShardHost::BuildCold
  double graph_s = 0.0;      ///< ShardHost::BuildGraph: the TI self-join
  double rows_scored = 0.0;  ///< Per node, by the self-join's TI scan
};

/// Graph builds of one point set at several worker counts.
struct WorkerSweep {
  size_t rows = 0;
  std::vector<int> workers;
  std::vector<double> seconds;
  bool identical = true;
};

struct AnnRun {
  size_t rows = 0;
  double recall_target = 0.0;  // 0 = the exact reference row
  int ef = 0;
  double qps = 0.0;
  double speedup = 1.0;
  double recall = 1.0;
  double hops_per_query = 0.0;
  double dists_per_query = 0.0;
};

HostMatrix ClusteredPoints(size_t n, uint64_t seed) {
  Rng rng(seed);
  HostMatrix m(n, kDims);
  std::vector<std::vector<float>> centers(kClusters,
                                          std::vector<float>(kDims));
  for (auto& c : centers) {
    for (float& x : c) x = static_cast<float>(rng.NextDouble());
  }
  for (size_t i = 0; i < n; ++i) {
    const auto& c = centers[i % kClusters];
    for (size_t j = 0; j < kDims; ++j) {
      m.at(i, j) = c[j] + static_cast<float>(rng.NextDouble() * 0.1 - 0.05);
    }
  }
  return m;
}

double RecallAgainstExact(const KnnResult& exact, const KnnResult& approx,
                          int k) {
  double sum = 0.0;
  size_t measured = 0;
  for (size_t q = 0; q < exact.num_queries(); ++q) {
    std::set<uint32_t> want;
    for (int i = 0; i < k; ++i) {
      if (exact.row(q)[i].index == kInvalidNeighbor) break;
      want.insert(exact.row(q)[i].index);
    }
    if (want.empty()) continue;
    size_t hits = 0;
    for (int i = 0; i < k; ++i) {
      if (want.count(approx.row(q)[i].index) != 0) ++hits;
    }
    sum += static_cast<double>(hits) / static_cast<double>(want.size());
    ++measured;
  }
  return measured == 0 ? 1.0 : sum / static_cast<double>(measured);
}

/// Wall-clock of `reps` identical batches, after one untimed warm-up.
template <typename Fn>
double TimeBatches(int reps, const Fn& run) {
  run();
  const Stopwatch wall;
  for (int r = 0; r < reps; ++r) run();
  return wall.ElapsedSeconds() / static_cast<double>(reps);
}

int Main(int argc, char** argv) {
  int k = 10;
  size_t num_queries = 256;
  std::vector<char*> rest;
  rest.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--k=", 0) == 0) {
      k = std::atoi(arg.c_str() + 4);
    } else if (arg.rfind("--queries=", 0) == 0) {
      num_queries = static_cast<size_t>(std::atoll(arg.c_str() + 10));
    } else {
      rest.push_back(argv[i]);
    }
  }
  const BenchArgs args =
      BenchArgs::Parse(static_cast<int>(rest.size()), rest.data());
  // The largest scale sits past the exact/approx crossover: the exact TI
  // engine's cost grows with the base while the graph walk's is budget-
  // bound, so this is where the approximate tier must win to earn its
  // keep (the exit-code gate below).
  const std::vector<size_t> base_scales = {2000, 8000, 32000, 128000};
  const std::vector<double> recall_targets = {0.9, 0.95, 0.99};

  std::printf("=== ANN tier throughput: dims=%zu, k=%d, %zu queries "
              "per batch ===\n\n",
              kDims, k, num_queries);
  PrintTableHeader({"rows", "mode", "ef", "QPS", "speedup", "recall",
                    "hops/q", "dists/q"});

  std::vector<AnnRun> runs;
  std::vector<IndexBuild> builds;
  WorkerSweep sweep;
  bool sla_met = true;
  double largest_scale_speedup = 0.0;
  for (const size_t base : base_scales) {
    const size_t n = static_cast<size_t>(
        static_cast<double>(base) * args.scale);
    if (n < 64) continue;
    const HostMatrix target = ClusteredPoints(n, 42 + n);
    const HostMatrix queries = ClusteredPoints(num_queries, 4242 + n);

    SweetKnn::Config config;
    config.enable_ann = true;
    const Stopwatch build_wall;
    SweetKnnIndex index(target, config);
    IndexBuild build;
    build.rows = n;
    build.index_s = build_wall.ElapsedSeconds();
    // The same build on a bare shard, step by step: the TI preparation,
    // then the graph, with the self-join's scan counters.
    core::ShardHost host(config.device, config.options);
    host.ConfigureAnn(true, config.ann_params, config.options.sim_threads);
    Stopwatch step_wall;
    host.BuildCold(target);
    build.ti_prep_s = step_wall.ElapsedSeconds();
    core::RangeScanStats join;
    step_wall.Reset();
    host.BuildGraph(target, ann::KnnGraph{}, &join);
    build.graph_s = step_wall.ElapsedSeconds();
    build.rows_scored =
        static_cast<double>(join.candidates) / static_cast<double>(n);
    builds.push_back(build);
    if (builds.size() == 2) {
      // Rebuild the graph at several worker counts: the bytes must be
      // the index's.
      const ann::KnnGraph& want = index.ann().graph();
      sweep.rows = n;
      for (const int workers : {1, 2, 4}) {
        ann::GraphBuildParams params = config.ann_params;
        params.workers = workers;
        host.ConfigureAnn(true, params);
        const Stopwatch sweep_wall;
        host.BuildGraph(target, ann::KnnGraph{});
        sweep.workers.push_back(workers);
        sweep.seconds.push_back(sweep_wall.ElapsedSeconds());
        sweep.identical = sweep.identical &&
                          host.ann.graph().neighbors == want.neighbors &&
                          host.ann.graph().entry_points == want.entry_points;
      }
    }

    KnnResult exact(0, 0);
    const double exact_s =
        TimeBatches(3, [&] { exact = index.Query(queries, k); });
    const double exact_qps = static_cast<double>(num_queries) / exact_s;
    AnnRun exact_run;
    exact_run.rows = n;
    exact_run.qps = exact_qps;
    runs.push_back(exact_run);
    PrintTableRow({std::to_string(n), "exact", "-",
                   FormatDouble(exact_qps, 0), "1.00", "1.000", "-", "-"});

    for (const double target_recall : recall_targets) {
      const ann::SearchMode mode = ann::SearchMode::Approx(target_recall);
      KnnResult approx(0, 0);
      ann::AnnSearchStats stats;
      const double approx_s = TimeBatches(3, [&] {
        stats = ann::AnnSearchStats();
        approx = index.Query(queries, k, mode, nullptr, &stats);
      });
      AnnRun run;
      run.rows = n;
      run.recall_target = target_recall;
      run.ef = ann::EffectiveEf(mode, k);
      run.qps = static_cast<double>(num_queries) / approx_s;
      run.speedup = run.qps / exact_qps;
      run.recall = RecallAgainstExact(exact, approx, k);
      run.hops_per_query = static_cast<double>(stats.hops) /
                           static_cast<double>(num_queries);
      run.dists_per_query = static_cast<double>(stats.candidates_visited) /
                            static_cast<double>(num_queries);
      if (run.recall < target_recall) sla_met = false;
      if (target_recall == 0.9 && base == base_scales.back()) {
        largest_scale_speedup = run.speedup;
      }
      PrintTableRow({std::to_string(n),
                     "approx@" + FormatDouble(target_recall, 2),
                     std::to_string(run.ef), FormatDouble(run.qps, 0),
                     FormatDouble(run.speedup, 2),
                     FormatDouble(run.recall, 3),
                     FormatDouble(run.hops_per_query, 1),
                     FormatDouble(run.dists_per_query, 0)});
      runs.push_back(run);
    }
    std::printf("  index build %.3f s (%zu rows); step by step: TI prep "
                "%.3f s + graph build %.3f s (self-join scored %.0f rows "
                "per node, %.1f %%)\n",
                build.index_s, n, build.ti_prep_s, build.graph_s,
                build.rows_scored,
                100.0 * build.rows_scored / static_cast<double>(n));
  }
  if (!sweep.workers.empty()) {
    std::printf("\ngraph build at %zu rows:", sweep.rows);
    for (size_t i = 0; i < sweep.workers.size(); ++i) {
      std::printf(" %d worker(s) %.3f s;", sweep.workers[i],
                  sweep.seconds[i]);
    }
    std::printf(" identical graphs: %s\n", sweep.identical ? "yes" : "NO");
  }

  const bool approx_wins = largest_scale_speedup > 1.0;
  std::printf("\nrecall SLA met on every sweep point: %s\n",
              sla_met ? "yes" : "NO");
  std::printf("approx@0.90 beats exact at the largest scale: %s "
              "(speedup %.2fx)\n",
              approx_wins ? "yes" : "NO", largest_scale_speedup);

  FILE* json = std::fopen("BENCH_ann.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n  \"bench\": \"ann_throughput\",\n%s"
                 "  \"dims\": %zu,\n  \"k\": %d,\n  \"queries\": %zu,\n"
                 "  \"scale\": %g,\n  \"index_builds\": [\n",
                 EnvJson(DetectEnv()).c_str(), kDims, k, num_queries,
                 args.scale);
    for (size_t i = 0; i < builds.size(); ++i) {
      const IndexBuild& b = builds[i];
      std::fprintf(json,
                   "    {\"rows\": %zu, \"index_build_s\": %.4f, "
                   "\"ti_prep_s\": %.4f, \"graph_build_s\": %.4f, "
                   "\"rows_scored_per_node\": %.1f}%s\n",
                   b.rows, b.index_s, b.ti_prep_s, b.graph_s, b.rows_scored,
                   i + 1 < builds.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n  \"graph_build_workers\": {\"rows\": %zu, "
                       "\"runs\": [",
                 sweep.rows);
    for (size_t i = 0; i < sweep.workers.size(); ++i) {
      std::fprintf(json, "%s{\"workers\": %d, \"seconds\": %.4f}",
                   i == 0 ? "" : ", ", sweep.workers[i], sweep.seconds[i]);
    }
    std::fprintf(json, "], \"identical\": %s},\n  \"runs\": [\n",
                 sweep.identical ? "true" : "false");
    for (size_t i = 0; i < runs.size(); ++i) {
      const AnnRun& run = runs[i];
      if (run.recall_target == 0.0) {
        std::fprintf(json,
                     "    {\"rows\": %zu, \"mode\": \"exact\", "
                     "\"qps\": %.1f}%s\n",
                     run.rows, run.qps, i + 1 < runs.size() ? "," : "");
        continue;
      }
      std::fprintf(
          json,
          "    {\"rows\": %zu, \"mode\": \"approx\", "
          "\"recall_target\": %g, \"ef\": %d, \"qps\": %.1f, "
          "\"speedup\": %.3f, \"recall\": %.4f, "
          "\"hops_per_query\": %.2f, \"dists_per_query\": %.1f}%s\n",
          run.rows, run.recall_target, run.ef, run.qps, run.speedup,
          run.recall, run.hops_per_query, run.dists_per_query,
          i + 1 < runs.size() ? "," : "");
    }
    std::fprintf(json,
                 "  ],\n  \"sla_met\": %s,\n"
                 "  \"approx_beats_exact_at_largest_scale\": %s\n}\n",
                 sla_met ? "true" : "false",
                 approx_wins ? "true" : "false");
    std::fclose(json);
    std::printf("wrote BENCH_ann.json\n");
  }
  return (sla_met && approx_wins && sweep.identical) ? 0 : 1;
}

}  // namespace
}  // namespace sweetknn::bench

int main(int argc, char** argv) { return sweetknn::bench::Main(argc, argv); }
