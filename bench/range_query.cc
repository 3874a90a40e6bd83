// Measures the host scans over a base's member-order image on the
// paper datasets. Range modalities (docs/modalities.md): TiRangeScan,
// the scan every radius search runs, vs the exhaustive FullRangeScan
// over the same host image across a radius sweep (wall time, candidate
// fraction, pruning counters, speedup) on two clustered stand-ins
// (kegg, 3DNet) and the two the filters barely prune (arcene, dor),
// plus one SelfJoin and one KnnGraph timing per dataset. kNN
// host leg (docs/performance.md, "TI host route"): for every paper
// stand-in, HostImage::Knn against simd::PackedKnn at k = 10 on 1-row
// and 64-row batches, repeated, with the fraction of rows scored. Every
// measurement verifies the two scans answer bit-identically — the
// number next to a speedup is worthless if the fast scan changed the
// answer — and the binary exits 1 on any difference. Emits
// BENCH_range.json.
//
// Usage: range_query [--scale=F] [--only=kegg,...]

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/range_result.h"
#include "common/stopwatch.h"
#include "core/device_points.h"
#include "core/host_image.h"
#include "core/range_search.h"
#include "core/sweet_knn.h"
#include "simd/simd_kernels.h"

namespace sweetknn::bench {
namespace {

constexpr int kGraphNeighbors = 10;

/// kNN host leg: neighbors per query, query rows per dataset (the
/// 64-row batch, or 64 one-row batches), timed repetitions.
constexpr int kHostK = 10;
constexpr size_t kHostQueries = 64;
constexpr int kHostRepetitions = 9;

struct RangeRun {
  std::string dataset;
  float radius = 0.0f;
  double radius_factor = 0.0;
  uint64_t matches = 0;
  double selectivity = 0.0;         // matches / (|Q| * n)
  double candidate_fraction = 0.0;  // TI scan: evaluated / total pairs
  uint64_t clusters_pruned = 0;
  uint64_t members_pruned = 0;
  double ti_wall_s = 0.0;
  double host_wall_s = 0.0;  // the exhaustive FullRangeScan
  double speedup = 0.0;      // host_wall_s / ti_wall_s
  bool exact = false;
};

/// Median and quartiles of a sample (nearest rank).
struct Spread {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

Spread SpreadOf(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const auto rank = [&](double q) {
    const size_t r =
        static_cast<size_t>(std::ceil(q * static_cast<double>(samples.size())));
    return samples[std::clamp<size_t>(r, 1, samples.size()) - 1];
  };
  return Spread{rank(0.25), rank(0.5), rank(0.75)};
}

/// One (dataset, batch shape) point of the kNN host leg: microseconds
/// per query row of each scan over kHostRepetitions runs.
struct KnnHostRun {
  std::string dataset;
  size_t n = 0;
  size_t dims = 0;
  size_t batch_rows = 0;
  bool single_window = false;
  double rows_scored = 0.0;  // TI scan: rows offered / (|Q| * n)
  Spread ti_us;
  Spread packed_us;
  bool exact = true;
};

/// Times HostImage::Knn against PackedKnn over the same kHostQueries
/// base rows (the paper's self-join setting), in batches of
/// `batch_rows`, alternating the two scans within every repetition.
KnnHostRun MeasureKnnHost(const std::string& name, const HostMatrix& points,
                          const core::HostImage& image,
                          const simd::PackedTargets& packed,
                          simd::Dist dist, size_t batch_rows) {
  KnnHostRun run;
  run.dataset = name;
  run.n = points.rows();
  run.dims = points.cols();
  run.batch_rows = batch_rows;
  run.single_window = image.single_window();
  std::vector<HostMatrix> batches;
  for (size_t begin = 0; begin < kHostQueries; begin += batch_rows) {
    HostMatrix batch(batch_rows, points.cols());
    for (size_t r = 0; r < batch_rows; ++r) {
      const size_t row = (begin + r) * points.rows() / kHostQueries;
      std::memcpy(batch.mutable_row(r), points.row(row),
                  points.cols() * sizeof(float));
    }
    batches.push_back(std::move(batch));
  }
  std::vector<double> ti_us;
  std::vector<double> packed_us;
  core::RangeScanStats stats;
  std::vector<KnnResult> ti_results(batches.size());
  std::vector<KnnResult> packed_results(batches.size());
  const auto time_ti = [&](bool count) {
    const Stopwatch watch;
    for (size_t b = 0; b < batches.size(); ++b) {
      ti_results[b] = image.Knn(batches[b], kHostK, dist, /*workers=*/1,
                                count ? &stats : nullptr);
    }
    ti_us.push_back(watch.ElapsedSeconds() * 1e6 / kHostQueries);
  };
  const auto time_packed = [&] {
    const Stopwatch watch;
    for (size_t b = 0; b < batches.size(); ++b) {
      packed_results[b] =
          simd::PackedKnn(batches[b], packed, kHostK, dist, /*workers=*/1);
    }
    packed_us.push_back(watch.ElapsedSeconds() * 1e6 / kHostQueries);
  };
  for (int rep = 0; rep < kHostRepetitions; ++rep) {
    // Alternate which scan runs first, so neither always finds the
    // caches warmed by the other.
    if (rep % 2 == 0) {
      time_ti(rep == 0);
      time_packed();
    } else {
      time_packed();
      time_ti(false);
    }
    for (size_t b = 0; b < batches.size(); ++b) {
      run.exact = run.exact &&
                  std::memcmp(ti_results[b].row(0), packed_results[b].row(0),
                              batch_rows * kHostK * sizeof(Neighbor)) == 0;
    }
  }
  run.rows_scored = static_cast<double>(stats.candidates) /
                    static_cast<double>(stats.total_pairs);
  run.ti_us = SpreadOf(ti_us);
  run.packed_us = SpreadOf(packed_us);
  return run;
}

/// The dataset's distance scale: the mean kth-neighbor distance of a
/// small self-query sample, the anchor the radius sweep multiplies.
float BaseRadius(SweetKnnIndex* index, const HostMatrix& points) {
  const size_t sample = std::min<size_t>(points.rows(), 16);
  HostMatrix queries(sample, points.cols());
  for (size_t r = 0; r < sample; ++r) {
    std::memcpy(queries.mutable_row(r), points.row(r),
                points.cols() * sizeof(float));
  }
  const KnnResult result = index->Query(queries, kGraphNeighbors);
  double sum = 0.0;
  size_t counted = 0;
  for (size_t q = 0; q < result.num_queries(); ++q) {
    for (int i = result.k() - 1; i >= 0; --i) {
      if (result.row(q)[i].index != kInvalidNeighbor) {
        sum += result.row(q)[i].distance;
        ++counted;
        break;
      }
    }
  }
  return counted == 0 ? 1.0f
                      : static_cast<float>(sum / static_cast<double>(counted));
}

}  // namespace

int Main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::Parse(argc, argv);
  const double factors[] = {0.5, 1.0, 2.0, 4.0};

  std::vector<RangeRun> runs;
  struct DatasetSummary {
    std::string name;
    size_t n = 0;
    size_t dims = 0;
    size_t join_pairs = 0;
    double join_wall_s = 0.0;
    double graph_wall_s = 0.0;
  };
  std::vector<DatasetSummary> datasets;
  bool all_exact = true;

  PrintTableHeader({"dataset", "radius", "matches", "sel%", "cand%",
                    "ti ms", "full ms", "speedup", "exact"});
  for (const char* name : {"kegg", "3DNet", "arcene", "dor"}) {
    if (!args.WantDataset(name)) continue;
    const dataset::Dataset data = LoadPaperDataset(name, args);

    SweetKnnIndex index(data.points);
    const core::HostImage& image = index.host_image();
    const simd::Dist dist = core::SimdDistFor(index.engine().options().metric);
    const float base_radius = BaseRadius(&index, data.points);

    for (const double factor : factors) {
      RangeRun run;
      run.dataset = name;
      run.radius_factor = factor;
      run.radius = static_cast<float>(factor) * base_radius;

      core::RangeScanStats ti_stats;
      const Stopwatch ti_watch;
      const RangeResult ti_result =
          core::TiRangeScan(data.points, image, run.radius, dist, &ti_stats);
      run.ti_wall_s = ti_watch.ElapsedSeconds();

      const Stopwatch host_watch;
      const RangeResult host_result =
          core::FullRangeScan(data.points, image, run.radius, dist);
      run.host_wall_s = host_watch.ElapsedSeconds();

      run.matches = ti_result.total_matches();
      const double total =
          static_cast<double>(data.n()) * static_cast<double>(data.n());
      run.selectivity = static_cast<double>(run.matches) / total;
      run.candidate_fraction =
          ti_stats.total_pairs == 0
              ? 0.0
              : static_cast<double>(ti_stats.candidates) /
                    static_cast<double>(ti_stats.total_pairs);
      run.clusters_pruned = ti_stats.clusters_pruned;
      run.members_pruned = ti_stats.members_pruned;
      run.speedup = run.ti_wall_s == 0.0 ? 0.0
                                         : run.host_wall_s / run.ti_wall_s;
      run.exact = BitIdentical(ti_result, host_result);
      all_exact = all_exact && run.exact;

      PrintTableRow({run.dataset, FormatDouble(run.radius, 4),
                     std::to_string(run.matches),
                     FormatDouble(run.selectivity * 100.0, 2),
                     FormatDouble(run.candidate_fraction * 100.0, 2),
                     FormatDouble(run.ti_wall_s * 1e3, 2),
                     FormatDouble(run.host_wall_s * 1e3, 2),
                     FormatDouble(run.speedup, 2),
                     run.exact ? "yes" : "NO"});
      runs.push_back(run);
    }

    DatasetSummary summary;
    summary.name = name;
    summary.n = data.n();
    summary.dims = data.dims();
    const Stopwatch join_watch;
    summary.join_pairs = index.SelfJoin(base_radius).size();
    summary.join_wall_s = join_watch.ElapsedSeconds();
    const Stopwatch graph_watch;
    const SweetKnnIndex::KnnGraphResult graph =
        index.KnnGraph(kGraphNeighbors);
    summary.graph_wall_s = graph_watch.ElapsedSeconds();
    std::printf("%s: self-join(r=%.4g) %zu pairs in %.2f ms, "
                "knn-graph(k=%d) %zu rows in %.2f ms\n",
                name, static_cast<double>(base_radius), summary.join_pairs,
                summary.join_wall_s * 1e3, kGraphNeighbors,
                graph.ids.size(), summary.graph_wall_s * 1e3);
    datasets.push_back(summary);
  }

  std::printf("\nall radius sweeps bit-identical (TI vs full scan): %s\n",
              all_exact ? "yes" : "NO");

  // kNN host leg: every paper stand-in, both batch shapes.
  std::vector<KnnHostRun> knn_runs;
  std::printf("\nkNN host scan, k=%d, %zu self-queries, %d reps "
              "(us per query: median and interquartile range)\n",
              kHostK, kHostQueries, kHostRepetitions);
  PrintTableHeader({"dataset", "batch", "windows", "scored%", "TI us",
                    "TI iqr", "packed us", "packed iqr", "speedup", "exact"});
  for (const dataset::PaperDatasetInfo& info : dataset::PaperDatasets()) {
    if (!args.WantDataset(info.name)) continue;
    const dataset::Dataset data = LoadPaperDataset(info.name, args);
    const SweetKnnIndex index(data.points);
    const simd::PackedTargets packed = simd::PackedTargets::Pack(
        data.points.data(), data.points.rows(), data.points.cols());
    const simd::Dist dist = core::SimdDistFor(index.engine().options().metric);
    for (const size_t batch_rows : {size_t{1}, kHostQueries}) {
      const KnnHostRun run = MeasureKnnHost(info.name, data.points,
                                            index.host_image(), packed, dist,
                                            batch_rows);
      all_exact = all_exact && run.exact;
      PrintTableRow({run.dataset, std::to_string(run.batch_rows),
                     run.single_window ? "one" : "per-cluster",
                     FormatDouble(run.rows_scored * 100.0, 2),
                     FormatDouble(run.ti_us.median, 1),
                     FormatDouble(run.ti_us.q3 - run.ti_us.q1, 1),
                     FormatDouble(run.packed_us.median, 1),
                     FormatDouble(run.packed_us.q3 - run.packed_us.q1, 1),
                     FormatDouble(run.packed_us.median / run.ti_us.median, 2),
                     run.exact ? "yes" : "NO"});
      knn_runs.push_back(run);
    }
  }
  std::printf("\nall kNN host scans bit-identical to PackedKnn: %s\n",
              std::all_of(knn_runs.begin(), knn_runs.end(),
                          [](const KnnHostRun& r) { return r.exact; })
                  ? "yes"
                  : "NO");

  FILE* json = std::fopen("BENCH_range.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n  \"bench\": \"range_query\",\n%s"
                 "  \"graph_k\": %d,\n  \"scale\": %g,\n  \"runs\": [\n",
                 EnvJson(DetectEnv()).c_str(), kGraphNeighbors, args.scale);
    for (size_t i = 0; i < runs.size(); ++i) {
      const RangeRun& run = runs[i];
      std::fprintf(
          json,
          "    {\"dataset\": \"%s\", \"radius\": %.9g, "
          "\"radius_factor\": %g, \"matches\": %llu, "
          "\"selectivity\": %.6g, \"candidate_fraction\": %.6g, "
          "\"clusters_pruned\": %llu, \"members_pruned\": %llu, "
          "\"ti_wall_s\": %.6f, \"host_wall_s\": %.6f, "
          "\"speedup\": %.3f, \"exact\": %s}%s\n",
          run.dataset.c_str(), static_cast<double>(run.radius),
          run.radius_factor, static_cast<unsigned long long>(run.matches),
          run.selectivity, run.candidate_fraction,
          static_cast<unsigned long long>(run.clusters_pruned),
          static_cast<unsigned long long>(run.members_pruned), run.ti_wall_s,
          run.host_wall_s, run.speedup, run.exact ? "true" : "false",
          i + 1 < runs.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n  \"datasets\": [\n");
    for (size_t i = 0; i < datasets.size(); ++i) {
      const DatasetSummary& d = datasets[i];
      std::fprintf(json,
                   "    {\"dataset\": \"%s\", \"n\": %zu, \"dims\": %zu, "
                   "\"self_join_pairs\": %zu, \"self_join_wall_s\": %.6f, "
                   "\"knn_graph_wall_s\": %.6f}%s\n",
                   d.name.c_str(), d.n, d.dims, d.join_pairs, d.join_wall_s,
                   d.graph_wall_s, i + 1 < datasets.size() ? "," : "");
    }
    std::fprintf(json,
                 "  ],\n  \"knn_host\": {\"k\": %d, \"queries\": %zu, "
                 "\"repetitions\": %d, \"unit\": \"us per query\", "
                 "\"runs\": [\n",
                 kHostK, kHostQueries, kHostRepetitions);
    for (size_t i = 0; i < knn_runs.size(); ++i) {
      const KnnHostRun& r = knn_runs[i];
      std::fprintf(
          json,
          "    {\"dataset\": \"%s\", \"n\": %zu, \"dims\": %zu, "
          "\"batch_rows\": %zu, \"single_window\": %s, "
          "\"rows_scored\": %.6g, "
          "\"ti_us\": {\"median\": %.3f, \"q1\": %.3f, \"q3\": %.3f}, "
          "\"packed_us\": {\"median\": %.3f, \"q1\": %.3f, "
          "\"q3\": %.3f}, \"exact\": %s}%s\n",
          r.dataset.c_str(), r.n, r.dims, r.batch_rows,
          r.single_window ? "true" : "false", r.rows_scored, r.ti_us.median,
          r.ti_us.q1, r.ti_us.q3, r.packed_us.median, r.packed_us.q1,
          r.packed_us.q3, r.exact ? "true" : "false",
          i + 1 < knn_runs.size() ? "," : "");
    }
    std::fprintf(json, "  ]},\n  \"all_exact\": %s\n}\n",
                 all_exact ? "true" : "false");
    std::fclose(json);
    std::printf("wrote BENCH_range.json\n");
  }
  return all_exact ? 0 : 1;
}

}  // namespace sweetknn::bench

int main(int argc, char** argv) { return sweetknn::bench::Main(argc, argv); }
