// Microbenchmark of the vectorized host distance kernels (src/simd):
// sweeps dims x n at constant total footprint, times QueryDistances at
// every compiled-in dispatch tier against the pinned-scalar baseline,
// and reports effective bandwidth (GB/s of target-matrix traffic) plus
// speedup. Every timed run is also checked bit-identical to the scalar
// kernel — the speedup claim is only meaningful because the answers are
// the same bytes.
//
// Emits BENCH_distance_kernels.json (with the host/build env block) for
// the CI artifact. Exits non-zero if any tier diverges from scalar, or
// if the dims >= 16 geomean speedup of the best tier
// falls below 4x while AVX2 is available — the acceptance bar of the
// SIMD kernel work.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "simd/simd_kernels.h"

namespace sweetknn::bench {
namespace {

constexpr size_t kDimsSweep[] = {2, 8, 16, 64, 128};
// Constant footprint per config: n * dims = 2^20 floats (4 MiB), so the
// sweep varies arithmetic intensity, not working-set size.
constexpr size_t kTotalFloats = size_t{1} << 20;
constexpr size_t kQueries = 8;
constexpr double kMinSeconds = 0.05;

struct Row {
  size_t dims = 0;
  size_t n = 0;
  simd::Level level = simd::Level::kScalar;
  double gbps = 0.0;
  double speedup = 1.0;  // vs pinned scalar on the same config
  bool identical = true;
};

/// Seconds per call of `fn`, repeated until kMinSeconds have passed.
template <typename Fn>
double SecondsPerCall(const Fn& fn) {
  int reps = 0;
  const Stopwatch wall;
  double elapsed = 0.0;
  do {
    fn();
    ++reps;
    elapsed = wall.ElapsedSeconds();
  } while (elapsed < kMinSeconds);
  return elapsed / reps;
}

/// Seconds per full query sweep (kQueries x QueryDistances over all n
/// rows).
double TimeSweep(const HostMatrix& queries, const simd::PackedTargets& packed,
                 std::vector<float>* out) {
  return SecondsPerCall([&] {
    for (size_t q = 0; q < queries.rows(); ++q) {
      simd::QueryDistances(queries.row(q), packed, simd::Dist::kEuclidean,
                           out->data() + q * packed.n());
    }
  });
}

int Main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::Parse(argc, argv);
  const EnvInfo env = DetectEnv();
  // Captured before any ForceLevelForTest pin: the tier the library
  // would dispatch to on its own (respects SWEETKNN_FORCE_SCALAR).
  const simd::Level best_level = simd::ActiveLevel();
  std::printf("SIMD distance kernels: host %u threads, %s\n",
              env.hardware_concurrency, env.compiler.c_str());
  std::printf("tiers: scalar%s%s (detected best: %s)\n\n",
              env.avx2_supported ? ", avx2" : "",
              env.avx512_supported ? ", avx512" : "",
              env.simd_level.c_str());
  PrintTableHeader({"dims", "n", "tier", "GB/s", "speedup", "identical"});

  std::vector<Row> rows;
  bool all_identical = true;
  double geomean_log_sum = 0.0;
  size_t geomean_count = 0;
  for (const size_t dims : kDimsSweep) {
    const size_t n = std::max<size_t>(
        simd::kTileLanes,
        static_cast<size_t>(static_cast<double>(kTotalFloats / dims) *
                            args.scale));
    Rng rng(20260809 + dims);
    HostMatrix targets(n, dims);
    HostMatrix queries(kQueries, dims);
    for (size_t r = 0; r < n; ++r) {
      for (size_t j = 0; j < dims; ++j) targets.at(r, j) = rng.NextFloat();
    }
    for (size_t q = 0; q < kQueries; ++q) {
      for (size_t j = 0; j < dims; ++j) queries.at(q, j) = rng.NextFloat();
    }
    const simd::PackedTargets packed =
        simd::PackedTargets::Pack(targets.data(), n, dims);

    simd::ForceLevelForTest(static_cast<int>(simd::Level::kScalar));
    std::vector<float> scalar_out(kQueries * n);
    const double scalar_s = TimeSweep(queries, packed, &scalar_out);

    const double bytes =
        static_cast<double>(kQueries) * static_cast<double>(n) *
        static_cast<double>(dims) * sizeof(float);
    for (const simd::Level level :
         {simd::Level::kScalar, simd::Level::kAvx2, simd::Level::kAvx512}) {
      if (!simd::CompiledIn(level) || !simd::CpuSupports(level)) continue;
      simd::ForceLevelForTest(static_cast<int>(level));
      std::vector<float> out(kQueries * n);
      const double seconds =
          level == simd::Level::kScalar ? scalar_s
                                        : TimeSweep(queries, packed, &out);
      Row row;
      row.dims = dims;
      row.n = n;
      row.level = level;
      row.gbps = bytes / seconds / 1e9;
      row.speedup = scalar_s / seconds;
      if (level != simd::Level::kScalar) {
        row.identical = std::memcmp(out.data(), scalar_out.data(),
                                    out.size() * sizeof(float)) == 0;
        all_identical = all_identical && row.identical;
        if (level == best_level && dims >= 16) {
          geomean_log_sum += std::log(row.speedup);
          ++geomean_count;
        }
      }
      rows.push_back(row);
      PrintTableRow({std::to_string(dims), std::to_string(n),
                     simd::LevelName(level), FormatDouble(row.gbps, 2),
                     FormatDouble(row.speedup, 2) + "x",
                     row.identical ? "yes" : "NO"});
    }
  }
  simd::ForceLevelForTest(-1);

  const double geomean =
      geomean_count == 0 ? 1.0
                         : std::exp(geomean_log_sum /
                                    static_cast<double>(geomean_count));
  std::printf("\ngeomean speedup (best tier, dims >= 16): %.2fx; "
              "bit-identical across tiers: %s\n",
              geomean, all_identical ? "yes" : "NO");

  FILE* json = std::fopen("BENCH_distance_kernels.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n  \"bench\": \"distance_kernels\",\n%s"
                 "  \"queries\": %zu,\n  \"scale\": %g,\n  \"runs\": [\n",
                 EnvJson(env).c_str(), kQueries, args.scale);
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      std::fprintf(json,
                   "    {\"dims\": %zu, \"n\": %zu, \"tier\": \"%s\", "
                   "\"gbps\": %.3f, \"speedup\": %.3f, "
                   "\"identical\": %s}%s\n",
                   row.dims, row.n, simd::LevelName(row.level), row.gbps,
                   row.speedup, row.identical ? "true" : "false",
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(json,
                 "  ],\n  \"geomean_speedup_dims_ge16\": %.3f,\n"
                 "  \"all_bit_identical\": %s\n}\n",
                 geomean, all_identical ? "true" : "false");
    std::fclose(json);
    std::printf("wrote BENCH_distance_kernels.json\n");
  }

  if (!all_identical) return 1;
  // The acceptance bar only binds where a vector tier exists to win.
  if (env.avx2_supported && geomean_count > 0 && geomean < 4.0) {
    std::fprintf(stderr, "FAIL: dims >= 16 geomean speedup %.2fx < 4x\n",
                 geomean);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace sweetknn::bench

int main(int argc, char** argv) { return sweetknn::bench::Main(argc, argv); }
