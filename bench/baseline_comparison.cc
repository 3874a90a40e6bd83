// Validates the paper's baseline choice (section V-A): the CUBLAS-based
// brute force of Garcia et al. outperforms plain-CUDA brute-force
// implementations by up to 10x, which is why it is the baseline all
// speedups are measured against.

#include <cstdio>

#include "baseline/brute_force_gpu.h"
#include "bench_common.h"
#include "core/options.h"

namespace sweetknn::bench {
namespace {

int Main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::Parse(argc, argv);
  constexpr int kNeighbors = 20;

  std::printf("=== Baseline comparison: CUBLAS vs pure-CUDA brute force "
              "(k=%d) ===\n\n", kNeighbors);
  PrintTableHeader({"dataset", "cublas(ms)", "cuda(ms)", "cublas(X)",
                    "sweet(X)"});
  for (const char* name : {"3DNet", "kegg", "ipums", "kdd"}) {
    if (!args.WantDataset(name)) continue;
    const dataset::Dataset data = LoadPaperDataset(name, args);
    const Measurement cublas = RunBaseline(data, kNeighbors);

    double cuda_ms = 0.0;
    {
      gpusim::Device dev = MakeBenchDevice();
      baseline::BruteForceOptions options;
      options.variant = baseline::BruteForceVariant::kPureCuda;
      options.exact = false;
      baseline::BruteForceStats stats;
      baseline::BruteForceGpu(&dev, data.points, data.points, kNeighbors,
                              options, &stats);
      cuda_ms = stats.profile.TotalKernelTime() * 1e3;
    }
    const Measurement sweet =
        RunTi(data, kNeighbors, core::TiOptions::Sweet());
    PrintTableRow({name, FormatDouble(cublas.sim_time_s * 1e3),
                   FormatDouble(cuda_ms),
                   FormatDouble(cuda_ms / (cublas.sim_time_s * 1e3), 2),
                   FormatDouble(cuda_ms / (sweet.sim_time_s * 1e3), 2)});
  }
  std::printf("\n(cublas(X): how much faster the CUBLAS baseline is than "
              "the plain-CUDA one;\n sweet(X): Sweet KNN's speedup over "
              "the plain-CUDA brute force)\n");
  return 0;
}

}  // namespace
}  // namespace sweetknn::bench

int main(int argc, char** argv) { return sweetknn::bench::Main(argc, argv); }
