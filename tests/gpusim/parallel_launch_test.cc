// Determinism suite for the parallel execution engine: running a grid at
// 1, 2, or 8 host workers must produce bit-identical functional results
// and bit-identical LaunchRecords (instructions, transactions,
// dram_transactions, divergence, atomic serializations, simulated time).
#include <array>
#include <cstdint>
#include <vector>

#include "baseline/brute_force_cpu.h"
#include "common/rng.h"
#include "core/ti_knn_gpu.h"
#include "gpusim/device.h"
#include "gtest/gtest.h"

namespace sweetknn::gpusim {
namespace {

constexpr std::array<int, 3> kWorkerCounts = {1, 2, 8};

void ExpectStatsEqual(const KernelStats& a, const KernelStats& b,
                      const std::string& kernel) {
  EXPECT_EQ(a.warp_instructions, b.warp_instructions) << kernel;
  EXPECT_EQ(a.active_lane_ops, b.active_lane_ops) << kernel;
  EXPECT_EQ(a.divergent_branches, b.divergent_branches) << kernel;
  EXPECT_EQ(a.global_transactions, b.global_transactions) << kernel;
  EXPECT_EQ(a.dram_transactions, b.dram_transactions) << kernel;
  EXPECT_EQ(a.global_load_instructions, b.global_load_instructions) << kernel;
  EXPECT_EQ(a.global_store_instructions, b.global_store_instructions)
      << kernel;
  EXPECT_EQ(a.atomic_operations, b.atomic_operations) << kernel;
  EXPECT_EQ(a.atomic_serializations, b.atomic_serializations) << kernel;
}

void ExpectProfilesEqual(const Profile& a, const Profile& b) {
  ASSERT_EQ(a.launches.size(), b.launches.size());
  for (size_t i = 0; i < a.launches.size(); ++i) {
    const LaunchRecord& ra = a.launches[i];
    const LaunchRecord& rb = b.launches[i];
    EXPECT_EQ(ra.kernel_name, rb.kernel_name);
    EXPECT_EQ(ra.grid_blocks, rb.grid_blocks);
    EXPECT_EQ(ra.block_threads, rb.block_threads);
    ExpectStatsEqual(ra.stats, rb.stats, ra.kernel_name);
    // Bitwise double equality: the cost model is a pure function of the
    // stats, so identical stats must give identical simulated time.
    EXPECT_EQ(ra.occupancy, rb.occupancy) << ra.kernel_name;
    EXPECT_EQ(ra.sim_time_s, rb.sim_time_s) << ra.kernel_name;
  }
  EXPECT_EQ(a.transfer_time_s, b.transfer_time_s);
}

void ExpectResultsEqual(const KnnResult& a, const KnnResult& b) {
  ASSERT_EQ(a.num_queries(), b.num_queries());
  ASSERT_EQ(a.k(), b.k());
  for (size_t q = 0; q < a.num_queries(); ++q) {
    for (int j = 0; j < a.k(); ++j) {
      EXPECT_EQ(a.row(q)[j].index, b.row(q)[j].index) << "q=" << q;
      EXPECT_EQ(a.row(q)[j].distance, b.row(q)[j].distance) << "q=" << q;
    }
  }
}

/// A grid whose blocks stress every order-sensitive part of the engine:
/// divergent control flow, coalesced and strided loads with heavy L2
/// reuse across blocks (so dram_transactions depend on the global access
/// order), and cross-block atomics of every flavor.
struct MicroRun {
  Profile profile;
  std::vector<uint32_t> histogram;
  std::vector<float> minmax;
  std::vector<float> out;
};

MicroRun RunMicroGrid(int workers) {
  Device dev(DeviceSpec::TeslaK20c());
  dev.set_execution_threads(workers);

  // 4 MB of floats: larger than the 1.5 MB L2, so blocks evict each
  // other's segments and the replay order is load-bearing.
  const size_t n = 1u << 20;
  std::vector<float> host_data(n);
  Rng rng(42);
  for (float& v : host_data) v = rng.NextFloat();
  DeviceBuffer<float> data = dev.Alloc<float>(n, "data");
  dev.CopyToDevice(&data, host_data.data(), n);

  const size_t hist_bins = 97;
  DeviceBuffer<uint32_t> hist = dev.Alloc<uint32_t>(hist_bins, "hist");
  for (size_t i = 0; i < hist_bins; ++i) hist[i] = 0;
  DeviceBuffer<float> minmax = dev.Alloc<float>(2, "minmax");
  minmax[0] = 1e30f;
  minmax[1] = -1e30f;

  const LaunchConfig cfg{64, 256};
  const size_t total = static_cast<size_t>(cfg.TotalThreads());
  DeviceBuffer<float> out = dev.Alloc<float>(total, "out");

  dev.Launch(KernelMeta{"micro_gather_diverge", 32, 0}, cfg, [&](Warp& w) {
    Reg<uint32_t> tid;
    w.Op([&](int lane) {
      tid[lane] = static_cast<uint32_t>(w.GlobalThreadId(lane));
    });
    Reg<float> acc;
    w.Op([&](int lane) { acc[lane] = 0.0f; });
    // Per-lane trip counts force divergent loop exits.
    Reg<uint32_t> trips;
    w.Op([&](int lane) { trips[lane] = 1 + tid[lane] % 5; });
    Reg<uint32_t> t;
    w.Op([&](int lane) { t[lane] = 0; });
    w.While([&](int lane) { return t[lane] < trips[lane]; }, [&] {
      Reg<float> v;
      // Scattered gather with heavy cross-block overlap.
      w.Load(data,
             [&](int lane) {
               return (static_cast<size_t>(tid[lane]) * 2654435761u +
                       t[lane] * 7919u) %
                      n;
             },
             [&](int lane, float x) { v[lane] = x; });
      w.If(w.Ballot([&](int lane) { return (tid[lane] & 1u) == 0; }),
           [&] { w.Op([&](int lane) { acc[lane] += v[lane]; }); });
      w.Op([&](int lane) { ++t[lane]; });
    });
    w.Store(out, [&](int lane) { return tid[lane]; },
            [&](int lane) { return acc[lane]; });
  });

  dev.Launch(KernelMeta{"micro_strided", 32, 0}, cfg, [&](Warp& w) {
    Reg<float> sum;
    w.Op([&](int lane) { sum[lane] = 0.0f; });
    // Column-major style strided read: 8 elements, 4096 apart.
    w.LoadStrided(data,
                  [&](int lane) {
                    return (static_cast<size_t>(w.GlobalThreadId(lane)) *
                            31u) %
                           (n - 8 * 4096);
                  },
                  /*count=*/8, /*stride=*/4096,
                  [&](int lane, const float* p) { sum[lane] += p[0]; });
    w.Op([](int) {});
  });

  dev.Launch(KernelMeta{"micro_atomics", 32, 0}, cfg, [&](Warp& w) {
    Reg<uint32_t> tid;
    w.Op([&](int lane) {
      tid[lane] = static_cast<uint32_t>(w.GlobalThreadId(lane));
    });
    // Cross-block histogram: every block hits the same 97 cells.
    w.AtomicAdd(hist, [&](int lane) { return tid[lane] % hist_bins; },
                [](int) { return uint32_t{1}; }, [](int, uint32_t) {});
    w.AtomicMinFloat(minmax, [](int) { return 0; },
                     [&](int lane) { return host_data[tid[lane]]; });
    w.AtomicMaxFloat(minmax, [](int) { return 1; },
                     [&](int lane) { return host_data[tid[lane]]; });
  });

  MicroRun run;
  run.profile = dev.profile();
  run.histogram.assign(hist_bins, 0);
  for (size_t i = 0; i < hist_bins; ++i) run.histogram[i] = hist[i];
  run.minmax = {minmax[0], minmax[1]};
  run.out.resize(total);
  dev.CopyToHost(out, run.out.data(), total);
  return run;
}

TEST(ParallelLaunch, MicroGridIsWorkerCountInvariant) {
  const MicroRun serial = RunMicroGrid(1);
  // Sanity: the workload actually exercises cache pressure, divergence,
  // and atomic conflicts.
  const KernelStats agg = serial.profile.AggregateStats();
  EXPECT_GT(agg.dram_transactions, 0u);
  EXPECT_LT(agg.dram_transactions, agg.global_transactions);
  EXPECT_GT(agg.divergent_branches, 0u);
  EXPECT_GT(agg.atomic_serializations, 0u);
  for (const int workers : kWorkerCounts) {
    SCOPED_TRACE(workers);
    const MicroRun run = RunMicroGrid(workers);
    ExpectProfilesEqual(serial.profile, run.profile);
    EXPECT_EQ(serial.histogram, run.histogram);
    EXPECT_EQ(serial.minmax, run.minmax);
    EXPECT_EQ(serial.out, run.out);
  }
}

TEST(ParallelLaunch, HostSerialMetaForcesLegacyPath) {
  // A deliberately order-dependent kernel (fetch-add slot reservation)
  // marked host_serial must give the serial slot assignment at any
  // worker count.
  auto run = [](int workers) {
    Device dev(DeviceSpec::TeslaK20c());
    dev.set_execution_threads(workers);
    const size_t n = 4096;
    DeviceBuffer<uint32_t> cursor = dev.Alloc<uint32_t>(1, "cursor");
    cursor[0] = 0;
    DeviceBuffer<uint32_t> slots = dev.Alloc<uint32_t>(n, "slots");
    KernelMeta meta{"reserve_slots", 24, 0};
    meta.host_serial = true;
    dev.Launch(meta, LaunchConfig::Cover(static_cast<int64_t>(n), 128),
               [&](Warp& w) {
      Reg<uint32_t> slot;
      w.AtomicAdd(cursor, [](int) { return 0; },
                  [](int) { return uint32_t{1}; },
                  [&](int lane, uint32_t old) { slot[lane] = old; });
      w.Store(slots,
              [&](int lane) { return w.GlobalThreadId(lane); },
              [&](int lane) { return slot[lane]; });
    });
    std::vector<uint32_t> out(n);
    dev.CopyToHost(slots, out.data(), n);
    return out;
  };
  const std::vector<uint32_t> serial = run(1);
  EXPECT_EQ(serial, run(2));
  EXPECT_EQ(serial, run(8));
}

// --- End-to-end: the real level-1/level-2 kernels --------------------------

HostMatrix RandomClusteredMatrix(size_t n, size_t dims, uint64_t seed) {
  Rng rng(seed);
  HostMatrix out(n, dims);
  const int clusters = 9;
  for (size_t p = 0; p < n; ++p) {
    const uint64_t c = rng.NextBounded(clusters);
    for (size_t j = 0; j < dims; ++j) {
      out.at(p, j) = static_cast<float>(c) * 0.7f + rng.NextFloat() * 0.3f;
    }
  }
  return out;
}

struct EngineRun {
  KnnResult result{0, 1};
  uint64_t distance_calcs = 0;
  double sim_time_s = 0.0;
  Profile profile;
};

EngineRun RunEngine(const core::TiOptions& base, int workers,
                    const HostMatrix& query, const HostMatrix& target,
                    int k) {
  core::TiOptions options = base;
  options.sim_threads = workers;
  Device dev(DeviceSpec::TeslaK20c());
  core::TiKnnEngine engine(&dev, options);
  engine.Prepare(query, target);
  EngineRun run;
  core::KnnRunStats stats;
  run.result = engine.Run(k, &stats);
  run.distance_calcs = stats.distance_calcs;
  run.sim_time_s = stats.sim_time_s;
  run.profile = dev.profile();
  return run;
}

void ExpectEngineDeterministic(const core::TiOptions& options) {
  const HostMatrix target = RandomClusteredMatrix(700, 8, 1);
  const HostMatrix query = RandomClusteredMatrix(300, 8, 2);
  const int k = 10;
  const EngineRun serial = RunEngine(options, 1, query, target, k);
  for (const int workers : kWorkerCounts) {
    SCOPED_TRACE(workers);
    const EngineRun run = RunEngine(options, workers, query, target, k);
    ExpectResultsEqual(serial.result, run.result);
    EXPECT_EQ(serial.distance_calcs, run.distance_calcs);
    EXPECT_EQ(serial.sim_time_s, run.sim_time_s);
    ExpectProfilesEqual(serial.profile, run.profile);
  }
}

TEST(ParallelLaunch, SweetKnnAdaptiveIsWorkerCountInvariant) {
  ExpectEngineDeterministic(core::TiOptions{});
}

TEST(ParallelLaunch, BasicTiIsWorkerCountInvariant) {
  ExpectEngineDeterministic(core::TiOptions::BasicTi());
}

TEST(ParallelLaunch, MultiThreadPerQueryIsWorkerCountInvariant) {
  core::TiOptions options;
  options.threads_per_query_override = 4;  // exercises shared-theta slots
  options.filter_override = core::Level2Filter::kFull;
  ExpectEngineDeterministic(options);
}

TEST(ParallelLaunch, PartialFilterIsWorkerCountInvariant) {
  core::TiOptions options;
  options.filter_override = core::Level2Filter::kPartial;
  ExpectEngineDeterministic(options);
}

TEST(ParallelLaunch, CpuBaselinesAreThreadCountInvariant) {
  const HostMatrix target = RandomClusteredMatrix(500, 6, 3);
  const HostMatrix query = RandomClusteredMatrix(200, 6, 4);
  const int k = 5;
  const KnnResult bf1 = baseline::BruteForceCpu(query, target, k,
                                                core::Metric::kEuclidean, 1);
  for (const int workers : kWorkerCounts) {
    SCOPED_TRACE(workers);
    ExpectResultsEqual(bf1, baseline::BruteForceCpu(
                                query, target, k, core::Metric::kEuclidean,
                                workers));
  }
}

}  // namespace
}  // namespace sweetknn::gpusim
