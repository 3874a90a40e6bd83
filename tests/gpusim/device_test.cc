#include "gpusim/device.h"

#include <set>

#include "gtest/gtest.h"

namespace sweetknn::gpusim {
namespace {

TEST(DeviceTest, LaunchCoversEveryThreadExactlyOnce) {
  Device dev(DeviceSpec::TeslaK20c());
  std::set<int> seen;
  const LaunchConfig cfg = LaunchConfig::Cover(1000, 128);
  EXPECT_EQ(cfg.grid_blocks, 8);
  dev.Launch(KernelMeta{"cover", 32, 0}, cfg, [&](Warp& w) {
    w.Op([&](int lane) {
      const int tid = w.GlobalThreadId(lane);
      EXPECT_TRUE(seen.insert(tid).second) << "duplicate thread " << tid;
    });
  });
  EXPECT_EQ(seen.size(), 1024u);  // 8 blocks x 128 threads.
  EXPECT_EQ(*seen.rbegin(), 1023);
}

TEST(DeviceTest, PartialTrailingWarpIsMasked) {
  Device dev(DeviceSpec::TeslaK20c());
  int total_lanes = 0;
  dev.Launch(KernelMeta{"partial", 32, 0}, LaunchConfig{1, 40},
             [&](Warp& w) { total_lanes += w.ActiveCount(); });
  EXPECT_EQ(total_lanes, 40);
}

TEST(DeviceTest, ProfileRecordsLaunches) {
  Device dev(DeviceSpec::TeslaK20c());
  dev.Launch(KernelMeta{"a", 32, 0}, LaunchConfig{1, 32},
             [](Warp& w) { w.Op([](int) {}); });
  dev.Launch(KernelMeta{"b", 32, 0}, LaunchConfig{1, 32},
             [](Warp& w) { w.Op([](int) {}); });
  ASSERT_EQ(dev.profile().launches.size(), 2u);
  EXPECT_EQ(dev.profile().launches[0].kernel_name, "a");
  EXPECT_EQ(dev.profile().launches[1].kernel_name, "b");
  EXPECT_GT(dev.SimTime(), 0.0);
}

TEST(DeviceTest, AnalyticLaunchContributesTime) {
  Device dev(DeviceSpec::TeslaK20c());
  dev.RecordAnalyticLaunch("gemm", 1.5e-3);
  EXPECT_DOUBLE_EQ(dev.profile().TotalKernelTime(), 1.5e-3);
  EXPECT_TRUE(dev.profile().launches[0].analytic);
  // Analytic launches are excluded from aggregate counters.
  EXPECT_EQ(dev.profile().AggregateStats().warp_instructions, 0u);
}

TEST(DeviceTest, ResetProfileClears) {
  Device dev(DeviceSpec::TeslaK20c());
  dev.RecordAnalyticLaunch("x", 1.0);
  dev.ResetProfile();
  EXPECT_TRUE(dev.profile().launches.empty());
  EXPECT_DOUBLE_EQ(dev.SimTime(), 0.0);
}

TEST(DeviceTest, StatsForKernelsMatching) {
  Device dev(DeviceSpec::TeslaK20c());
  dev.Launch(KernelMeta{"level2_full_filter", 32, 0}, LaunchConfig{1, 32},
             [](Warp& w) { w.Op([](int) {}); });
  dev.Launch(KernelMeta{"other", 32, 0}, LaunchConfig{1, 32},
             [](Warp& w) { w.Op([](int) {}, 5); });
  const KernelStats s = dev.profile().StatsForKernelsMatching("level2");
  EXPECT_EQ(s.warp_instructions, 1u);
}

TEST(DeviceTest, LaunchRejectsOversizedBlocks) {
  Device dev(DeviceSpec::TeslaK20c());
  EXPECT_DEATH(dev.Launch(KernelMeta{"big", 32, 0}, LaunchConfig{1, 2048},
                          [](Warp&) {}),
               "block_threads");
}

TEST(DeviceSpecPresetsTest, PresetsDiffer) {
  const DeviceSpec k20 = DeviceSpec::TeslaK20c();
  const DeviceSpec k40 = DeviceSpec::TeslaK40();
  const DeviceSpec small = DeviceSpec::GtxSmall();
  EXPECT_GT(k40.num_sms, k20.num_sms);
  EXPECT_GT(k40.peak_sp_flops, k20.peak_sp_flops);
  EXPECT_LT(small.num_sms, k20.num_sms);
  EXPECT_LT(small.mem_bandwidth_bytes_per_s,
            k20.mem_bandwidth_bytes_per_s);
}

TEST(CacheSimTest, MissThenHit) {
  CacheSim cache(16);
  EXPECT_FALSE(cache.Access(100));
  EXPECT_TRUE(cache.Access(100));
}

TEST(CacheSimTest, ClearEvictsEverything) {
  CacheSim cache(16);
  cache.Access(1);
  cache.Clear();
  EXPECT_FALSE(cache.Access(1));
}

TEST(CacheSimTest, CapacityBoundsHitRate) {
  CacheSim cache(64);
  // Stream far more segments than capacity twice; second pass should
  // still mostly miss (working set exceeds capacity).
  int hits = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (uint64_t seg = 0; seg < 10000; ++seg) {
      if (cache.Access(seg)) ++hits;
    }
  }
  EXPECT_LT(hits, 2000);
}

TEST(CacheSimTest, SmallWorkingSetMostlyHits) {
  CacheSim cache(1024);
  int hits = 0;
  for (int pass = 0; pass < 10; ++pass) {
    for (uint64_t seg = 0; seg < 64; ++seg) {
      if (cache.Access(seg)) ++hits;
    }
  }
  EXPECT_GT(hits, 500);
}

}  // namespace
}  // namespace sweetknn::gpusim
