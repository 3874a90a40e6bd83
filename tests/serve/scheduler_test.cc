// FairScheduler (serve/scheduler.h): deficit-round-robin ratios, the
// admission bound, close-then-drain, Forget semantics, and the
// tenant-targeted pops the micro-batcher uses. T = int keeps the
// accounting visible: the item IS its submission order.
#include "serve/scheduler.h"

#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace sweetknn::serve {
namespace {

using Sched = FairScheduler<int>;
using common::PopResult;

Sched::Options Opts(size_t depth, size_t quantum) {
  Sched::Options opts;
  opts.max_queue_depth = depth;
  opts.quantum = quantum;
  return opts;
}

TEST(ParseWeightListTest, ParsesPositiveWeights) {
  const Result<std::vector<double>> parsed = ParseWeightList("4,1,2.5");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed.value().size(), 3u);
  EXPECT_DOUBLE_EQ(parsed.value()[0], 4.0);
  EXPECT_DOUBLE_EQ(parsed.value()[1], 1.0);
  EXPECT_DOUBLE_EQ(parsed.value()[2], 2.5);
}

TEST(ParseWeightListTest, EmptySpecIsAnEmptyList) {
  const Result<std::vector<double>> parsed = ParseWeightList("");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().empty());
}

TEST(ParseWeightListTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(ParseWeightList("4,").ok());
  EXPECT_FALSE(ParseWeightList("4,,1").ok());
  EXPECT_FALSE(ParseWeightList("abc").ok());
  EXPECT_FALSE(ParseWeightList("4,0").ok());
  EXPECT_FALSE(ParseWeightList("-1").ok());
  EXPECT_FALSE(ParseWeightList("1,nan").ok());
}

TEST(FairSchedulerTest, SingleTenantIsFifo) {
  Sched sched(Opts(0, 8));
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(sched.Submit("default", i, 1), Sched::Admit::kAdmitted);
  }
  EXPECT_EQ(sched.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    int item = -1;
    std::string tenant;
    ASSERT_EQ(sched.WaitPop(&item, &tenant), PopResult::kItem);
    EXPECT_EQ(item, i);
    EXPECT_EQ(tenant, "default");
  }
  EXPECT_EQ(sched.size(), 0u);
  EXPECT_EQ(sched.peak_depth(), 5u);
}

// Under saturation a 4:1 weighted pair is served 4:1 in cost units.
// Both sub-queues stay non-empty throughout the measured window, so the
// DRR ratio must land within 25% of the configured one (the storm test
// asserts the same bound end-to-end through the service).
TEST(FairSchedulerTest, DrrFollowsWeightsUnderSaturation) {
  Sched sched(Opts(0, 4));
  sched.SetWeight("heavy", 4.0);
  sched.SetWeight("light", 1.0);
  for (int i = 0; i < 600; ++i) {
    ASSERT_EQ(sched.Submit("heavy", i, 1), Sched::Admit::kAdmitted);
    ASSERT_EQ(sched.Submit("light", i, 1), Sched::Admit::kAdmitted);
  }
  std::map<std::string, int> served;
  for (int i = 0; i < 500; ++i) {
    int item = -1;
    std::string tenant;
    ASSERT_EQ(sched.WaitPop(&item, &tenant), PopResult::kItem);
    ++served[tenant];
  }
  ASSERT_GT(served["light"], 0);
  const double ratio =
      static_cast<double>(served["heavy"]) / served["light"];
  EXPECT_GT(ratio, 4.0 * 0.75) << "heavy=" << served["heavy"]
                               << " light=" << served["light"];
  EXPECT_LT(ratio, 4.0 * 1.25) << "heavy=" << served["heavy"]
                               << " light=" << served["light"];
}

// Costs weigh into the deficit: items of cost 4 on one side and cost 1
// on the other, equal weights -- item counts settle near 1:4.
TEST(FairSchedulerTest, DrrChargesCostNotItemCount) {
  Sched sched(Opts(0, 8));
  sched.SetWeight("wide", 1.0);
  sched.SetWeight("narrow", 1.0);
  for (int i = 0; i < 400; ++i) {
    ASSERT_EQ(sched.Submit("wide", i, 4), Sched::Admit::kAdmitted);
    ASSERT_EQ(sched.Submit("narrow", i, 1), Sched::Admit::kAdmitted);
  }
  std::map<std::string, int> served;
  for (int i = 0; i < 300; ++i) {
    int item = -1;
    std::string tenant;
    ASSERT_EQ(sched.WaitPop(&item, &tenant), PopResult::kItem);
    ++served[tenant];
  }
  ASSERT_GT(served["wide"], 0);
  const double ratio =
      static_cast<double>(served["narrow"]) / served["wide"];
  EXPECT_GT(ratio, 4.0 * 0.75) << "narrow=" << served["narrow"]
                               << " wide=" << served["wide"];
  EXPECT_LT(ratio, 4.0 * 1.25) << "narrow=" << served["narrow"]
                               << " wide=" << served["wide"];
}

// Regression: an idle tenant between cursor and the only backlogged one
// used to starve the arrival credit — the cursor stepped off the empty
// sub-queue without granting, so a head item costing more than one
// quantum could never be afforded and the DRR pick spun forever.
TEST(FairSchedulerTest, ServesPastIdleTenantsWhenHeadExceedsQuantum) {
  Sched sched(Opts(0, 4));
  sched.SetWeight("asleep", 1.0);  // idle forever, sorts before "busy"
  sched.SetWeight("busy", 1.0);
  sched.SetWeight("zzz-idle", 1.0);  // idle forever, sorts after
  ASSERT_EQ(sched.Submit("busy", 7, 24), Sched::Admit::kAdmitted);
  int item = -1;
  std::string tenant;
  ASSERT_EQ(sched.WaitPop(&item, &tenant), PopResult::kItem);
  EXPECT_EQ(item, 7);
  EXPECT_EQ(tenant, "busy");
}

TEST(FairSchedulerTest, ShedsBeyondMaxDepthAcrossTenants) {
  Sched sched(Opts(4, 8));
  EXPECT_EQ(sched.Submit("a", 0, 1), Sched::Admit::kAdmitted);
  EXPECT_EQ(sched.Submit("a", 1, 1), Sched::Admit::kAdmitted);
  EXPECT_EQ(sched.Submit("b", 2, 1), Sched::Admit::kAdmitted);
  EXPECT_EQ(sched.Submit("b", 3, 1), Sched::Admit::kAdmitted);
  // The bound is global: tenant c is bounced by a+b's backlog.
  EXPECT_EQ(sched.Submit("c", 4, 1), Sched::Admit::kShed);
  int item = -1;
  std::string tenant;
  ASSERT_EQ(sched.WaitPop(&item, &tenant), PopResult::kItem);
  EXPECT_EQ(sched.Submit("c", 5, 1), Sched::Admit::kAdmitted);
  EXPECT_EQ(sched.peak_depth(), 4u);
}

TEST(FairSchedulerTest, CloseDrainsAdmittedItemsThenReportsClosed) {
  Sched sched(Opts(0, 8));
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(sched.Submit("default", i, 1), Sched::Admit::kAdmitted);
  }
  sched.Close();
  EXPECT_EQ(sched.Submit("default", 9, 1), Sched::Admit::kClosed);
  for (int i = 0; i < 3; ++i) {
    int item = -1;
    std::string tenant;
    ASSERT_EQ(sched.WaitPop(&item, &tenant), PopResult::kItem);
    EXPECT_EQ(item, i);
  }
  int item = -1;
  std::string tenant;
  EXPECT_EQ(sched.WaitPop(&item, &tenant), PopResult::kClosed);
}

TEST(FairSchedulerTest, ForgetDropsOnlyEmptySubQueues) {
  Sched sched(Opts(0, 8));
  sched.SetWeight("keep", 2.0);
  sched.SetWeight("gone", 2.0);
  ASSERT_EQ(sched.Submit("keep", 7, 1), Sched::Admit::kAdmitted);
  sched.Forget("gone");  // empty: bookkeeping dropped
  sched.Forget("keep");  // queued item: kept, must still drain
  EXPECT_EQ(sched.tenant_depth("keep"), 1u);
  int item = -1;
  std::string tenant;
  ASSERT_EQ(sched.WaitPop(&item, &tenant), PopResult::kItem);
  EXPECT_EQ(item, 7);
  EXPECT_EQ(tenant, "keep");
}

TEST(FairSchedulerTest, TenantTargetedPops) {
  Sched sched(Opts(0, 8));
  ASSERT_EQ(sched.Submit("a", 1, 1), Sched::Admit::kAdmitted);
  ASSERT_EQ(sched.Submit("b", 2, 1), Sched::Admit::kAdmitted);
  int item = -1;
  EXPECT_FALSE(sched.TryPopTenant("missing", &item));
  ASSERT_TRUE(sched.TryPopTenant("b", &item));
  EXPECT_EQ(item, 2);
  EXPECT_FALSE(sched.TryPopTenant("b", &item));
}

// Out-of-turn pops (batch coalescing) drive the tenant's deficit
// negative; the DRR cursor then repays the debt before serving it
// again, so long-run ratios survive arbitrary batch shapes.
TEST(FairSchedulerTest, OutOfTurnPopsChargeTheDeficit) {
  Sched sched(Opts(0, 4));
  sched.SetWeight("a", 1.0);
  sched.SetWeight("b", 1.0);
  for (int i = 0; i < 300; ++i) {
    ASSERT_EQ(sched.Submit("a", i, 1), Sched::Admit::kAdmitted);
    ASSERT_EQ(sched.Submit("b", i, 1), Sched::Admit::kAdmitted);
  }
  // Borrow heavily from b out of turn...
  int item = -1;
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(sched.TryPopTenant("b", &item));
  // ...then let DRR serve: counting b's borrowed 100, totals even out.
  std::map<std::string, int> served{{"a", 0}, {"b", 100}};
  for (int i = 0; i < 300; ++i) {
    std::string tenant;
    ASSERT_EQ(sched.WaitPop(&item, &tenant), PopResult::kItem);
    ++served[tenant];
  }
  const double ratio = static_cast<double>(served["a"]) / served["b"];
  EXPECT_GT(ratio, 0.75) << "a=" << served["a"] << " b=" << served["b"];
  EXPECT_LT(ratio, 1.25) << "a=" << served["a"] << " b=" << served["b"];
}

TEST(FairSchedulerTest, WaitPopBlocksUntilSubmit) {
  Sched sched(Opts(0, 8));
  sched.SetWeight("default", 1.0);
  int item = -1;
  std::string tenant;
  std::thread producer([&sched] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    sched.Submit("default", 42, 1);
  });
  EXPECT_EQ(sched.WaitPop(&item, &tenant), PopResult::kItem);
  EXPECT_EQ(item, 42);
  producer.join();
}

}  // namespace
}  // namespace sweetknn::serve
