// Fork-join nesting: a region opened inside another runs inline on the
// thread that opens it — on a pool worker and on the region's own calling
// thread (slot 0) alike. A regression hangs instead of failing, so ctest
// runs this suite under a timeout.

#include <atomic>
#include <mutex>
#include <set>

#include "common/thread_pool.h"
#include "gtest/gtest.h"
#include "serve/knn_service.h"
#include "test_util.h"

namespace sweetknn {
namespace {

TEST(ThreadPoolTest, NestedForkJoinFromTheCallingThreadReturns) {
  common::ThreadPool pool;
  std::atomic<int> inner_runs{0};
  std::atomic<int> nonzero_inner_slots{0};
  pool.ForkJoin(4, [&](int) {
    pool.ForkJoin(4, [&](int inner) {
      if (inner != 0) nonzero_inner_slots.fetch_add(1);
      inner_runs.fetch_add(1);
    });
  });
  // Every outer participant ran the nested region once, inline as its
  // own slot 0 — including the calling thread.
  EXPECT_EQ(inner_runs.load(), 4);
  EXPECT_EQ(nonzero_inner_slots.load(), 0);

  // The calling thread leaves the region behind: its next region fans
  // out to pool workers again.
  std::mutex mutex;
  std::set<int> slots;
  pool.ForkJoin(2, [&](int slot) {
    std::lock_guard<std::mutex> lock(mutex);
    slots.insert(slot);
  });
  EXPECT_EQ(slots, (std::set<int>{0, 1}));
}

// KnnService prepares its shards inside a fork-join region with
// options.sim_threads workers. The service must come up and answer
// bit-identically to a serial build, approximate requests included: they
// get the exact bytes. The device route is pinned, since sim_threads is
// the simulated device's worker count.
TEST(ThreadPoolTest, AnnServiceWithParallelSimThreadsMatchesSerial) {
  const HostMatrix target = testing::ClusteredPoints(400, 6, 4, 1301, 0.1f);
  const HostMatrix queries = testing::ClusteredPoints(12, 6, 3, 1302, 0.1f);
  serve::ServiceConfig config;
  config.num_shards = 2;
  config.auto_compact = false;
  config.route = core::QueryRoute::kDevice;
  config.options.sim_threads = 4;
  serve::KnnService parallel(target, config);
  config.options.sim_threads = 1;
  serve::KnnService serial(target, config);

  const KnnResult want = serial.JoinBatch(queries, 5).value();
  for (const ann::SearchMode& mode :
       {ann::SearchMode::Exact(), ann::SearchMode::Approx(0.9)}) {
    const KnnResult got = parallel.JoinBatch(queries, 5, mode).value();
    ASSERT_EQ(got.num_queries(), want.num_queries());
    for (size_t q = 0; q < want.num_queries(); ++q) {
      for (int j = 0; j < want.k(); ++j) {
        EXPECT_EQ(got.row(q)[j].index, want.row(q)[j].index);
        EXPECT_EQ(got.row(q)[j].distance, want.row(q)[j].distance);
      }
    }
  }
  const char* const kDeviceRoutes = "sweetknn_planner_device_routes_total";
  EXPECT_EQ(serial.metrics().CounterValue(kDeviceRoutes), 2.0);
  EXPECT_EQ(parallel.metrics().CounterValue(kDeviceRoutes), 4.0);
}

}  // namespace
}  // namespace sweetknn
