// Regression tests for the cluster's timed-wait paths: a worker that
// accepts but never replies, a peer that answers garbage, and a
// SIGSTOPped (wedged, not dead) worker process. Every one must surface
// as a clean Status within the configured deadline — never a wedged
// router thread (the BlockingQueue::WaitPopUntil and poll()-deadline
// fixes this suite pins).
//
// The cluster legs need the worker binary; they skip unless SWEETKNN_CLI
// points at the sweetknn_cli executable (ctest exports it).

#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>

#include "gtest/gtest.h"
#include "net/frame.h"
#include "net/socket.h"
#include "serve/router.h"
#include "test_util.h"

namespace sweetknn::serve {
namespace {

using std::chrono::steady_clock;
using std::chrono::milliseconds;

std::string TempSocketPath(const char* tag) {
  return ::testing::TempDir() + "/sweetknn_timeout_" + tag + "_" +
         std::to_string(::getpid()) + ".sock";
}

// A server that accepts and then never replies must yield
// DeadlineExceeded from RecvFrame at the deadline, not a blocked thread.
TEST(RouterTimeoutTest, SilentPeerHitsRecvDeadline) {
  const std::string path = TempSocketPath("silent");
  Result<net::Listener> listener = net::Listener::Bind(path);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();

  std::thread server([&] {
    Result<net::Connection> peer =
        listener.value().Accept(steady_clock::now() + milliseconds(2000));
    ASSERT_TRUE(peer.ok()) << peer.status().ToString();
    // Hold the connection open, send nothing, until the client is done.
    std::this_thread::sleep_for(milliseconds(400));
  });

  Result<net::Connection> conn =
      net::Connection::Connect(path, steady_clock::now() + milliseconds(2000));
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();

  const auto start = steady_clock::now();
  Result<net::Frame> reply =
      net::RecvFrame(conn.value(), start + milliseconds(150));
  const auto elapsed = steady_clock::now() - start;
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kDeadlineExceeded)
      << reply.status().ToString();
  EXPECT_LT(elapsed, milliseconds(2000)) << "recv did not honor its deadline";
  server.join();
}

// A peer that answers with garbage bytes must produce a clean IoError,
// never a crash or a giant allocation.
TEST(RouterTimeoutTest, GarbageReplyRejectedCleanly) {
  const std::string path = TempSocketPath("garbage");
  Result<net::Listener> listener = net::Listener::Bind(path);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();

  std::thread server([&] {
    Result<net::Connection> peer =
        listener.value().Accept(steady_clock::now() + milliseconds(2000));
    ASSERT_TRUE(peer.ok()) << peer.status().ToString();
    std::string junk(64, '\0');
    for (size_t i = 0; i < junk.size(); ++i) {
      junk[i] = static_cast<char>(0xa5 ^ (i * 29));
    }
    ASSERT_TRUE(peer.value()
                    .SendAll(junk.data(), junk.size(),
                             steady_clock::now() + milliseconds(2000))
                    .ok());
  });

  Result<net::Connection> conn =
      net::Connection::Connect(path, steady_clock::now() + milliseconds(2000));
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  Result<net::Frame> reply =
      net::RecvFrame(conn.value(), steady_clock::now() + milliseconds(2000));
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kIoError)
      << reply.status().ToString();
  server.join();
}

// A SIGSTOPped worker is alive to the kernel but answers nothing; the
// router must declare it dead at rpc_timeout and fail the request with
// a clean Status (no replicas here, so the shard is lost, not wedged).
TEST(RouterTimeoutTest, WedgedWorkerTimesOutAndDies) {
  const char* cli = std::getenv("SWEETKNN_CLI");
  if (cli == nullptr) {
    GTEST_SKIP() << "SWEETKNN_CLI not set; cluster leg needs the CLI binary";
  }
  const HostMatrix target = testing::ClusteredPoints(48, 3, 2, 515, 0.08f);

  RouterConfig config;
  config.service.num_shards = 2;
  config.service.max_batch_size = 8;
  config.service.max_batch_wait = std::chrono::microseconds(200);
  config.num_workers = 1;
  config.replicas = 0;
  config.rpc_timeout = milliseconds(300);
  config.worker_binary = cli;

  Result<std::unique_ptr<Router>> started = Router::Start(target, config);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  Router& router = *started.value();

  // Sanity: the cluster answers before the wedge.
  const HostMatrix queries = testing::UniformPoints(2, 3, 9);
  ASSERT_TRUE(router.JoinBatch(queries, 3).ok());
  ASSERT_TRUE(router.worker_alive(0));

  ASSERT_EQ(::kill(router.worker_pid(0), SIGSTOP), 0);
  const auto start = steady_clock::now();
  Result<KnnResult> wedged = router.JoinBatch(queries, 3);
  const auto elapsed = steady_clock::now() - start;
  ASSERT_FALSE(wedged.ok());
  EXPECT_EQ(wedged.status().code(), StatusCode::kUnavailable)
      << wedged.status().ToString();
  // rpc_timeout (300ms) plus generous slack, way under the worker's own
  // multi-second budgets: the router's deadline did the work.
  EXPECT_LT(elapsed, milliseconds(5000));
  EXPECT_FALSE(router.worker_alive(0));

  const ClusterStats stats = router.stats();
  EXPECT_GE(stats.rpc_timeouts, 1u);
  EXPECT_EQ(stats.worker_deaths, 1u);

  // Everything after the death fails fast with a clean Status.
  EXPECT_EQ(router.JoinBatch(queries, 3).status().code(),
            StatusCode::kUnavailable);
  EXPECT_FALSE(router.Insert({0.1f, 0.2f, 0.3f}).ok());
  router.Shutdown();
}

// The named tenant rides every prepare/query frame: a cluster started
// with config.tenant = "faces" must answer queries (the workers adopted
// that index name at prepare) and report it from ListWorkerIndexes. And
// the reply queue's tri-state matters after Shutdown: a closed channel
// is kUnavailable — shutdown, not sickness — and must never be charged
// as an RPC timeout (the old boolean pop conflated the two).
TEST(RouterTimeoutTest, TenantRidesTheWireAndShutdownIsNotATimeout) {
  const char* cli = std::getenv("SWEETKNN_CLI");
  if (cli == nullptr) {
    GTEST_SKIP() << "SWEETKNN_CLI not set; cluster leg needs the CLI binary";
  }
  const HostMatrix target = testing::ClusteredPoints(48, 3, 2, 616, 0.08f);

  RouterConfig config;
  config.service.num_shards = 2;
  config.service.max_batch_size = 8;
  config.service.max_batch_wait = std::chrono::microseconds(200);
  config.num_workers = 1;
  config.replicas = 0;
  config.tenant = "faces";
  config.worker_binary = cli;

  Result<std::unique_ptr<Router>> started = Router::Start(target, config);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  Router& router = *started.value();

  const HostMatrix queries = testing::UniformPoints(2, 3, 10);
  ASSERT_TRUE(router.JoinBatch(queries, 3).ok());

  const Result<std::vector<std::string>> hosted = router.ListWorkerIndexes(0);
  ASSERT_TRUE(hosted.ok()) << hosted.status().ToString();
  EXPECT_EQ(hosted.value(), std::vector<std::string>{"faces"});
  EXPECT_EQ(router.ListWorkerIndexes(5).status().code(),
            StatusCode::kInvalidArgument);

  router.Shutdown();
  const Result<std::vector<std::string>> after = router.ListWorkerIndexes(0);
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kUnavailable)
      << after.status().ToString();
  EXPECT_EQ(router.stats().rpc_timeouts, 0u)
      << "a closed channel was charged as an RPC timeout";
}

}  // namespace
}  // namespace sweetknn::serve
