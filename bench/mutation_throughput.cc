// Measures the mutable serving layer: a mutator stream of inserts and
// removes against a live KnnService while query clients keep firing,
// swept over the compaction-trigger knob (compact_delta_fraction). For
// each sweep point it reports sustained mutations/sec, the request
// latency p99 *during* the mutation/compaction storm, how many
// background compactions ran, and the residual delta size — and then
// verifies (after a final CompactAll) that the stormed service answers
// bit-identically to a cold service built over the surviving points.
// Emits BENCH_mutation.json.
//
// Usage: mutation_throughput [--scale=F] [--shards=N] [--clients=N]
//        [--mutations=N]

#include <atomic>
#include <cstdio>
#include <cstring>
#include <map>
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
constexpr size_t kDims = 8;

struct MutationRun {
  double fraction = 0.0;
  size_t initial_rows = 0;
  size_t inserts = 0;
  size_t removes = 0;
  double mutation_wall_s = 0.0;
  double mutations_per_s = 0.0;
  double latency_p50_s = 0.0;
  double latency_p99_s = 0.0;
  uint64_t compactions = 0;
  uint64_t compaction_aborts = 0;
  size_t residual_delta = 0;
  size_t residual_tombstones = 0;
  bool exact = false;
};

HostMatrix RandomPoints(size_t n, uint64_t seed) {
  Rng rng(seed);
  HostMatrix m(n, kDims);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < kDims; ++j) {
      m.at(i, j) = static_cast<float>(rng.NextDouble() * 4.0 - 2.0);
    }
  }
  return m;
}

MutationRun RunOne(const HostMatrix& target, double fraction, int shards,
                   int clients, size_t mutations) {
  serve::ServiceConfig config;
  config.num_shards = shards;
  config.max_batch_size = 8;
  config.compact_delta_fraction = fraction;
  config.auto_compact = true;
  serve::KnnService service(target, config);

  // Query pressure for the whole mutation window: the latency histogram
  // these clients fill is the "p99 during compaction" headline. Each
  // client runs a fixed request count so the overlap window is long
  // enough to catch compactions in flight (a raw mutation is just a
  // locked append — orders of magnitude cheaper than a query).
  constexpr size_t kRequestsPerClient = 250;
  std::atomic<int> clients_remaining{clients};
  std::vector<std::thread> query_threads;
  for (int c = 0; c < clients; ++c) {
    query_threads.emplace_back([&, c] {
      Rng rng(500 + static_cast<uint64_t>(c));
      for (size_t r = 0; r < kRequestsPerClient; ++r) {
        std::vector<float> q(kDims);
        for (float& x : q) {
          x = static_cast<float>(rng.NextDouble() * 4.0 - 2.0);
        }
        (void)service.Search(q, kNeighbors);
      }
      clients_remaining.fetch_sub(1, std::memory_order_acq_rel);
    });
  }

  // The mutator stream: ~3 inserts per remove, removes drawn from our
  // own earlier inserts so the survivor set is known exactly. Runs for
  // as long as the query storm does (capped at `mutations` ops).
  MutationRun run;
  run.fraction = fraction;
  run.initial_rows = target.rows();
  std::map<uint32_t, std::vector<float>> survivors;
  Rng rng(77);
  size_t ops = 0;
  const Stopwatch wall;
  while (ops < mutations &&
         clients_remaining.load(std::memory_order_acquire) > 0) {
    if (!survivors.empty() && rng.NextBounded(4) == 0) {
      auto it = survivors.begin();
      std::advance(it, rng.NextBounded(survivors.size()));
      if (service.Remove(it->first).value()) {
        survivors.erase(it);
        ++run.removes;
      }
    } else {
      std::vector<float> p(kDims);
      for (float& x : p) {
        x = static_cast<float>(rng.NextDouble() * 4.0 - 2.0);
      }
      const uint32_t id = service.Insert(p).value();
      survivors[id] = std::move(p);
      ++run.inserts;
    }
    ++ops;
    std::this_thread::yield();  // share the core with the clients
  }
  run.mutation_wall_s = wall.ElapsedSeconds();
  run.mutations_per_s = static_cast<double>(ops) / run.mutation_wall_s;

  for (std::thread& t : query_threads) t.join();

  const common::HistogramSnapshot latency =
      service.metrics().SnapshotHistogram("sweetknn_request_latency_seconds");
  run.latency_p50_s = latency.Percentile(0.50);
  run.latency_p99_s = latency.Percentile(0.99);
  serve::ServiceStats stats = service.stats();
  run.compactions = stats.compactions;
  run.compaction_aborts = stats.compaction_aborts;
  run.residual_delta = stats.delta_points;
  run.residual_tombstones = stats.tombstones;

  // Exactness: fold the residual overlay, then the stormed service must
  // answer bit-identically to a cold service over the survivors.
  // Background compactions may still be installing; a capture that loses
  // the epoch race aborts, so retry until quiescent.
  for (int attempt = 0; attempt < 64 && !service.CompactAll().ok();
       ++attempt) {
  }
  HostMatrix live(target.rows() + survivors.size(), kDims);
  std::vector<uint32_t> ids;
  for (size_t i = 0; i < target.rows(); ++i) {
    std::memcpy(live.mutable_row(i), target.row(i), kDims * sizeof(float));
    ids.push_back(static_cast<uint32_t>(i));
  }
  size_t row = target.rows();
  for (const auto& [id, p] : survivors) {
    std::memcpy(live.mutable_row(row++), p.data(), kDims * sizeof(float));
    ids.push_back(id);
  }
  serve::ServiceConfig cold_config = config;
  cold_config.auto_compact = false;
  serve::KnnService cold(live, cold_config);
  const HostMatrix probes = RandomPoints(32, 99);
  const KnnResult got = service.JoinBatch(probes, kNeighbors).value();
  const KnnResult want = cold.JoinBatch(probes, kNeighbors).value();
  run.exact = true;
  for (size_t q = 0; q < probes.rows() && run.exact; ++q) {
    for (int i = 0; i < kNeighbors; ++i) {
      const Neighbor& w = want.row(q)[i];
      const uint32_t want_id =
          w.index == kInvalidNeighbor ? kInvalidNeighbor : ids[w.index];
      if (got.row(q)[i].index != want_id ||
          got.row(q)[i].distance != w.distance) {
        run.exact = false;
        break;
      }
    }
  }
  return run;
}

int Main(int argc, char** argv) {
  int shards = 2;
  int clients = 3;
  size_t mutations = 600;
  std::vector<char*> rest;
  rest.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--shards=", 0) == 0) {
      shards = std::atoi(arg.c_str() + 9);
    } else if (arg.rfind("--clients=", 0) == 0) {
      clients = std::atoi(arg.c_str() + 10);
    } else if (arg.rfind("--mutations=", 0) == 0) {
      mutations = static_cast<size_t>(std::atoll(arg.c_str() + 12));
    } else {
      rest.push_back(argv[i]);
    }
  }
  const BenchArgs args =
      BenchArgs::Parse(static_cast<int>(rest.size()), rest.data());
  const size_t n = static_cast<size_t>(2000 * args.scale);
  const HostMatrix target = RandomPoints(n, 13);

  // fraction 2.0 never triggers (pure delta accumulation): the control
  // showing what background compaction buys.
  const std::vector<double> fractions = {2.0, 0.5, 0.1, 0.02};

  std::printf("=== Mutation throughput: %zu base rows, %d shards, "
              "%d query clients, %zu mutations, k=%d ===\n\n",
              n, shards, clients, mutations, kNeighbors);
  PrintTableHeader({"fraction", "muts/s", "p50(us)", "p99(us)",
                    "compactions", "aborts", "delta_left", "exact"});

  std::vector<MutationRun> runs;
  bool all_exact = true;
  for (const double fraction : fractions) {
    MutationRun run = RunOne(target, fraction, shards, clients, mutations);
    all_exact = all_exact && run.exact;
    PrintTableRow({FormatDouble(run.fraction, 2),
                   FormatDouble(run.mutations_per_s, 0),
                   FormatDouble(run.latency_p50_s * 1e6, 1),
                   FormatDouble(run.latency_p99_s * 1e6, 1),
                   std::to_string(run.compactions),
                   std::to_string(run.compaction_aborts),
                   std::to_string(run.residual_delta),
                   run.exact ? "yes" : "NO"});
    runs.push_back(run);
  }
  std::printf("\nall post-storm answers bit-identical to cold rebuild: %s\n",
              all_exact ? "yes" : "NO");

  FILE* json = std::fopen("BENCH_mutation.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n  \"bench\": \"mutation_throughput\",\n%s"
                 "  \"base_rows\": %zu,\n  \"dims\": %zu,\n"
                 "  \"shards\": %d,\n  \"query_clients\": %d,\n"
                 "  \"mutations\": %zu,\n  \"k\": %d,\n"
                 "  \"scale\": %g,\n  \"runs\": [\n",
                 EnvJson(DetectEnv()).c_str(), n, kDims, shards,
                 clients, mutations, kNeighbors, args.scale);
    for (size_t i = 0; i < runs.size(); ++i) {
      const MutationRun& run = runs[i];
      std::fprintf(
          json,
          "    {\"compact_delta_fraction\": %g, \"inserts\": %zu, "
          "\"removes\": %zu, \"mutation_wall_s\": %.6f, "
          "\"mutations_per_s\": %.1f, "
          "\"query_latency_s\": {\"p50\": %.9g, \"p99\": %.9g}, "
          "\"compactions\": %llu, \"compaction_aborts\": %llu, "
          "\"residual_delta_points\": %zu, "
          "\"residual_tombstones\": %zu, \"exact\": %s}%s\n",
          run.fraction, run.inserts, run.removes, run.mutation_wall_s,
          run.mutations_per_s, run.latency_p50_s, run.latency_p99_s,
          static_cast<unsigned long long>(run.compactions),
          static_cast<unsigned long long>(run.compaction_aborts),
          run.residual_delta, run.residual_tombstones,
          run.exact ? "true" : "false", i + 1 < runs.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n  \"all_exact\": %s\n}\n",
                 all_exact ? "true" : "false");
    std::fclose(json);
    std::printf("wrote BENCH_mutation.json\n");
  }
  return all_exact ? 0 : 1;
}

}  // namespace
}  // namespace sweetknn::bench

int main(int argc, char** argv) { return sweetknn::bench::Main(argc, argv); }
