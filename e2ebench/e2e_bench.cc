// End-to-end benchmark: runs one workload of the benchmark declared in
// BENCHMARK.json (repository root), checks every answer it can against
// the BruteForceCpu oracle, and prints every metric as "name value unit".
// e2ebench/README.md says why each workload exists and which end-to-end
// metric each per-layer metric should move.
//
// Usage: e2e_bench --workload=lookup|cluster|mixed --seed=N
//                  [--seconds=S] [--out=FILE] [--trace=FILE] [--smoke]
//                  [--worker-binary=PATH] [--work-dir=DIR]
//
// --trace=FILE keeps spans around every call the benchmark makes into the
// program, writes them to FILE at exit, and adds the per-layer metrics.
// End-to-end numbers are meant to come from untraced runs.
//
// Exit status: 0 when every checked answer was right and no operation
// failed, 1 otherwise, 2 on a usage or environment error.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "ann/knn_graph.h"
#include "ann/search_mode.h"
#include "baseline/brute_force_cpu.h"
#include "bench_common.h"
#include "common/rng.h"
#include "core/device_points.h"
#include "dataset/paper_datasets.h"
#include "e2e_lib.h"
#include "serve/knn_service.h"
#include "serve/router.h"
#include "simd/simd_kernels.h"

namespace sweetknn::e2e {
namespace {

using SteadyClock = std::chrono::steady_clock;
namespace fs = std::filesystem;

/// Load-generator threads, and threads of the (untimed) oracle: the
/// benchmark host has 4 cores.
constexpr int kSenders = 4;
constexpr int kOracleThreads = 4;
constexpr int kServeK = 10;
/// Probe queries checked against the oracle after the load stops (mixed)
/// and rows of the SIMD probe.
constexpr size_t kCheckRows = 256;
constexpr double kApproxRecallTarget = 0.9;
/// A run whose generator sent its median request later than this after
/// its due time did not offer the schedule it claims.
constexpr double kMaxLateP50Ms = 0.5;

double Seconds(SteadyClock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// -- Arguments and report -----------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  std::string out;
  std::string trace;
  bool smoke = false;
  std::string worker_binary = SWEETKNN_E2E_WORKER_BINARY;
  std::string work_dir = "e2e-work";
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "e2e_bench: %s\nusage: e2e_bench "
               "--workload=lookup|cluster|mixed --seed=N [--seconds=S] "
               "[--out=FILE] [--trace=FILE] [--smoke] [--worker-binary=PATH] "
               "[--work-dir=DIR]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      const size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--workload=")) {
      args.workload = v;
    } else if (const char* v = value("--seed=")) {
      char* end = nullptr;
      args.seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') Usage("--seed takes an integer");
      have_seed = true;
    } else if (const char* v = value("--seconds=")) {
      char* end = nullptr;
      args.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(args.seconds > 0.0) ||
          args.seconds > 120.0) {
        Usage("--seconds takes a number in (0, 120]");
      }
    } else if (const char* v = value("--out=")) {
      args.out = v;
    } else if (const char* v = value("--trace=")) {
      args.trace = v;
    } else if (arg == "--smoke") {
      args.smoke = true;
    } else if (const char* v = value("--worker-binary=")) {
      args.worker_binary = v;
    } else if (const char* v = value("--work-dir=")) {
      args.work_dir = v;
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  const std::vector<std::string> known = {"lookup", "cluster", "mixed"};
  if (std::find(known.begin(), known.end(), args.workload) == known.end()) {
    Usage("--workload must be lookup, cluster or mixed");
  }
  if (!have_seed) Usage("--seed is required");
  return args;
}

/// Every metric of one run, the correctness verdict and the op counts.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  void Fail(const std::string& why) {
    correct_ = false;
    errors_.push_back(why);
    std::fprintf(stderr, "e2e_bench: WRONG: %s\n", why.c_str());
  }
  void CountOps(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  void Note(const std::string& key, double value) {
    notes_.emplace_back(key, value);
  }
  bool ok() const { return correct_ && failed_ == 0; }

  void Print() const {
    for (const auto& [key, value] : notes_) {
      std::printf("# %s %.10g\n", key.c_str(), value);
    }
    for (const Metric& m : metrics_) {
      std::printf("%s %.10g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("# correct %d attempted %llu failed %llu\n", correct_ ? 1 : 0,
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
    std::fflush(stdout);
  }

  bool WriteJson(const std::string& path, const Args& args) const {
    std::ofstream out(path, std::ios::trunc);
    if (!out) return false;
    char buf[64];
    out << "{\n  \"bench\": \"e2e\",\n"
        << bench::EnvJson(bench::DetectEnv()) << "  \"workload\": \""
        << args.workload << "\",\n  \"seed\": " << args.seed
        << ",\n  \"seconds\": " << args.seconds
        << ",\n  \"smoke\": " << (args.smoke ? "true" : "false")
        << ",\n  \"traced\": " << (args.trace.empty() ? "false" : "true")
        << ",\n  \"correct\": " << (correct_ ? "true" : "false")
        << ",\n  \"attempted\": " << attempted_
        << ",\n  \"failed\": " << failed_ << ",\n  \"errors\": [";
    for (size_t i = 0; i < errors_.size(); ++i) {
      std::string escaped;
      for (const char c : errors_[i]) {
        if (c == '"' || c == '\\') escaped.push_back('\\');
        escaped.push_back(c);
      }
      out << (i ? ", " : "") << "\"" << escaped << "\"";
    }
    out << "],\n  \"samples\": {";
    for (size_t i = 0; i < notes_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.17g", notes_[i].second);
      out << (i ? ", " : "") << "\"" << notes_[i].first << "\": " << buf;
    }
    out << "},\n  \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.17g", metrics_[i].value);
      out << (i ? "," : "") << "\n    \"" << metrics_[i].name
          << "\": {\"value\": " << buf << ", \"unit\": \"" << metrics_[i].unit
          << "\"}";
    }
    out << "\n  }\n}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, double>> notes_;
  std::vector<std::string> errors_;
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// The end-to-end metrics every workload reports (BENCHMARK.json).
/// Latency is gated on the 25th percentile of uncached reads, the reads
/// that waited least behind other work and host noise. The median and
/// mean of all ops and the highest percentile the sample supports are
/// printed as notes, and are per-layer metrics (bench.*): across runs of
/// the same code on a shared host, the cluster median and every mean
/// moved by more than 0.25, the largest bound (e2ebench/README.md).
void AddEndToEnd(Report* report, double setup_s, const Summary& ops,
                 const std::vector<double>& uncached_reads, double recall) {
  report->Add("setup_s", setup_s, "s");
  report->Add("uncached_read_p25_ms", Quantile(uncached_reads, 0.25) * 1e3,
              "ms");
  report->Add("recall", recall, "ratio");
  report->Note("ops", static_cast<double>(ops.n));
  report->Note("uncached_reads", static_cast<double>(uncached_reads.size()));
  report->Note("p50_ms", ops.p50 * 1e3);
  report->Note("mean_ms", ops.mean * 1e3);
  report->Note("tail_quantile", ops.tail_q);
  report->Note("tail_ms", ops.tail * 1e3);
}

/// span.<name>.self_ms for every call the benchmark traces; names that
/// did not occur in this workload read 0.
void AddSpanMetrics(Report* report, const Tracer& tracer) {
  static const char* const kSpanNames[] = {
      "op",           "search",       "insert",
      "remove",       "save_snapshots", "service_ctor",
      "router_start", "simd_probe",   "ann_probe"};
  const std::map<std::string, double> self =
      MeanSelfTimeByName(tracer.spans());
  for (const char* name : kSpanNames) {
    const auto it = self.find(name);
    report->Add(std::string("span.") + name + ".self_ms",
                it == self.end() ? 0.0 : it->second * 1e3, "ms");
  }
}

// -- Inputs -------------------------------------------------------------------

/// The paper dataset's stand-in with the run seed XORed into its
/// generator seed (seed 0 reproduces the fig9 inputs).
dataset::Dataset StandIn(const std::string& name, double scale,
                         uint64_t seed) {
  dataset::PaperDatasetInfo info = dataset::PaperDatasetByName(name);
  info.seed ^= seed;
  return dataset::MakePaperDataset(info, scale);
}

/// `n` rows, each a random row of `base` plus N(0, sigma^2) noise.
HostMatrix PerturbedRows(const HostMatrix& base, size_t n, float sigma,
                         Rng* rng) {
  HostMatrix out(n, base.cols());
  for (size_t r = 0; r < n; ++r) {
    const float* src = base.row(rng->NextBounded(base.rows()));
    float* dst = out.mutable_row(r);
    for (size_t j = 0; j < base.cols(); ++j) {
      dst[j] = src[j] + sigma * static_cast<float>(rng->NextGaussian());
    }
  }
  return out;
}

HostMatrix SelectRows(const HostMatrix& m, const std::vector<size_t>& rows) {
  HostMatrix out(rows.size(), m.cols());
  for (size_t i = 0; i < rows.size(); ++i) {
    std::memcpy(out.mutable_row(i), m.row(rows[i]), m.cols() * sizeof(float));
  }
  return out;
}

std::vector<float> RowVector(const HostMatrix& m, size_t r) {
  return std::vector<float>(m.row(r), m.row(r) + m.cols());
}

// -- Open-loop serving traffic ------------------------------------------------

enum class OpKind { kExactRead, kApproxRead, kInsert, kRemove, kSave };

bool IsRead(OpKind kind) {
  return kind == OpKind::kExactRead || kind == OpKind::kApproxRead;
}

struct Op {
  double due_s = 0.0;
  OpKind kind = OpKind::kExactRead;
  /// Query pool row (reads), insert pool row (inserts), stable id
  /// (removes), snapshot sequence number (saves).
  uint32_t arg = 0;
};

struct Outcome {
  double latency_s = 0.0;  ///< Due time to completion.
  double late_s = 0.0;     ///< Due time to the call.
  bool ok = false;
  bool traced = false;
  std::vector<Neighbor> neighbors;  ///< Reads.
  uint32_t id = 0;                  ///< Inserts.
};

/// Issues one op and fills ok / neighbors / id. `span` is the op's span
/// id: the call's own span is its child.
using IssueFn = std::function<void(const Op&, Tracer*, uint64_t span,
                                   int64_t request, Outcome*)>;

/// Open loop: every op is sent at its due time by the first free one of
/// kSenders threads, and timed from its due time, so a stall also
/// charges the requests queued behind it. With tracing on, ops with an
/// even index are traced and odd ones are not.
std::vector<Outcome> RunOpenLoop(const std::vector<Op>& ops,
                                 int64_t first_request, const IssueFn& issue,
                                 Tracer* tracer) {
  std::vector<Outcome> outcomes(ops.size());
  std::atomic<size_t> next{0};
  Tracer off(false);
  const SteadyClock::time_point start =
      SteadyClock::now() + std::chrono::milliseconds(2);
  auto sender = [&] {
    for (size_t i = next.fetch_add(1); i < ops.size(); i = next.fetch_add(1)) {
      const SteadyClock::time_point due =
          start + std::chrono::duration_cast<SteadyClock::duration>(
                      std::chrono::duration<double>(ops[i].due_s));
      std::this_thread::sleep_until(due);
      Outcome& out = outcomes[i];
      out.traced = tracer->enabled() && i % 2 == 0;
      Tracer* t = out.traced ? tracer : &off;
      const int64_t request = first_request + static_cast<int64_t>(i);
      const double due_trace = t->Now() - Seconds(SteadyClock::now() - due);
      Span root;
      root.id = t->NewId();
      root.request = request;
      root.name = "op";
      root.start_s = due_trace;
      const SteadyClock::time_point sent = SteadyClock::now();
      issue(ops[i], t, root.id, request, &out);
      const SteadyClock::time_point done = SteadyClock::now();
      root.end_s = t->Now();
      t->Record(std::move(root));
      out.late_s = Seconds(sent - due);
      out.latency_s = Seconds(done - due);
    }
  };
  std::vector<std::thread> threads;
  for (int s = 0; s < kSenders; ++s) threads.emplace_back(sender);
  for (std::thread& t : threads) t.join();
  return outcomes;
}

/// Shapes of the serving workloads.
struct ServeShape {
  double rate = 600.0;      ///< Ops per second offered.
  double warmup_s = 1.0;    ///< Untimed traffic before the timed phase.
  int setups = 3;           ///< Service constructions; the median counts.
  double base_scale = 1.0;  ///< Of the paper stand-in's point count.
  size_t pool = 16384;      ///< Lookup query pool rows.
};

ServeShape ShapeFor(const Args& args) {
  ServeShape shape;
  if (args.workload == "mixed") shape.base_scale = 0.25;
  // The router has no result cache, so cluster offers about the rate at
  // which lookup's reads miss its cache (0.6 x 600): both dispatchers see
  // the same load. At 600 req/s the router's dispatcher, which serves one
  // group at a time, was about half busy, and on a busy host some runs
  // collapsed into queueing.
  if (args.workload == "cluster") shape.rate = 360.0;
  if (args.smoke) {
    shape.rate = 200.0;
    shape.warmup_s = 0.2;
    shape.setups = 1;
    shape.base_scale = 0.05;
    shape.pool = 512;
  }
  return shape;
}

/// The serving configuration every serving workload shares. It keeps
/// options.sim_threads at its default: with more than one thread, the
/// constructor's per-shard ANN builds open a fork-join region inside the
/// shard fan-out's and the constructor deadlocks.
serve::ServiceConfig ServingConfig(const std::string& dataset_name) {
  serve::ServiceConfig config;
  config.num_shards = 2;
  config.max_batch_size = 64;
  config.max_batch_wait = std::chrono::microseconds(500);
  config.cache_capacity = 1024;
  config.enable_ann = true;
  config.dataset_name = dataset_name;
  return config;
}

ann::SearchMode ModeOf(OpKind kind) {
  return kind == OpKind::kApproxRead
             ? ann::SearchMode::Approx(kApproxRecallTarget)
             : ann::SearchMode::Exact();
}

/// The recall target is what approximate requests ask for, not a
/// guarantee the program makes on every input: a miss is reported and
/// warned about, and the `recall` metric's bound gates drift from the
/// parent commit.
void NoteApproxRecall(Report* report, double approx_recall) {
  report->Note("approx_recall", approx_recall);
  if (approx_recall < kApproxRecallTarget) {
    std::fprintf(stderr,
                 "e2e_bench: note: approximate recall %.4f is below the "
                 "%.2f the requests asked for\n",
                 approx_recall, kApproxRecallTarget);
  }
}

/// Generator-side metrics of one timed phase.
void AddTrafficMetrics(Report* report, const std::vector<Op>& ops,
                       const std::vector<Outcome>& outcomes,
                       const Summary& summary) {
  report->Add("bench.mean_ms", summary.mean * 1e3, "ms");
  report->Add("bench.tail_ms", summary.tail * 1e3, "ms");
  std::vector<double> late, reads, writes, traced, untraced;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind == OpKind::kSave) continue;
    late.push_back(outcomes[i].late_s);
    (IsRead(ops[i].kind) ? reads : writes).push_back(outcomes[i].latency_s);
    if (IsRead(ops[i].kind)) {
      (outcomes[i].traced ? traced : untraced)
          .push_back(outcomes[i].latency_s);
    }
  }
  report->Add("bench.late_p50_ms", Quantile(late, 0.5) * 1e3, "ms");
  report->Add("bench.late_p99_ms",
              Quantile(late, TailQuantile(late.size())) * 1e3, "ms");
  report->Add("bench.read_p50_ms", Quantile(reads, 0.5) * 1e3, "ms");
  report->Add("bench.write_p50_ms", Quantile(writes, 0.5) * 1e3, "ms");
  report->Add("trace.overhead_ms",
              (Quantile(traced, 0.5) - Quantile(untraced, 0.5)) * 1e3, "ms");
}

uint64_t Failures(const std::vector<Outcome>& outcomes) {
  return static_cast<uint64_t>(
      std::count_if(outcomes.begin(), outcomes.end(),
                    [](const Outcome& o) { return !o.ok; }));
}

/// Latencies of every timed op except snapshot saves, plus validity of
/// the offered load.
Summary OpSummary(const std::vector<Op>& ops,
                  const std::vector<Outcome>& outcomes, Report* report) {
  std::vector<double> latency, late;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind == OpKind::kSave) continue;
    latency.push_back(outcomes[i].latency_s);
    late.push_back(outcomes[i].late_s);
  }
  report->CountOps(ops.size(), Failures(outcomes));
  const double late_p50_ms = Quantile(late, 0.5) * 1e3;
  if (late_p50_ms > kMaxLateP50Ms) {
    report->Fail("load generator ran late: median lateness " +
                 std::to_string(late_p50_ms) + " ms");
  }
  return Summarize(latency);
}

/// Latencies of the timed reads of a query, in a mode, that neither
/// phase had sent before: no result cache can answer them.
std::vector<double> UncachedReadLatencies(
    const std::vector<Op>& warm, const std::vector<Op>& ops,
    const std::vector<Outcome>& outcomes) {
  std::set<std::pair<uint32_t, OpKind>> sent;
  for (const Op& op : warm) {
    if (IsRead(op.kind)) sent.emplace(op.arg, op.kind);
  }
  std::vector<double> latency;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (IsRead(ops[i].kind) && sent.emplace(ops[i].arg, ops[i].kind).second) {
      latency.push_back(outcomes[i].latency_s);
    }
  }
  return latency;
}

/// Per-layer metrics read from the program's own registry, as deltas
/// over the timed phase. Names the registry lacks read 0.
void AddRegistryMetrics(Report* report, const RegistrySnapshot& a,
                        const RegistrySnapshot& b, int num_workers) {
  auto delta = [&](const std::string& name) {
    return CounterDelta(a, b, name);
  };
  auto mean_ms = [&](const char* name) {
    return HistogramMeanDelta(a, b, name) * 1e3;
  };
  // serve: the in-process front-end's stages.
  const double hits = delta("sweetknn_cache_hits_total");
  const double requests =
      HistogramCountDelta(a, b, "sweetknn_request_latency_seconds");
  // Cache hits never reach the dispatcher; their microsecond latencies
  // are left out of the dispatched-request mean.
  const double dispatched_ms =
      Ratio(HistogramSumDelta(a, b, "sweetknn_request_latency_seconds"),
            requests - hits) *
      1e3;
  const double queue_wait = mean_ms("sweetknn_queue_wait_seconds");
  const double assembly = mean_ms("sweetknn_batch_assembly_seconds");
  const double fanout = mean_ms("sweetknn_shard_fanout_seconds");
  const double merge = mean_ms("sweetknn_merge_seconds");
  report->Add("serve.request_ms", dispatched_ms, "ms");
  report->Add("serve.queue_wait_ms", queue_wait, "ms");
  report->Add("serve.batch_assembly_ms", assembly, "ms");
  report->Add("serve.fanout_ms", fanout, "ms");
  report->Add("serve.merge_ms", merge, "ms");
  report->Add("serve.unaccounted_ms",
              requests - hits > 0
                  ? dispatched_ms - queue_wait - assembly - fanout - merge
                  : 0.0,
              "ms");
  report->Add("serve.batch_rows",
              HistogramMeanDelta(a, b, "sweetknn_batch_size_rows"), "rows");
  report->Add("serve.cache_hit_frac",
              Ratio(hits, delta("sweetknn_cache_lookups_total")), "ratio");
  report->Add("serve.compactions", delta("sweetknn_compactions_total"),
              "count");
  report->Add("serve.compaction_s",
              HistogramSumDelta(a, b, "sweetknn_compaction_seconds"), "s");
  report->Add("serve.compaction_aborts",
              delta("sweetknn_compaction_aborts_total"), "count");
  report->Add("serve.shed", delta("sweetknn_shed_requests_total"), "count");
  report->Add("serve.rejected",
              delta("sweetknn_rejected_requests_total") +
                  delta("sweetknn_router_rejected_requests_total"),
              "count");
  report->Add("serve.deadline_exceeded",
              delta("sweetknn_deadline_exceeded_total"), "count");

  // core: route choice and the work the exact scan does.
  const double device = delta("sweetknn_planner_device_routes_total");
  const double host = delta("sweetknn_planner_host_routes_total");
  report->Add("core.device_route_frac", Ratio(device, device + host),
              "ratio");
  report->Add("core.device_route_ms",
              mean_ms("sweetknn_planner_device_route_seconds"), "ms");
  report->Add("core.host_route_ms",
              mean_ms("sweetknn_planner_host_route_seconds"), "ms");
  report->Add("core.distance_calcs_per_query",
              Ratio(delta("sweetknn_distance_calcs_total"),
                    delta("sweetknn_batched_queries_total")),
              "count");

  // gpusim: the simulated device behind device-routed shard scans. The
  // four stages partition the simulated total.
  const double sim_s = delta("sweetknn_sim_device_seconds_total");
  report->Add("gpusim.sim_s", sim_s, "sim-s");
  for (const char* stage : {"level1", "level2", "transfer", "preprocess"}) {
    report->Add(std::string("gpusim.") + stage + "_s",
                delta(std::string("sweetknn_sim_") + stage + "_seconds_total"),
                "sim-s");
  }
  report->Add("gpusim.host_per_sim",
              Ratio(HistogramSumDelta(a, b,
                                      "sweetknn_planner_device_route_seconds"),
                    sim_s),
              "s/sim-s");

  // ann: graph search work per approximate query.
  const double approx = delta("sweetknn_approx_queries_total");
  report->Add("ann.hops_per_query",
              Ratio(delta("sweetknn_ann_hops_total"), approx), "count");
  report->Add("ann.candidates_per_query",
              Ratio(delta("sweetknn_ann_candidates_total"), approx), "count");

  // router: the cluster front-end and its RPCs.
  double rpc_ms = 0.0, rpc_failures = 0.0;
  for (int w = 0; w < num_workers; ++w) {
    const std::string prefix = "sweetknn_router_worker" + std::to_string(w);
    rpc_ms += HistogramMeanDelta(a, b, prefix + "_rpc_seconds") * 1e3;
    rpc_failures += CounterDelta(a, b, prefix + "_rpc_failures_total");
  }
  rpc_ms = num_workers > 0 ? rpc_ms / num_workers : 0.0;
  const double router_request =
      mean_ms("sweetknn_router_request_latency_seconds");
  const double router_wait = mean_ms("sweetknn_router_queue_wait_seconds");
  const double router_merge = mean_ms("sweetknn_router_merge_seconds");
  report->Add("router.request_ms", router_request, "ms");
  report->Add("router.queue_wait_ms", router_wait, "ms");
  report->Add("router.rpc_ms", rpc_ms, "ms");
  report->Add("router.merge_ms", router_merge, "ms");
  report->Add("router.unaccounted_ms",
              num_workers > 0
                  ? router_request - router_wait - rpc_ms - router_merge
                  : 0.0,
              "ms");
  report->Add("router.batch_rows",
              Ratio(delta("sweetknn_router_batched_queries_total"),
                    delta("sweetknn_router_batches_total")),
              "rows");
  report->Add("router.rpc_failures", rpc_failures, "count");
  report->Add("router.worker_deaths",
              delta("sweetknn_router_worker_deaths_total"), "count");
}

/// Traced probes of two layers the serving path does not time on its
/// own: the SIMD exact scan and the ANN graph build, over one shard's
/// slice of `base`.
void AddProbeMetrics(Report* report, Tracer* tracer, const HostMatrix& base,
                     const HostMatrix& queries,
                     const serve::ServiceConfig& config) {
  const size_t rows = (base.rows() + 1) / 2;
  const size_t dims = base.cols();
  const simd::Dist dist = core::SimdDistFor(config.options.metric);
  double scan_s = 0.0;
  {
    ScopedSpan span(tracer, "simd_probe");
    const simd::PackedTargets packed =
        simd::PackedTargets::Pack(base.data(), rows, dims);
    const SteadyClock::time_point t0 = SteadyClock::now();
    const KnnResult r = simd::PackedKnn(queries, packed, kServeK, dist, 1);
    scan_s = Seconds(SteadyClock::now() - t0);
    if (r.num_queries() != queries.rows()) report->Fail("simd probe shape");
  }
  report->Add("simd.scan_us_per_query",
              Ratio(scan_s, static_cast<double>(queries.rows())) * 1e6, "us");
  double build_s = 0.0;
  {
    ScopedSpan span(tracer, "ann_probe");
    const SteadyClock::time_point t0 = SteadyClock::now();
    const ann::KnnGraph graph = ann::BuildKnnGraph(
        base.data(), rows, dims, dist, config.ann_params, {});
    build_s = Seconds(SteadyClock::now() - t0);
    if (graph.num_nodes != rows) report->Fail("ann probe shape");
  }
  report->Add("ann.build_s", build_s, "s");
}

// -- lookup and cluster -------------------------------------------------------

/// Poisson arrivals over [0, seconds); 75 % exact and 25 % approx reads
/// of single rows drawn Zipf(0.9) over a shuffled query pool.
std::vector<Op> LookupOps(double rate, double seconds, size_t pool,
                          Rng* rng) {
  ZipfSampler zipf(pool, 0.9);
  std::vector<uint32_t> rank_to_row(pool);
  std::iota(rank_to_row.begin(), rank_to_row.end(), 0u);
  for (size_t i = pool; i > 1; --i) {
    std::swap(rank_to_row[i - 1], rank_to_row[rng->NextBounded(i)]);
  }
  std::vector<Op> ops;
  for (const double t : PoissonArrivals(rate, seconds, rng)) {
    Op op;
    op.due_s = t;
    op.kind = rng->NextDouble() < 0.75 ? OpKind::kExactRead
                                       : OpKind::kApproxRead;
    op.arg = rank_to_row[zipf.Sample(rng)];
    ops.push_back(op);
  }
  return ops;
}

/// Builds the backend `setups` times (the median build time is set-up
/// time) and keeps the last one.
template <typename Build>
auto TimedSetups(int setups, const Build& build, Tracer* tracer,
                 const char* span_name, double* setup_s)
    -> decltype(build(0)) {
  std::vector<double> times;
  decltype(build(0)) backend;
  for (int r = 0; r < setups; ++r) {
    backend = nullptr;
    const SteadyClock::time_point t0 = SteadyClock::now();
    {
      ScopedSpan span(tracer, span_name);
      backend = build(r);
    }
    times.push_back(Seconds(SteadyClock::now() - t0));
  }
  *setup_s = Median(times);
  return backend;
}

/// Read-only traffic against KnnService (lookup) or a two-worker Router
/// (cluster). Every exact answer is checked bit for bit; approximate
/// answers are scored for recall.
void RunReads(const Args& args, const std::string& work_dir, Tracer* tracer,
              Report* report) {
  const bool cluster = args.workload == "cluster";
  const ServeShape shape = ShapeFor(args);
  const dataset::Dataset data = StandIn("kdd", shape.base_scale, args.seed);
  const HostMatrix& base = data.points;
  Rng rng(SplitMix64(args.seed ^ 0x6c6f6f6bULL));
  const float sigma = dataset::PaperDatasetByName("kdd").gen_spread;
  const HostMatrix pool = PerturbedRows(base, shape.pool, sigma, &rng);
  const std::vector<Op> warm = LookupOps(shape.rate, shape.warmup_s,
                                         shape.pool, &rng);
  const std::vector<Op> ops =
      LookupOps(shape.rate, args.seconds, shape.pool, &rng);
  const serve::ServiceConfig config = ServingConfig("kdd");

  serve::RouterConfig router_config;
  router_config.service = config;
  router_config.num_workers = 2;
  router_config.worker_binary = args.worker_binary;

  double setup_s = 0.0;
  std::unique_ptr<serve::KnnService> service;
  std::unique_ptr<serve::Router> router;
  if (cluster) {
    router = TimedSetups(
        shape.setups,
        [&](int r) -> std::unique_ptr<serve::Router> {
          serve::RouterConfig rc = router_config;
          rc.work_dir = work_dir + "/cluster-" + std::to_string(r);
          Result<std::unique_ptr<serve::Router>> started =
              serve::Router::Start(base, rc);
          if (!started.ok()) {
            std::fprintf(stderr, "e2e_bench: Router::Start failed: %s\n",
                         started.status().ToString().c_str());
            std::exit(1);
          }
          return std::move(started).value();
        },
        tracer, "router_start", &setup_s);
  } else {
    service = TimedSetups(
        shape.setups,
        [&](int) { return std::make_unique<serve::KnnService>(base, config); },
        tracer, "service_ctor", &setup_s);
  }
  auto export_json = [&] {
    return cluster ? router->ExportMetricsJson() : service->ExportMetricsJson();
  };

  const IssueFn issue = [&](const Op& op, Tracer* t, uint64_t parent,
                            int64_t request, Outcome* out) {
    const std::vector<float> q = RowVector(pool, op.arg);
    ScopedSpan span(t, "search", parent, request);
    Result<std::vector<Neighbor>> r =
        cluster ? router->Search(q, kServeK, ModeOf(op.kind))
                : service->Search(q, kServeK, ModeOf(op.kind));
    out->ok = r.ok();
    if (r.ok()) out->neighbors = std::move(r).value();
  };
  const std::vector<Outcome> warm_out = RunOpenLoop(warm, 0, issue, tracer);
  report->CountOps(warm.size(), Failures(warm_out));
  const RegistrySnapshot before(export_json());
  const std::vector<Outcome> out =
      RunOpenLoop(ops, static_cast<int64_t>(warm.size()), issue, tracer);
  const RegistrySnapshot after(export_json());
  const Summary summary = OpSummary(ops, out, report);

  // Oracle over every pool row the timed phase asked for.
  std::vector<int64_t> oracle_row(shape.pool, -1);
  std::vector<size_t> asked;
  size_t repeats = 0;
  for (const Op& op : ops) {
    if (oracle_row[op.arg] >= 0) {
      ++repeats;
      continue;
    }
    oracle_row[op.arg] = static_cast<int64_t>(asked.size());
    asked.push_back(op.arg);
  }
  const KnnResult oracle =
      baseline::BruteForceCpu(SelectRows(pool, asked), base, kServeK,
                              core::Metric::kEuclidean, kOracleThreads);
  size_t wrong = 0, scored = 0, approx_n = 0;
  double recall_sum = 0.0, approx_sum = 0.0;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (!out[i].ok) continue;
    const Neighbor* want =
        oracle.row(static_cast<size_t>(oracle_row[ops[i].arg]));
    if (out[i].neighbors.size() != static_cast<size_t>(kServeK)) {
      ++wrong;
      continue;
    }
    const double recall = RecallAtK(want, out[i].neighbors.data(), kServeK);
    recall_sum += recall;
    ++scored;
    if (ops[i].kind == OpKind::kApproxRead) {
      approx_sum += recall;
      ++approx_n;
    } else if (!RowBitIdentical(want, out[i].neighbors.data(), kServeK)) {
      ++wrong;
    }
  }
  if (wrong != 0) {
    report->Fail(std::to_string(wrong) +
                 " exact reads differ from BruteForceCpu");
  }
  const double approx_recall =
      Ratio(approx_sum, static_cast<double>(approx_n));
  NoteApproxRecall(report, approx_recall);
  report->Note("distinct_queries", static_cast<double>(asked.size()));
  AddEndToEnd(report, setup_s, summary, UncachedReadLatencies(warm, ops, out),
              Ratio(recall_sum, static_cast<double>(scored)));

  if (tracer->enabled()) {
    AddRegistryMetrics(report, before, after,
                       cluster ? router_config.num_workers : 0);
    AddTrafficMetrics(report, ops, out, summary);
    report->Add("ann.recall", approx_recall, "ratio");
    report->Add("bench.repeat_frac",
                Ratio(static_cast<double>(repeats),
                      static_cast<double>(ops.size())),
                "ratio");
    report->Add("store.save_s", 0.0, "s");
    report->Add("store.save_mb", 0.0, "MB");
    Rng probe_rng(SplitMix64(args.seed ^ 0x70726f62ULL));
    AddProbeMetrics(report, tracer, base,
                    PerturbedRows(base, kCheckRows, sigma, &probe_rng),
                    config);
  }
  if (cluster) {
    router->Shutdown();
  } else {
    service->Shutdown();
  }
}

// -- mixed --------------------------------------------------------------------

/// Poisson arrivals over [0, seconds): 45 % exact and 15 % approx reads
/// of unique queries, 25 % inserts, 15 % removes of base ids (each once);
/// plus a snapshot save every `save_every_s` when positive.
std::vector<Op> MixedOps(double rate, double seconds, double save_every_s,
                         uint32_t* next_read, uint32_t* next_insert,
                         std::vector<uint32_t>* remove_order, Rng* rng) {
  std::vector<Op> ops;
  for (const double t : PoissonArrivals(rate, seconds, rng)) {
    Op op;
    op.due_s = t;
    const double u = rng->NextDouble();
    if (u < 0.45) {
      op.kind = OpKind::kExactRead;
      op.arg = (*next_read)++;
    } else if (u < 0.60) {
      op.kind = OpKind::kApproxRead;
      op.arg = (*next_read)++;
    } else if (u < 0.85) {
      op.kind = OpKind::kInsert;
      op.arg = (*next_insert)++;
    } else {
      if (remove_order->empty()) continue;
      op.kind = OpKind::kRemove;
      op.arg = remove_order->back();
      remove_order->pop_back();
    }
    ops.push_back(op);
  }
  if (save_every_s > 0.0) {
    uint32_t seq = 0;
    for (double t = save_every_s; t < seconds; t += save_every_s) {
      Op op;
      op.due_s = t;
      op.kind = OpKind::kSave;
      op.arg = seq++;
      ops.push_back(op);
    }
    std::stable_sort(ops.begin(), ops.end(), [](const Op& a, const Op& b) {
      return a.due_s < b.due_s;
    });
  }
  return ops;
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

/// Reads beside inserts, removes and periodic snapshot saves on a
/// low-dimensional base. After the load stops, probe answers are checked
/// against an oracle over the benchmark's own model of the live set.
void RunMixed(const Args& args, const std::string& work_dir, Tracer* tracer,
              Report* report) {
  const ServeShape shape = ShapeFor(args);
  const double save_every_s = args.smoke ? args.seconds / 2.0 : 4.0;
  const dataset::Dataset data = StandIn("3DNet", shape.base_scale, args.seed);
  const HostMatrix& base = data.points;
  Rng rng(SplitMix64(args.seed ^ 0x6d697864ULL));
  const float sigma = dataset::PaperDatasetByName("3DNet").gen_spread;

  std::vector<uint32_t> remove_order(base.rows());
  std::iota(remove_order.begin(), remove_order.end(), 0u);
  for (size_t i = remove_order.size(); i > 1; --i) {
    std::swap(remove_order[i - 1], remove_order[rng.NextBounded(i)]);
  }
  uint32_t reads = 0, inserts = 0;
  const std::vector<Op> warm = MixedOps(shape.rate, shape.warmup_s, 0.0,
                                        &reads, &inserts, &remove_order, &rng);
  const std::vector<Op> ops =
      MixedOps(shape.rate, args.seconds, save_every_s, &reads, &inserts,
               &remove_order, &rng);
  const HostMatrix read_pool = PerturbedRows(base, reads, sigma, &rng);
  const HostMatrix insert_pool = PerturbedRows(base, inserts, sigma, &rng);
  const serve::ServiceConfig config = ServingConfig("3DNet");

  double setup_s = 0.0;
  std::unique_ptr<serve::KnnService> service = TimedSetups(
      shape.setups,
      [&](int) { return std::make_unique<serve::KnnService>(base, config); },
      tracer, "service_ctor", &setup_s);

  std::vector<double> save_s;
  uint64_t save_bytes = 0;
  std::mutex save_mutex;
  const IssueFn issue = [&](const Op& op, Tracer* t, uint64_t parent,
                            int64_t request, Outcome* out) {
    switch (op.kind) {
      case OpKind::kExactRead:
      case OpKind::kApproxRead: {
        const std::vector<float> q = RowVector(read_pool, op.arg);
        ScopedSpan span(t, "search", parent, request);
        Result<std::vector<Neighbor>> r =
            service->Search(q, kServeK, ModeOf(op.kind));
        out->ok = r.ok();
        if (r.ok()) out->neighbors = std::move(r).value();
        break;
      }
      case OpKind::kInsert: {
        const std::vector<float> p = RowVector(insert_pool, op.arg);
        ScopedSpan span(t, "insert", parent, request);
        Result<uint32_t> r = service->Insert(p);
        out->ok = r.ok();
        if (r.ok()) out->id = r.value();
        break;
      }
      case OpKind::kRemove: {
        ScopedSpan span(t, "remove", parent, request);
        Result<bool> r = service->Remove(op.arg);
        out->ok = r.ok() && r.value();
        break;
      }
      case OpKind::kSave: {
        const std::string dir = work_dir + "/snap-" + std::to_string(op.arg);
        const SteadyClock::time_point t0 = SteadyClock::now();
        Status s = Status::Ok();
        {
          ScopedSpan span(t, "save_snapshots", parent, request);
          s = service->SaveSnapshots(dir);
        }
        const double elapsed = Seconds(SteadyClock::now() - t0);
        const uint64_t bytes = DirectoryBytes(dir);
        std::error_code ec;
        fs::remove_all(dir, ec);
        out->ok = s.ok();
        std::lock_guard<std::mutex> lock(save_mutex);
        save_s.push_back(elapsed);
        save_bytes += bytes;
        break;
      }
    }
  };

  const std::vector<Outcome> warm_out = RunOpenLoop(warm, 0, issue, tracer);
  const RegistrySnapshot before(service->ExportMetricsJson());
  const std::vector<Outcome> out =
      RunOpenLoop(ops, static_cast<int64_t>(warm.size()), issue, tracer);
  const RegistrySnapshot after(service->ExportMetricsJson());
  report->CountOps(warm.size(), Failures(warm_out));
  const Summary summary = OpSummary(ops, out, report);

  // The benchmark's model of the live set: base ids not removed, plus
  // every acknowledged insert.
  std::vector<char> removed(base.rows(), 0);
  std::vector<std::pair<uint32_t, const float*>> live;
  uint64_t acked_inserts = 0, acked_removes = 0;
  auto fold = [&](const std::vector<Op>& phase,
                  const std::vector<Outcome>& outcomes) {
    for (size_t i = 0; i < phase.size(); ++i) {
      if (!outcomes[i].ok) continue;
      if (phase[i].kind == OpKind::kRemove) {
        removed[phase[i].arg] = 1;
        ++acked_removes;
      } else if (phase[i].kind == OpKind::kInsert) {
        live.emplace_back(outcomes[i].id, insert_pool.row(phase[i].arg));
        ++acked_inserts;
      }
    }
  };
  fold(warm, warm_out);
  fold(ops, out);
  for (uint32_t id = 0; id < base.rows(); ++id) {
    if (!removed[id]) live.emplace_back(id, base.row(id));
  }
  std::sort(live.begin(), live.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  HostMatrix live_points(live.size(), base.cols());
  for (size_t i = 0; i < live.size(); ++i) {
    std::memcpy(live_points.mutable_row(i), live[i].second,
                base.cols() * sizeof(float));
  }

  const RegistrySnapshot final_registry(service->ExportMetricsJson());
  if (final_registry.Counter("sweetknn_inserts_total") !=
          static_cast<double>(acked_inserts) ||
      final_registry.Counter("sweetknn_removes_total") !=
          static_cast<double>(acked_removes)) {
    report->Fail("registry insert/remove counts differ from acknowledged ops");
  }

  Rng probe_rng(SplitMix64(args.seed ^ 0x70726f62ULL));
  const HostMatrix probes = PerturbedRows(base, kCheckRows, sigma, &probe_rng);
  KnnResult oracle = baseline::BruteForceCpu(probes, live_points, kServeK,
                                             core::Metric::kEuclidean,
                                             kOracleThreads);
  for (size_t q = 0; q < oracle.num_queries(); ++q) {
    Neighbor* row = oracle.mutable_row(q);
    for (int i = 0; i < kServeK; ++i) {
      if (row[i].index != kInvalidNeighbor) {
        row[i].index = live[row[i].index].first;
      }
    }
  }
  size_t wrong = 0;
  double recall_sum = 0.0, approx_sum = 0.0;
  for (size_t q = 0; q < probes.rows(); ++q) {
    const std::vector<float> p = RowVector(probes, q);
    Result<std::vector<Neighbor>> exact = service->Search(p, kServeK);
    Result<std::vector<Neighbor>> approx = service->Search(
        p, kServeK, ann::SearchMode::Approx(kApproxRecallTarget));
    if (!exact.ok() || !approx.ok() ||
        exact.value().size() != static_cast<size_t>(kServeK) ||
        approx.value().size() != static_cast<size_t>(kServeK)) {
      ++wrong;
      continue;
    }
    if (!RowBitIdentical(oracle.row(q), exact.value().data(), kServeK)) {
      ++wrong;
    }
    const double approx_recall =
        RecallAtK(oracle.row(q), approx.value().data(), kServeK);
    recall_sum += RecallAtK(oracle.row(q), exact.value().data(), kServeK) +
                  approx_recall;
    approx_sum += approx_recall;
  }
  if (wrong != 0) {
    report->Fail(std::to_string(wrong) +
                 " probe answers differ from BruteForceCpu over the live set");
  }
  const double approx_recall =
      Ratio(approx_sum, static_cast<double>(probes.rows()));
  NoteApproxRecall(report, approx_recall);
  report->Note("live_rows", static_cast<double>(live.size()));
  AddEndToEnd(report, setup_s, summary, UncachedReadLatencies(warm, ops, out),
              Ratio(recall_sum, 2.0 * static_cast<double>(probes.rows())));

  if (tracer->enabled()) {
    AddRegistryMetrics(report, before, after, 0);
    AddTrafficMetrics(report, ops, out, summary);
    report->Add("ann.recall", approx_recall, "ratio");
    report->Add("bench.repeat_frac", 0.0, "ratio");
    report->Add("store.save_s", Mean(save_s), "s");
    report->Add("store.save_mb",
                Ratio(static_cast<double>(save_bytes) / 1e6,
                      static_cast<double>(save_s.size())),
                "MB");
    AddProbeMetrics(report, tracer, base, probes, config);
  }
  service->Shutdown();
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  // Each of these changes the program under test.
  for (const char* var :
       {"SWEETKNN_PLANNER", "SWEETKNN_FORCE_SCALAR", "SWEETKNN_SIM_THREADS"}) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr, "e2e_bench: refusing to run with %s set\n", var);
      return 2;
    }
  }
  if (args.workload == "cluster" &&
      access(args.worker_binary.c_str(), X_OK) != 0) {
    std::fprintf(stderr, "e2e_bench: worker binary %s is missing\n",
                 args.worker_binary.c_str());
    return 1;
  }
  const std::string work_dir =
      args.work_dir + "/" + args.workload + "-" + std::to_string(getpid());
  std::error_code ec;
  fs::create_directories(work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "e2e_bench: cannot create %s: %s\n",
                 work_dir.c_str(), ec.message().c_str());
    return 2;
  }

  Tracer tracer(!args.trace.empty());
  Report report;
  if (args.workload == "mixed") {
    RunMixed(args, work_dir, &tracer, &report);
  } else {
    RunReads(args, work_dir, &tracer, &report);
  }
  fs::remove_all(work_dir, ec);
  fs::remove(args.work_dir, ec);  // only if no other run is using it

  if (tracer.enabled()) {
    AddSpanMetrics(&report, tracer);
    std::ofstream spans(args.trace, std::ios::trunc);
    spans << SpansJsonLines(tracer.spans());
    if (!spans) {
      std::fprintf(stderr, "e2e_bench: cannot write %s\n", args.trace.c_str());
      return 2;
    }
  }
  report.Print();
  if (!args.out.empty() && !report.WriteJson(args.out, args)) {
    std::fprintf(stderr, "e2e_bench: cannot write %s\n", args.out.c_str());
    return 2;
  }
  return report.ok() ? 0 : 1;
}

}  // namespace
}  // namespace sweetknn::e2e

int main(int argc, char** argv) { return sweetknn::e2e::Main(argc, argv); }
