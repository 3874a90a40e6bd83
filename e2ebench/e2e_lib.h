#ifndef SWEETKNN_E2EBENCH_E2E_LIB_H_
#define SWEETKNN_E2EBENCH_E2E_LIB_H_

// Helpers of the end-to-end benchmark that carry a rule worth testing on
// its own: which percentile a sample supports, span self time, answer
// exactness, and the seeded load generators.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/knn_result.h"
#include "common/metrics.h"
#include "common/rng.h"

namespace sweetknn::e2e {

// -- Percentiles --------------------------------------------------------------

/// Samples a percentile must leave above it before it is reported.
inline constexpr size_t kSamplesBeyondTail = 10;

/// Nearest-rank q-quantile (q in (0, 1]) of `samples`; 0 when empty.
double Quantile(std::vector<double> samples, double q);

/// Samples strictly above the nearest-rank q-quantile of n samples.
size_t SamplesBeyond(size_t n, double q);

/// The highest of p99, p95, p90, p75 that leaves at least
/// kSamplesBeyondTail of n samples above it; 0.5 when none does.
double TailQuantile(size_t n);

/// Median, supported tail (the TailQuantile(n) quantile, recorded in
/// tail_q) and mean of one latency sample.
struct Summary {
  size_t n = 0;
  double p50 = 0.0;
  double tail_q = 0.5;
  double tail = 0.0;
  double mean = 0.0;
};
Summary Summarize(const std::vector<double>& samples);

// -- Tracing ------------------------------------------------------------------

/// One traced interval around a call the benchmark makes. Spans of one
/// request share `request`; `parent` is 0 for a root span.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  int64_t request = -1;
  std::string name;
  double start_s = 0.0;  ///< Seconds since the tracer was created.
  double end_s = 0.0;
};

/// Collects spans in memory from any thread; written out at exit. A
/// disabled tracer records nothing and costs one branch per span.
class Tracer {
 public:
  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  /// Seconds on the tracer's clock.
  double Now() const;
  uint64_t NewId() { return next_id_.fetch_add(1) + 1; }
  void Record(Span span);
  std::vector<Span> spans() const;

 private:
  const bool enabled_;
  const double origin_s_;
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

/// Records [construction, destruction) as one span when the tracer is
/// enabled. id() is valid either way, so children can name it.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t parent = 0,
             int64_t request = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }

 private:
  Tracer* tracer_;
  Span span_;
};

/// Each span's duration minus the part of it its children cover (the
/// union of their intervals, clipped to the parent), keyed by span id.
std::map<uint64_t, double> SelfTimes(const std::vector<Span>& spans);

/// Mean self time in seconds per span name.
std::map<std::string, double> MeanSelfTimeByName(
    const std::vector<Span>& spans);

/// Spans as JSON lines: {"id":..,"parent":..,"request":..,"name":..,
/// "start_s":..,"end_s":..}.
std::string SpansJsonLines(const std::vector<Span>& spans);

// -- Exactness ----------------------------------------------------------------

/// True when both rows hold the same k neighbors with bit-identical
/// indices and distances.
bool RowBitIdentical(const Neighbor* want, const Neighbor* got, int k);

/// Rows of `got` that are not bit-identical to `want` (every row counts
/// when the shapes differ).
size_t CountInexactRows(const KnnResult& want, const KnnResult& got);

/// |got ∩ want| / k over neighbor indices.
double RecallAtK(const Neighbor* want, const Neighbor* got, int k);

// -- Load generation ----------------------------------------------------------

/// Arrival offsets (seconds, ascending) of a Poisson process at `rate`
/// per second over [0, seconds).
std::vector<double> PoissonArrivals(double rate, double seconds, Rng* rng);

/// Ranks 0..n-1 drawn with probability proportional to 1 / (rank+1)^s.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s);
  size_t Sample(Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

// -- Registry reading ---------------------------------------------------------

/// A point-in-time copy of a MetricsRegistry (through its JSON export,
/// the registry's only complete read path). Only sums, counts and
/// counter values are read: bucket percentiles are estimates.
class RegistrySnapshot {
 public:
  explicit RegistrySnapshot(const std::string& json_export);

  double Counter(const std::string& name) const;
  common::HistogramSnapshot Histogram(const std::string& name) const;

 private:
  std::unique_ptr<common::MetricsRegistry> registry_;
};

/// Counter increase between two snapshots.
double CounterDelta(const RegistrySnapshot& before,
                    const RegistrySnapshot& after, const std::string& name);

/// Mean of the observations a histogram received between two snapshots
/// (sum delta / count delta); 0 when it received none.
double HistogramMeanDelta(const RegistrySnapshot& before,
                          const RegistrySnapshot& after,
                          const std::string& name);

/// Sum of the observations a histogram received between two snapshots.
double HistogramSumDelta(const RegistrySnapshot& before,
                         const RegistrySnapshot& after,
                         const std::string& name);

/// Observation count a histogram received between two snapshots.
double HistogramCountDelta(const RegistrySnapshot& before,
                           const RegistrySnapshot& after,
                           const std::string& name);

}  // namespace sweetknn::e2e

#endif  // SWEETKNN_E2EBENCH_E2E_LIB_H_
