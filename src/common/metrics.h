#ifndef SWEETKNN_COMMON_METRICS_H_
#define SWEETKNN_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace sweetknn::common {

/// A small thread-safe metrics library for the serving layer: monotonic
/// counters, gauges, and fixed-bucket latency histograms, collected in a
/// `MetricsRegistry` owned by whoever serves traffic (no global
/// singletons). Recording is lock-free (plain atomics); registration and
/// export take the registry mutex. Two export formats — JSON and
/// Prometheus text exposition — plus parsers for both, so exported
/// metrics round-trip (the CLI `stats` renderer and the unit tests rely
/// on that).

/// Monotonically increasing value. Double-valued so it can accumulate
/// simulated seconds as well as event counts (Prometheus counters are
/// doubles for the same reason).
class Counter {
 public:
  void Increment(double delta = 1.0) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// A value that can go up and down (queue depth, index generation).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Consistent read of a histogram, with percentile extraction.
struct HistogramSnapshot {
  std::vector<double> bounds;   ///< Ascending bucket upper bounds.
  std::vector<uint64_t> counts; ///< bounds.size() + 1 (last = overflow).
  double sum = 0.0;
  uint64_t count = 0;
  double max = 0.0;

  double Mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
  /// Estimated q-quantile (q in [0, 1]) by linear interpolation inside
  /// the bucket holding the target rank, clamped to the observed max;
  /// observations in the overflow bucket report the max.
  double Percentile(double q) const;
};

/// Fixed-bucket histogram: `bounds` are ascending upper bucket edges, an
/// implicit +Inf bucket catches the rest. Observe() is lock-free.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(double value);
  HistogramSnapshot Snapshot() const;
  const std::vector<double>& bounds() const { return bounds_; }

  /// Overwrites the recorded state (used by the exporter parsers to
  /// reconstruct a registry; not meant for concurrent use).
  void ImportState(const std::vector<uint64_t>& counts, double sum,
                   uint64_t count, double max);

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<uint64_t>> counts_;  // bounds_.size() + 1
  std::atomic<double> sum_{0.0};
  std::atomic<uint64_t> count_{0};
  std::atomic<double> max_{0.0};
};

/// Bucket edges suited to request latencies in seconds: 1 µs to 10 s,
/// roughly logarithmic (1-2-5 per decade).
std::vector<double> LatencyBucketsSeconds();

/// One rendered Prometheus label pair, `key="value"`, with `"` and `\`
/// in the value escaped. Compose several with "," between them; pass
/// the result as the `labels` argument of the registry Get* overloads.
std::string MetricLabel(const std::string& key, const std::string& value);

/// The serving layer's per-tenant label: `tenant="<name>"`.
std::string TenantLabel(const std::string& tenant);

/// Owns named metrics. Get* registers on first use and returns the same
/// pointer afterwards (pointers stay valid for the registry's lifetime);
/// re-registering a name as a different type aborts.
///
/// Labeled variants: the three-argument Get* overloads take a rendered
/// label set (see MetricLabel), giving one independent time series per
/// (name, labels) pair under a shared family name — the registry key is
/// `name{labels}`. A family must keep one type across all label sets.
/// Both exporters emit labeled series in native Prometheus style and
/// both parsers round-trip them.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name, const std::string& help);
  Gauge* GetGauge(const std::string& name, const std::string& help);
  Histogram* GetHistogram(const std::string& name, const std::string& help,
                          std::vector<double> bounds);

  /// Labeled series of the family `name`; `labels` is a rendered label
  /// set such as TenantLabel("alpha") (empty behaves like unlabeled).
  Counter* GetCounter(const std::string& name, const std::string& labels,
                      const std::string& help);
  Gauge* GetGauge(const std::string& name, const std::string& labels,
                  const std::string& help);
  Histogram* GetHistogram(const std::string& name, const std::string& labels,
                          const std::string& help,
                          std::vector<double> bounds);

  /// Snapshot of one histogram by key — the plain name, or
  /// `name{labels}` for a labeled series; count == 0 when absent.
  HistogramSnapshot SnapshotHistogram(const std::string& name) const;
  /// Value of one counter by key (as SnapshotHistogram); 0 when absent.
  double CounterValue(const std::string& name) const;

  /// JSON document: {"metrics": [...]} with one object per metric in
  /// name order. Histogram objects carry the raw buckets plus derived
  /// mean/p50/p90/p99 (the derived fields are recomputed on import, so
  /// export -> parse -> export is byte-identical).
  std::string ExportJson() const;
  /// Prometheus text exposition format (# HELP / # TYPE, cumulative
  /// _bucket{le=...} lines, _sum, _count).
  std::string ExportPrometheusText() const;

  /// Human-readable fixed-width rendering: counters and gauges one per
  /// line, histograms with count/mean/p50/p90/p99/max.
  std::string FormatTable() const;

 private:
  friend Status ParseMetricsJson(const std::string&, MetricsRegistry*);
  friend Status ParseMetricsPrometheusText(const std::string&,
                                           MetricsRegistry*);
  enum class Type { kCounter, kGauge, kHistogram };
  struct Entry {
    Type type;
    std::string name;    ///< Family name (key minus the label set).
    std::string labels;  ///< Rendered label set; empty for unlabeled.
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  /// Finds or creates the entry keyed `name{labels}`; checks the type
  /// of the entry and of the whole family. Caller holds mutex_.
  Entry* FindOrCreateLocked(const std::string& name,
                            const std::string& labels, Type type,
                            const std::string& help);

  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;  // key order == export order
  std::map<std::string, Type> family_types_;
};

/// Rebuilds a registry from a document produced by ExportJson /
/// ExportPrometheusText. `out` must be empty (freshly constructed).
/// Unknown or malformed input returns InvalidArgument.
Status ParseMetricsJson(const std::string& text, MetricsRegistry* out);
Status ParseMetricsPrometheusText(const std::string& text,
                                  MetricsRegistry* out);

/// Shortest decimal rendering of `v` that parses back to the same double
/// (used by the exporters so round-trips are bit-exact).
std::string FormatMetricValue(double v);

}  // namespace sweetknn::common

#endif  // SWEETKNN_COMMON_METRICS_H_
