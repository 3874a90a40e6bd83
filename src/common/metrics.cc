#include "common/metrics.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <set>
#include <sstream>
#include <utility>

namespace sweetknn::common {

namespace {

void AtomicAddDouble(std::atomic<double>* target, double delta) {
  double cur = target->load(std::memory_order_relaxed);
  while (!target->compare_exchange_weak(cur, cur + delta,
                                        std::memory_order_relaxed)) {
  }
}

void AtomicMaxDouble(std::atomic<double>* target, double value) {
  double cur = target->load(std::memory_order_relaxed);
  while (cur < value && !target->compare_exchange_weak(
                            cur, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

std::string FormatMetricValue(double v) {
  char buf[64];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

double HistogramSnapshot::Percentile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(count);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < bounds.size(); ++i) {
    cumulative += counts[i];
    if (static_cast<double>(cumulative) >= rank && counts[i] > 0) {
      const double lower = i == 0 ? 0.0 : bounds[i - 1];
      const double upper = bounds[i];
      const double into_bucket =
          rank - static_cast<double>(cumulative - counts[i]);
      const double fraction =
          std::clamp(into_bucket / static_cast<double>(counts[i]), 0.0, 1.0);
      return std::min(lower + (upper - lower) * fraction, max);
    }
  }
  return max;  // target rank lands in the overflow bucket
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1) {
  SK_CHECK(!bounds_.empty()) << "histogram needs at least one bucket edge";
  SK_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()))
      << "histogram bucket edges must ascend";
}

void Histogram::Observe(double value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const size_t bucket = static_cast<size_t>(it - bounds_.begin());
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAddDouble(&sum_, value);
  AtomicMaxDouble(&max_, value);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.bounds = bounds_;
  snap.counts.reserve(counts_.size());
  for (const std::atomic<uint64_t>& c : counts_) {
    snap.counts.push_back(c.load(std::memory_order_relaxed));
  }
  snap.sum = sum_.load(std::memory_order_relaxed);
  snap.count = count_.load(std::memory_order_relaxed);
  snap.max = max_.load(std::memory_order_relaxed);
  return snap;
}

void Histogram::ImportState(const std::vector<uint64_t>& counts, double sum,
                            uint64_t count, double max) {
  SK_CHECK_EQ(counts.size(), counts_.size());
  for (size_t i = 0; i < counts.size(); ++i) {
    counts_[i].store(counts[i], std::memory_order_relaxed);
  }
  sum_.store(sum, std::memory_order_relaxed);
  count_.store(count, std::memory_order_relaxed);
  max_.store(max, std::memory_order_relaxed);
}

std::vector<double> LatencyBucketsSeconds() {
  std::vector<double> bounds;
  for (double decade = 1e-6; decade < 10.0; decade *= 10.0) {
    bounds.push_back(decade);
    bounds.push_back(2.0 * decade);
    bounds.push_back(5.0 * decade);
  }
  bounds.push_back(10.0);
  return bounds;
}

std::string MetricLabel(const std::string& key, const std::string& value) {
  std::string out = key;
  out += "=\"";
  for (const char c : value) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out += '"';
  return out;
}

std::string TenantLabel(const std::string& tenant) {
  return MetricLabel("tenant", tenant);
}

namespace {

/// Registry key of a (family, rendered-labels) pair.
std::string SeriesKey(const std::string& name, const std::string& labels) {
  return labels.empty() ? name : name + "{" + labels + "}";
}

}  // namespace

MetricsRegistry::Entry* MetricsRegistry::FindOrCreateLocked(
    const std::string& name, const std::string& labels, Type type,
    const std::string& help) {
  const auto family = family_types_.emplace(name, type).first;
  SK_CHECK(family->second == type)
      << "metric family '" << name << "' already registered with another type";
  const std::string key = SeriesKey(name, labels);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    Entry entry;
    entry.type = type;
    entry.name = name;
    entry.labels = labels;
    entry.help = help;
    switch (type) {
      case Type::kCounter:
        entry.counter = std::make_unique<Counter>();
        break;
      case Type::kGauge:
        entry.gauge = std::make_unique<Gauge>();
        break;
      case Type::kHistogram:
        break;  // the caller installs the histogram (it needs bounds)
    }
    it = entries_.emplace(key, std::move(entry)).first;
  }
  SK_CHECK(it->second.type == type)
      << "metric '" << key << "' already registered with another type";
  return &it->second;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help) {
  return GetCounter(name, std::string(), help);
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& labels,
                                     const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  return FindOrCreateLocked(name, labels, Type::kCounter, help)
      ->counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help) {
  return GetGauge(name, std::string(), help);
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& labels,
                                 const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  return FindOrCreateLocked(name, labels, Type::kGauge, help)->gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::string& help,
                                         std::vector<double> bounds) {
  return GetHistogram(name, std::string(), help, std::move(bounds));
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::string& labels,
                                         const std::string& help,
                                         std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry* entry = FindOrCreateLocked(name, labels, Type::kHistogram, help);
  if (entry->histogram == nullptr) {
    entry->histogram = std::make_unique<Histogram>(std::move(bounds));
  }
  return entry->histogram.get();
}

HistogramSnapshot MetricsRegistry::SnapshotHistogram(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(name);
  if (it == entries_.end() || it->second.type != Type::kHistogram) {
    return HistogramSnapshot{};
  }
  return it->second.histogram->Snapshot();
}

double MetricsRegistry::CounterValue(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(name);
  if (it == entries_.end() || it->second.type != Type::kCounter) return 0.0;
  return it->second.counter->value();
}

namespace {

/// Minimal JSON string escaping: the metric names and help strings here
/// are plain identifiers/sentences, but stay correct for quotes and
/// backslashes anyway.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

std::string MetricsRegistry::ExportJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;
  out << "{\n  \"metrics\": [\n";
  size_t emitted = 0;
  for (const auto& [key, entry] : entries_) {
    out << "    {\"name\": \"" << JsonEscape(entry.name) << "\", ";
    if (!entry.labels.empty()) {
      out << "\"labels\": \"" << JsonEscape(entry.labels) << "\", ";
    }
    switch (entry.type) {
      case Type::kCounter:
        out << "\"type\": \"counter\", \"help\": \"" << JsonEscape(entry.help)
            << "\", \"value\": " << FormatMetricValue(entry.counter->value())
            << "}";
        break;
      case Type::kGauge:
        out << "\"type\": \"gauge\", \"help\": \"" << JsonEscape(entry.help)
            << "\", \"value\": " << FormatMetricValue(entry.gauge->value())
            << "}";
        break;
      case Type::kHistogram: {
        const HistogramSnapshot snap = entry.histogram->Snapshot();
        out << "\"type\": \"histogram\", \"help\": \""
            << JsonEscape(entry.help) << "\", \"le\": [";
        for (size_t i = 0; i < snap.bounds.size(); ++i) {
          out << (i > 0 ? ", " : "") << FormatMetricValue(snap.bounds[i]);
        }
        out << "], \"counts\": [";
        for (size_t i = 0; i < snap.counts.size(); ++i) {
          out << (i > 0 ? ", " : "") << snap.counts[i];
        }
        out << "], \"sum\": " << FormatMetricValue(snap.sum)
            << ", \"count\": " << snap.count
            << ", \"max\": " << FormatMetricValue(snap.max)
            << ", \"mean\": " << FormatMetricValue(snap.Mean())
            << ", \"p50\": " << FormatMetricValue(snap.Percentile(0.50))
            << ", \"p90\": " << FormatMetricValue(snap.Percentile(0.90))
            << ", \"p99\": " << FormatMetricValue(snap.Percentile(0.99))
            << "}";
        break;
      }
    }
    out << (++emitted < entries_.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
  return out.str();
}

std::string MetricsRegistry::ExportPrometheusText() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;
  // HELP/TYPE describe the family, emitted once at its first series
  // (label sets of one family share them, Prometheus-style).
  std::set<std::string> described;
  for (const auto& [key, entry] : entries_) {
    const std::string& name = entry.name;
    if (described.insert(name).second) {
      if (!entry.help.empty()) {
        out << "# HELP " << name << " " << entry.help << "\n";
      }
      const char* type = entry.type == Type::kCounter   ? "counter"
                         : entry.type == Type::kGauge   ? "gauge"
                                                        : "histogram";
      out << "# TYPE " << name << " " << type << "\n";
    }
    // `{labels}` on every sample of a labeled series; histograms fold
    // the series labels in front of `le` inside one brace block.
    const std::string suffix =
        entry.labels.empty() ? "" : "{" + entry.labels + "}";
    const std::string le_prefix =
        entry.labels.empty() ? "{le=\"" : "{" + entry.labels + ",le=\"";
    switch (entry.type) {
      case Type::kCounter:
        out << name << suffix << " "
            << FormatMetricValue(entry.counter->value()) << "\n";
        break;
      case Type::kGauge:
        out << name << suffix << " "
            << FormatMetricValue(entry.gauge->value()) << "\n";
        break;
      case Type::kHistogram: {
        const HistogramSnapshot snap = entry.histogram->Snapshot();
        uint64_t cumulative = 0;
        for (size_t i = 0; i < snap.bounds.size(); ++i) {
          cumulative += snap.counts[i];
          out << name << "_bucket" << le_prefix
              << FormatMetricValue(snap.bounds[i]) << "\"} " << cumulative
              << "\n";
        }
        out << name << "_bucket" << le_prefix << "+Inf\"} " << snap.count
            << "\n"
            << name << "_sum" << suffix << " "
            << FormatMetricValue(snap.sum) << "\n"
            << name << "_count" << suffix << " " << snap.count << "\n";
        break;
      }
    }
  }
  return out.str();
}

std::string MetricsRegistry::FormatTable() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;
  char line[256];
  for (const auto& [name, entry] : entries_) {
    switch (entry.type) {
      case Type::kCounter:
      case Type::kGauge: {
        const double v = entry.type == Type::kCounter
                             ? entry.counter->value()
                             : entry.gauge->value();
        std::snprintf(line, sizeof(line), "%-44s %s\n", name.c_str(),
                      FormatMetricValue(v).c_str());
        out << line;
        break;
      }
      case Type::kHistogram: {
        const HistogramSnapshot snap = entry.histogram->Snapshot();
        std::snprintf(line, sizeof(line),
                      "%-44s count %llu mean %.3g p50 %.3g p90 %.3g "
                      "p99 %.3g max %.3g\n",
                      name.c_str(),
                      static_cast<unsigned long long>(snap.count),
                      snap.Mean(), snap.Percentile(0.50),
                      snap.Percentile(0.90), snap.Percentile(0.99), snap.max);
        out << line;
        break;
      }
    }
  }
  return out.str();
}

// --- Parsers ---------------------------------------------------------------

namespace {

/// A tiny JSON value model and recursive-descent parser covering the
/// subset the exporters emit (objects, arrays, strings, numbers).
struct JsonValue {
  enum class Kind { kNull, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* Find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out) {
    const bool ok = ParseValue(out);
    SkipSpace();
    return ok && pos_ == text_.size();
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool Consume(char c) {
    SkipSpace();
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }
  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\' && pos_ < text_.size()) c = text_[pos_++];
      out->push_back(c);
    }
    return pos_ < text_.size() && text_[pos_++] == '"';
  }
  bool ParseValue(JsonValue* out) {
    SkipSpace();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out->kind = JsonValue::Kind::kObject;
      SkipSpace();
      if (Consume('}')) return true;
      for (;;) {
        std::string key;
        JsonValue value;
        if (!ParseString(&key) || !Consume(':') || !ParseValue(&value)) {
          return false;
        }
        out->object.emplace_back(std::move(key), std::move(value));
        if (Consume('}')) return true;
        if (!Consume(',')) return false;
      }
    }
    if (c == '[') {
      ++pos_;
      out->kind = JsonValue::Kind::kArray;
      SkipSpace();
      if (Consume(']')) return true;
      for (;;) {
        JsonValue value;
        if (!ParseValue(&value)) return false;
        out->array.push_back(std::move(value));
        if (Consume(']')) return true;
        if (!Consume(',')) return false;
      }
    }
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return ParseString(&out->string);
    }
    char* end = nullptr;
    out->number = std::strtod(text_.c_str() + pos_, &end);
    if (end == text_.c_str() + pos_) return false;
    out->kind = JsonValue::Kind::kNumber;
    pos_ = static_cast<size_t>(end - text_.c_str());
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

Status MalformedMetric(const std::string& what) {
  return Status::InvalidArgument("malformed metrics document: " + what);
}

}  // namespace

Status ParseMetricsJson(const std::string& text, MetricsRegistry* out) {
  JsonValue root;
  if (!JsonParser(text).Parse(&root) ||
      root.kind != JsonValue::Kind::kObject) {
    return MalformedMetric("not a JSON object");
  }
  const JsonValue* metrics = root.Find("metrics");
  if (metrics == nullptr || metrics->kind != JsonValue::Kind::kArray) {
    return MalformedMetric("missing \"metrics\" array");
  }
  for (const JsonValue& m : metrics->array) {
    const JsonValue* name = m.Find("name");
    const JsonValue* type = m.Find("type");
    const JsonValue* help = m.Find("help");
    if (name == nullptr || type == nullptr || help == nullptr) {
      return MalformedMetric("metric without name/type/help");
    }
    const JsonValue* labels_field = m.Find("labels");
    const std::string labels =
        labels_field != nullptr ? labels_field->string : std::string();
    if (type->string == "counter" || type->string == "gauge") {
      const JsonValue* value = m.Find("value");
      if (value == nullptr) return MalformedMetric(name->string);
      if (type->string == "counter") {
        out->GetCounter(name->string, labels, help->string)
            ->Increment(value->number);
      } else {
        out->GetGauge(name->string, labels, help->string)
            ->Set(value->number);
      }
      continue;
    }
    if (type->string != "histogram") {
      return MalformedMetric("unknown type '" + type->string + "'");
    }
    const JsonValue* le = m.Find("le");
    const JsonValue* counts = m.Find("counts");
    const JsonValue* sum = m.Find("sum");
    const JsonValue* count = m.Find("count");
    const JsonValue* max = m.Find("max");
    if (le == nullptr || counts == nullptr || sum == nullptr ||
        count == nullptr || max == nullptr ||
        counts->array.size() != le->array.size() + 1) {
      return MalformedMetric("histogram " + name->string);
    }
    std::vector<double> bounds;
    for (const JsonValue& b : le->array) bounds.push_back(b.number);
    std::vector<uint64_t> bucket_counts;
    for (const JsonValue& c : counts->array) {
      bucket_counts.push_back(static_cast<uint64_t>(c.number));
    }
    out->GetHistogram(name->string, labels, help->string, bounds)
        ->ImportState(bucket_counts, sum->number,
                      static_cast<uint64_t>(count->number), max->number);
  }
  return Status::Ok();
}

Status ParseMetricsPrometheusText(const std::string& text,
                                  MetricsRegistry* out) {
  // Accumulated histogram state, materialized when its _count arrives
  // (the exporter always emits buckets, _sum, _count in that order).
  // Keyed by series — `name` or `name{labels}` with the `le` label
  // stripped — so labeled histograms of one family stay separate.
  struct PendingHistogram {
    std::string name;
    std::string labels;
    std::string help;
    std::vector<double> bounds;
    std::vector<uint64_t> cumulative;
    uint64_t inf_count = 0;
    double sum = 0.0;
  };
  std::map<std::string, PendingHistogram> pending;
  std::map<std::string, std::string> helps;
  std::map<std::string, std::string> types;

  const auto series_key = [](const std::string& name,
                             const std::string& labels) {
    return labels.empty() ? name : name + "{" + labels + "}";
  };
  const auto strip_suffix = [](const std::string& s,
                               const char* suffix) -> std::string {
    const size_t len = std::strlen(suffix);
    if (s.size() > len && s.compare(s.size() - len, len, suffix) == 0) {
      return s.substr(0, s.size() - len);
    }
    return std::string();
  };

  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    if (line.rfind("# HELP ", 0) == 0) {
      const std::string rest = line.substr(7);
      const size_t space = rest.find(' ');
      if (space == std::string::npos) return MalformedMetric(line);
      helps[rest.substr(0, space)] = rest.substr(space + 1);
      continue;
    }
    if (line.rfind("# TYPE ", 0) == 0) {
      const std::string rest = line.substr(7);
      const size_t space = rest.find(' ');
      if (space == std::string::npos) return MalformedMetric(line);
      types[rest.substr(0, space)] = rest.substr(space + 1);
      continue;
    }
    if (line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) return MalformedMetric(line);
    std::string key = line.substr(0, space);
    const double value = std::strtod(line.c_str() + space + 1, nullptr);

    // Split `family{labels}` (either part of the label block may be a
    // series label set, an le edge, or both).
    std::string family = key;
    std::string labels;
    const size_t brace = key.find('{');
    if (brace != std::string::npos) {
      if (key.back() != '}') return MalformedMetric(line);
      family = key.substr(0, brace);
      labels = key.substr(brace + 1, key.size() - brace - 2);
    }

    // Histogram sample lines: <name>_bucket{[labels,]le="<edge>"},
    // <name>_sum[{labels}], <name>_count[{labels}].
    const std::string bucket_name = strip_suffix(family, "_bucket");
    if (!bucket_name.empty() && brace != std::string::npos) {
      // `le` is always the last label the exporter writes.
      const size_t le_pos = labels.rfind("le=\"");
      if (le_pos == std::string::npos || labels.back() != '"') {
        return MalformedMetric(line);
      }
      const std::string edge =
          labels.substr(le_pos + 4, labels.size() - le_pos - 5);
      const std::string series_labels =
          le_pos == 0 ? std::string() : labels.substr(0, le_pos - 1);
      PendingHistogram& h =
          pending[series_key(bucket_name, series_labels)];
      h.name = bucket_name;
      h.labels = series_labels;
      if (edge == "+Inf") {
        h.inf_count = static_cast<uint64_t>(value);
      } else {
        h.bounds.push_back(std::strtod(edge.c_str(), nullptr));
        h.cumulative.push_back(static_cast<uint64_t>(value));
      }
      continue;
    }
    const std::string sum_name = strip_suffix(family, "_sum");
    if (!sum_name.empty() &&
        pending.count(series_key(sum_name, labels)) > 0) {
      pending[series_key(sum_name, labels)].sum = value;
      continue;
    }
    const std::string count_name = strip_suffix(family, "_count");
    if (!count_name.empty() &&
        pending.count(series_key(count_name, labels)) > 0) {
      // The final histogram line: materialize it.
      PendingHistogram& h = pending[series_key(count_name, labels)];
      const uint64_t total = static_cast<uint64_t>(value);
      if (total != h.inf_count) return MalformedMetric(line);
      std::vector<uint64_t> counts;
      uint64_t previous = 0;
      double max = 0.0;
      for (size_t i = 0; i < h.cumulative.size(); ++i) {
        if (h.cumulative[i] < previous) return MalformedMetric(line);
        counts.push_back(h.cumulative[i] - previous);
        if (counts.back() > 0) max = h.bounds[i];
        previous = h.cumulative[i];
      }
      if (total < previous) return MalformedMetric(line);
      counts.push_back(total - previous);
      // The text format does not carry the exact max; the tightest
      // recoverable bound is the highest non-empty bucket edge (or the
      // mean for overflow-only data). Percentiles stay within it.
      if (counts.back() > 0 && total > 0) {
        max = std::max(max, h.sum / static_cast<double>(total));
      }
      out->GetHistogram(h.name, h.labels, helps[h.name], h.bounds)
          ->ImportState(counts, h.sum, total, max);
      pending.erase(series_key(count_name, labels));
      continue;
    }
    // Plain (or labeled) counter/gauge sample.
    const std::string& type = types[family];
    if (type == "counter") {
      out->GetCounter(family, labels, helps[family])->Increment(value);
    } else if (type == "gauge") {
      out->GetGauge(family, labels, helps[family])->Set(value);
    } else {
      return MalformedMetric("untyped sample '" + key + "'");
    }
  }
  if (!pending.empty()) {
    return MalformedMetric("truncated histogram '" +
                           pending.begin()->first + "'");
  }
  return Status::Ok();
}

}  // namespace sweetknn::common
