#include "e2e_lib.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <unordered_set>

#include "common/logging.h"

namespace sweetknn::e2e {

namespace {

double SteadySeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

}  // namespace

// -- Percentiles --------------------------------------------------------------

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const size_t n = samples.size();
  const size_t rank = std::clamp<size_t>(
      static_cast<size_t>(std::ceil(q * static_cast<double>(n) - 1e-9)), 1, n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

size_t SamplesBeyond(size_t n, double q) {
  const size_t rank = std::clamp<size_t>(
      static_cast<size_t>(std::ceil(q * static_cast<double>(n) - 1e-9)), 1, n);
  return n - rank;
}

double TailQuantile(size_t n) {
  for (const double q : {0.99, 0.95, 0.90, 0.75}) {
    if (n > 0 && SamplesBeyond(n, q) >= kSamplesBeyondTail) return q;
  }
  return 0.5;
}

Summary Summarize(const std::vector<double>& samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  s.p50 = Quantile(samples, 0.5);
  s.tail_q = TailQuantile(s.n);
  s.tail = Quantile(samples, s.tail_q);
  double sum = 0.0;
  for (const double v : samples) sum += v;
  s.mean = sum / static_cast<double>(s.n);
  return s;
}

// -- Tracing ------------------------------------------------------------------

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_s_(SteadySeconds()) {}

double Tracer::Now() const { return SteadySeconds() - origin_s_; }

void Tracer::Record(Span span) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, uint64_t parent,
                       int64_t request)
    : tracer_(tracer) {
  span_.id = tracer->NewId();
  if (!tracer_->enabled()) return;
  span_.parent = parent;
  span_.request = request;
  span_.name = name;
  span_.start_s = tracer_->Now();
}

ScopedSpan::~ScopedSpan() {
  if (!tracer_->enabled()) return;
  span_.end_s = tracer_->Now();
  tracer_->Record(std::move(span_));
}

std::map<uint64_t, double> SelfTimes(const std::vector<Span>& spans) {
  std::map<uint64_t, std::vector<std::pair<double, double>>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_s, s.end_s);
  }
  std::map<uint64_t, double> self;
  for (const Span& s : spans) {
    std::vector<std::pair<double, double>> cover = children[s.id];
    std::sort(cover.begin(), cover.end());
    double covered = 0.0;
    double reach = s.start_s;  // end of the union so far
    for (const auto& [begin, end] : cover) {
      const double b = std::max(begin, reach);
      const double e = std::min(end, s.end_s);
      if (e > b) covered += e - b;
      reach = std::max(reach, std::min(end, s.end_s));
    }
    self[s.id] = (s.end_s - s.start_s) - covered;
  }
  return self;
}

std::map<std::string, double> MeanSelfTimeByName(
    const std::vector<Span>& spans) {
  const std::map<uint64_t, double> self = SelfTimes(spans);
  std::map<std::string, std::pair<double, size_t>> acc;
  for (const Span& s : spans) {
    auto& [sum, count] = acc[s.name];
    sum += self.at(s.id);
    ++count;
  }
  std::map<std::string, double> mean;
  for (const auto& [name, sc] : acc) {
    mean[name] = sc.first / static_cast<double>(sc.second);
  }
  return mean;
}

std::string SpansJsonLines(const std::vector<Span>& spans) {
  std::ostringstream out;
  char buf[96];
  for (const Span& s : spans) {
    std::snprintf(buf, sizeof(buf), "\"start_s\":%.9f,\"end_s\":%.9f",
                  s.start_s, s.end_s);
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << ",\"name\":" << JsonString(s.name)
        << "," << buf << "}\n";
  }
  return out.str();
}

// -- Exactness ----------------------------------------------------------------

bool RowBitIdentical(const Neighbor* want, const Neighbor* got, int k) {
  return std::memcmp(want, got, static_cast<size_t>(k) * sizeof(Neighbor)) ==
         0;
}

size_t CountInexactRows(const KnnResult& want, const KnnResult& got) {
  if (want.k() != got.k() || want.num_queries() != got.num_queries()) {
    return std::max(want.num_queries(), got.num_queries());
  }
  size_t bad = 0;
  for (size_t q = 0; q < want.num_queries(); ++q) {
    if (!RowBitIdentical(want.row(q), got.row(q), want.k())) ++bad;
  }
  return bad;
}

double RecallAtK(const Neighbor* want, const Neighbor* got, int k) {
  if (k <= 0) return 1.0;
  std::unordered_set<uint32_t> truth;
  for (int i = 0; i < k; ++i) truth.insert(want[i].index);
  int hits = 0;
  for (int i = 0; i < k; ++i) hits += truth.count(got[i].index) > 0 ? 1 : 0;
  return static_cast<double>(hits) / static_cast<double>(k);
}

// -- Load generation ----------------------------------------------------------

std::vector<double> PoissonArrivals(double rate, double seconds, Rng* rng) {
  std::vector<double> arrivals;
  double t = 0.0;
  while (true) {
    t += -std::log1p(-rng->NextDouble()) / rate;
    if (t >= seconds) break;
    arrivals.push_back(t);
  }
  return arrivals;
}

ZipfSampler::ZipfSampler(size_t n, double s) : cdf_(n) {
  SK_CHECK(n > 0);
  double acc = 0.0;
  for (size_t r = 0; r < n; ++r) {
    acc += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = acc;
  }
  for (double& c : cdf_) c /= acc;
}

size_t ZipfSampler::Sample(Rng* rng) const {
  const double u = rng->NextDouble();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<size_t>(static_cast<size_t>(it - cdf_.begin()),
                          cdf_.size() - 1);
}

// -- Registry reading ---------------------------------------------------------

RegistrySnapshot::RegistrySnapshot(const std::string& json_export)
    : registry_(std::make_unique<common::MetricsRegistry>()) {
  const Status parsed = common::ParseMetricsJson(json_export, registry_.get());
  SK_CHECK(parsed.ok()) << parsed.ToString();
}

double RegistrySnapshot::Counter(const std::string& name) const {
  return registry_->GetCounter(name, "")->value();
}

common::HistogramSnapshot RegistrySnapshot::Histogram(
    const std::string& name) const {
  return registry_->SnapshotHistogram(name);
}

double CounterDelta(const RegistrySnapshot& before,
                    const RegistrySnapshot& after, const std::string& name) {
  return after.Counter(name) - before.Counter(name);
}

double HistogramMeanDelta(const RegistrySnapshot& before,
                          const RegistrySnapshot& after,
                          const std::string& name) {
  const common::HistogramSnapshot a = before.Histogram(name);
  const common::HistogramSnapshot b = after.Histogram(name);
  if (b.count <= a.count) return 0.0;
  return (b.sum - a.sum) / static_cast<double>(b.count - a.count);
}

double HistogramSumDelta(const RegistrySnapshot& before,
                         const RegistrySnapshot& after,
                         const std::string& name) {
  return after.Histogram(name).sum - before.Histogram(name).sum;
}

double HistogramCountDelta(const RegistrySnapshot& before,
                           const RegistrySnapshot& after,
                           const std::string& name) {
  return static_cast<double>(after.Histogram(name).count) -
         static_cast<double>(before.Histogram(name).count);
}

}  // namespace sweetknn::e2e
