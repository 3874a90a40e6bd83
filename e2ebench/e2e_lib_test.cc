#include "e2e_lib.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

namespace sweetknn::e2e {
namespace {

std::vector<double> Ramp(size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(PercentileTest, NearestRank) {
  const std::vector<double> v = Ramp(100);
  EXPECT_EQ(Quantile(v, 0.5), 50.0);
  EXPECT_EQ(Quantile(v, 0.99), 99.0);
  EXPECT_EQ(Quantile(v, 1.0), 100.0);
  EXPECT_EQ(Quantile({7.0}, 0.99), 7.0);
  EXPECT_EQ(Quantile({}, 0.5), 0.0);
}

TEST(PercentileTest, TailLeavesTenSamplesBeyond) {
  // p99 needs 1000 samples (10 above rank 990); one fewer falls to p95.
  EXPECT_EQ(TailQuantile(1000), 0.99);
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_EQ(TailQuantile(999), 0.95);
  EXPECT_EQ(TailQuantile(200), 0.95);
  EXPECT_EQ(TailQuantile(199), 0.90);
  EXPECT_EQ(TailQuantile(100), 0.90);
  EXPECT_EQ(TailQuantile(40), 0.75);
  EXPECT_EQ(TailQuantile(39), 0.5);
  EXPECT_EQ(TailQuantile(0), 0.5);
  for (size_t n = 40; n < 3000; n += 7) {
    EXPECT_GE(SamplesBeyond(n, TailQuantile(n)), kSamplesBeyondTail) << n;
  }
}

TEST(PercentileTest, SummaryReportsSupportedTail) {
  const Summary s = Summarize(Ramp(200));
  EXPECT_EQ(s.n, 200u);
  EXPECT_EQ(s.p50, 100.0);
  EXPECT_EQ(s.tail_q, 0.95);
  EXPECT_EQ(s.tail, 190.0);
  EXPECT_DOUBLE_EQ(s.mean, 100.5);
  EXPECT_EQ(Summarize(Ramp(7)).tail_q, 0.5);
}

Span MakeSpan(uint64_t id, uint64_t parent, double start, double end) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.name = parent == 0 ? "root" : "child";
  s.start_s = start;
  s.end_s = end;
  return s;
}

TEST(SpanTest, SelfTimeSubtractsUnionOfChildren) {
  // Root [0, 10]; children [1, 3] and [2, 5] overlap (union 4) and
  // [9, 12] sticks out past the root (counts 1).
  const std::vector<Span> spans = {
      MakeSpan(1, 0, 0.0, 10.0), MakeSpan(2, 1, 1.0, 3.0),
      MakeSpan(3, 1, 2.0, 5.0), MakeSpan(4, 1, 9.0, 12.0)};
  const std::map<uint64_t, double> self = SelfTimes(spans);
  EXPECT_DOUBLE_EQ(self.at(1), 5.0);
  EXPECT_DOUBLE_EQ(self.at(2), 2.0);
  EXPECT_DOUBLE_EQ(self.at(4), 3.0);
  const std::map<std::string, double> by_name = MeanSelfTimeByName(spans);
  EXPECT_DOUBLE_EQ(by_name.at("root"), 5.0);
  EXPECT_DOUBLE_EQ(by_name.at("child"), (2.0 + 3.0 + 3.0) / 3.0);
}

TEST(SpanTest, DisabledTracerRecordsNothing) {
  Tracer off(false);
  { ScopedSpan span(&off, "x"); }
  EXPECT_TRUE(off.spans().empty());
  Tracer on(true);
  uint64_t parent = 0;
  {
    ScopedSpan outer(&on, "outer");
    parent = outer.id();
    ScopedSpan inner(&on, "inner", outer.id(), 7);
  }
  const std::vector<Span> spans = on.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[0].parent, parent);
  EXPECT_EQ(spans[0].request, 7);
  EXPECT_LE(spans[1].start_s, spans[0].start_s);
  EXPECT_GE(spans[1].end_s, spans[0].end_s);
}

KnnResult TwoRows() {
  KnnResult r(2, 3);
  r.SetRow(0, {{4, 0.5f}, {2, 1.0f}, {9, 1.5f}});
  r.SetRow(1, {{1, 0.25f}, {3, 0.75f}, {5, 2.0f}});
  return r;
}

TEST(ExactnessTest, IdenticalResultsPass) {
  EXPECT_EQ(CountInexactRows(TwoRows(), TwoRows()), 0u);
}

TEST(ExactnessTest, FlippedNeighborIsRejected) {
  KnnResult got = TwoRows();
  std::swap(got.mutable_row(1)[0], got.mutable_row(1)[1]);
  EXPECT_EQ(CountInexactRows(TwoRows(), got), 1u);
  KnnResult index = TwoRows();
  index.mutable_row(0)[2].index = 8;
  EXPECT_EQ(CountInexactRows(TwoRows(), index), 1u);
  KnnResult distance = TwoRows();
  distance.mutable_row(0)[1].distance =
      std::nextafter(distance.row(0)[1].distance, 2.0f);
  EXPECT_EQ(CountInexactRows(TwoRows(), distance), 1u);
  EXPECT_EQ(CountInexactRows(TwoRows(), KnnResult(2, 2)), 2u);
}

TEST(ExactnessTest, RecallCountsSharedIndices) {
  KnnResult got = TwoRows();
  got.mutable_row(0)[2].index = 8;
  EXPECT_DOUBLE_EQ(RecallAtK(TwoRows().row(0), got.row(0), 3), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(RecallAtK(TwoRows().row(1), got.row(1), 3), 1.0);
}

TEST(LoadTest, PoissonArrivalsAreSeededAndAtRate) {
  Rng a(5), b(5);
  const std::vector<double> x = PoissonArrivals(1000.0, 10.0, &a);
  EXPECT_EQ(x, PoissonArrivals(1000.0, 10.0, &b));
  EXPECT_NEAR(static_cast<double>(x.size()), 10000.0, 400.0);
  EXPECT_TRUE(std::is_sorted(x.begin(), x.end()));
  EXPECT_LT(x.back(), 10.0);
}

TEST(LoadTest, ZipfFavorsLowRanks) {
  ZipfSampler zipf(1000, 0.9);
  Rng rng(3);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 100000; ++i) ++counts[zipf.Sample(&rng)];
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[100]);
  EXPECT_GT(counts[999], 0);
}

TEST(RegistryTest, DeltasUseSumsAndCounts) {
  common::MetricsRegistry registry;
  common::Counter* c = registry.GetCounter("c_total", "c");
  common::Histogram* h =
      registry.GetHistogram("h_seconds", "h", common::LatencyBucketsSeconds());
  c->Increment(3);
  h->Observe(1.0);
  const RegistrySnapshot before(registry.ExportJson());
  c->Increment(2);
  h->Observe(0.25);
  h->Observe(0.75);
  const RegistrySnapshot after(registry.ExportJson());
  EXPECT_DOUBLE_EQ(CounterDelta(before, after, "c_total"), 2.0);
  EXPECT_DOUBLE_EQ(HistogramMeanDelta(before, after, "h_seconds"), 0.5);
  EXPECT_DOUBLE_EQ(HistogramSumDelta(before, after, "h_seconds"), 1.0);
  EXPECT_DOUBLE_EQ(HistogramCountDelta(before, after, "h_seconds"), 2.0);
  EXPECT_DOUBLE_EQ(CounterDelta(before, after, "absent_total"), 0.0);
  EXPECT_DOUBLE_EQ(HistogramMeanDelta(before, after, "absent"), 0.0);
}

}  // namespace
}  // namespace sweetknn::e2e
