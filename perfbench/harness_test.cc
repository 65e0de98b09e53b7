// Unit tests of the benchmark's own helpers: percentiles and the
// ten-beyond rule, span self-time arithmetic, metric names, ratio
// printing and seeded input generation.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness.h"
#include "inputs.h"

namespace approxql::perfbench {
namespace {

std::vector<double> OneTo(size_t n) {
  std::vector<double> values;
  for (size_t i = n; i >= 1; --i) values.push_back(static_cast<double>(i));
  return values;  // descending: Summarize must not assume sorted input
}

TEST(PercentileTest, NearestRank) {
  EXPECT_EQ(Summarize(OneTo(100)).p50, 50);
  EXPECT_EQ(Summarize(OneTo(100)).p99, 99);
  EXPECT_EQ(Summarize(OneTo(1000)).p99, 990);
  EXPECT_EQ(Summarize(OneTo(3)).p50, 2);
  EXPECT_EQ(Summarize(OneTo(1)).p99, 1);
  EXPECT_EQ(Summarize({}).p50, 0);
  EXPECT_EQ(Summarize({}).count, 0u);
}

TEST(PercentileTest, TenSamplesBeyondRule) {
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_TRUE(TailReportable(1000, 0.99));
  EXPECT_EQ(SamplesBeyond(999, 0.99), 9u);
  EXPECT_FALSE(TailReportable(999, 0.99));
  EXPECT_FALSE(TailReportable(100, 0.99));
  EXPECT_TRUE(TailReportable(100, 0.90));
  EXPECT_EQ(SamplesBeyond(0, 0.99), 0u);
}

TEST(PercentileTest, SummarizeReportsCountsWithTheTail) {
  LatencySummary small = Summarize(OneTo(500));
  EXPECT_EQ(small.count, 500u);
  EXPECT_EQ(small.p50, 250);
  EXPECT_EQ(small.beyond_p99, 5u);
  EXPECT_FALSE(small.p99_reportable);
  LatencySummary large = Summarize(OneTo(2000));
  EXPECT_EQ(large.p99, 1980);
  EXPECT_EQ(large.beyond_p99, 20u);
  EXPECT_TRUE(large.p99_reportable);
}

TEST(PercentileTest, MedianOfRepetitions) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 2, 3}), 2.5);
  EXPECT_EQ(Median({}), 0);
}

Span MakeSpan(uint64_t id, uint64_t parent, uint64_t request, int64_t start,
              int64_t end, bool fanout = false) {
  Span span;
  span.id = id;
  span.parent = parent;
  span.request = request;
  span.start_ns = start * 1000;  // microseconds in, nanoseconds stored
  span.end_ns = end * 1000;
  span.fanout = fanout;
  return span;
}

TEST(SelfTimeTest, SequentialChildrenAreSummed) {
  // query [0, 100) over parse [0, 10), expand [10, 25), call [25, 90).
  std::vector<Span> spans = {MakeSpan(1, 0, 7, 0, 100), MakeSpan(2, 1, 7, 0, 10),
                             MakeSpan(3, 1, 7, 10, 25),
                             MakeSpan(4, 1, 7, 25, 90)};
  EXPECT_DOUBLE_EQ(SelfTimeUs(spans[0], spans), 10);
  EXPECT_DOUBLE_EQ(SelfTimeUs(spans[1], spans), 10);  // a leaf is all self
}

TEST(SelfTimeTest, FanOutChildrenCoverTheirLongest) {
  // route [0, 50) fans out to shards of 30 and 20: self is 50 - 30.
  std::vector<Span> spans = {MakeSpan(1, 0, 3, 0, 50, /*fanout=*/true),
                             MakeSpan(2, 1, 3, 100, 130),
                             MakeSpan(3, 1, 3, 200, 220)};
  EXPECT_DOUBLE_EQ(SelfTimeUs(spans[0], spans), 20);
}

TEST(SelfTimeTest, OnlyTheSameRequestCounts) {
  std::vector<Span> spans = {MakeSpan(1, 0, 1, 0, 40), MakeSpan(2, 1, 1, 0, 15),
                             MakeSpan(3, 1, 2, 0, 15)};
  EXPECT_DOUBLE_EQ(SelfTimeUs(spans[0], spans), 25);
}

TEST(SelfTimeTest, LayerBeneathMeasuredSlowerGoesNegative) {
  // A probe of the layer beneath, run after the fact, took longer than
  // the whole call: the difference is reported, not clamped.
  std::vector<Span> spans = {MakeSpan(1, 0, 1, 0, 40),
                             MakeSpan(2, 1, 1, 50, 100)};
  EXPECT_DOUBLE_EQ(SelfTimeUs(spans[0], spans), -10);
}

TEST(TracerTest, ScopedSpansNestUnderOneRequest) {
  Tracer tracer;
  const uint64_t request = tracer.NewRequest();
  {
    ScopedSpan root(&tracer, "query", request);
    ScopedSpan child(&tracer, "query.parse", request, root.id());
  }
  std::vector<Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[1].request, request);
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_GE(spans[0].end_ns, spans[1].end_ns);
  EXPECT_EQ(tracer.Durations("query.parse").size(), 1u);
  EXPECT_GE(tracer.SelfTimes("query")[0], 0);
  EXPECT_NE(tracer.NewRequest(), request);
}

TEST(TracerTest, NullTracerRecordsNothing) {
  ScopedSpan span(nullptr, "query", 1);
  EXPECT_EQ(span.id(), 0u);
}

TEST(MetricNameTest, Charset) {
  EXPECT_TRUE(ValidMetricName("query_p99_us"));
  EXPECT_TRUE(ValidMetricName("engine.direct.dp_cache_hit_ratio"));
  EXPECT_TRUE(ValidMetricName("9-lives.x_y"));
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName(".leading_dot"));
  EXPECT_FALSE(ValidMetricName("_leading_underscore"));
  EXPECT_FALSE(ValidMetricName("has space"));
  EXPECT_FALSE(ValidMetricName("has/slash"));
  EXPECT_FALSE(ValidMetricName("quote\""));
  EXPECT_TRUE(ValidMetricName(std::string(64, 'a')));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
}

TEST(MetricTableTest, ResultLineCarriesValueAndUnit) {
  MetricTable table;
  table.Add("query_qps", 1234.5, "1/s", 10);
  table.Add("setup_s", 0.25, "s");
  EXPECT_TRUE(table.Has("setup_s"));
  EXPECT_FALSE(table.Has("query_p50_us"));
  EXPECT_EQ(table.ResultJson(true, 10, 0),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, "
            "\"metrics\": {\"query_qps\": {\"value\": 1234.5, \"unit\": "
            "\"1/s\"}, \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}");
}

TEST(MetricTableDeathTest, RefusesBadOrRepeatedNames) {
  MetricTable table;
  table.Add("ok", 1, "count");
  EXPECT_DEATH(table.Add("ok", 2, "count"), "bad metric");
  EXPECT_DEATH(table.Add("not ok", 2, "count"), "bad metric");
}

TEST(RatioTest, PrintedWithItsBase) {
  EXPECT_EQ(FormatRatio("hits/lookups", 1, 4), "hits/lookups=0.2500 (1.00/4.00)");
  EXPECT_EQ(FormatRatio("x", 3, 0), "x=0.0000 (3.00/0.00)");
  EXPECT_EQ(SafeRatio(3, 0), 0);
  EXPECT_EQ(SafeRatio(3, 2), 1.5);
}

TEST(DumpValueTest, ReadsCountersAndHistogramFields) {
  const std::string dump =
      "queries_completed 42\n"
      "queue_wait_us count=7 mean=12.5us p50=9us p90=20us p99=31us max=40us\n"
      "thread_pool_steals 3\n";
  EXPECT_EQ(DumpValue(dump, "thread_pool_steals"), 3);
  EXPECT_EQ(DumpValue(dump, "queries_completed"), 42);
  EXPECT_EQ(DumpValue(dump, "queue_wait_us", "mean"), 12.5);
  EXPECT_EQ(DumpValue(dump, "queue_wait_us", "p99"), 31);
  EXPECT_EQ(DumpValue(dump, "missing"), 0);
  EXPECT_EQ(DumpValue(dump, "queries_completed", "mean"), 0);
}

TEST(InputsTest, SameSeedSameInputs) {
  const gen::XmlGenOptions options = PaperRatioOptions(7, 1500);
  const std::vector<std::string> docs = GenerateDocuments(options);
  EXPECT_EQ(docs, GenerateDocuments(options));
  EXPECT_NE(docs, GenerateDocuments(PaperRatioOptions(8, 1500)));
  size_t elements = 0;
  for (const std::string& doc : docs) elements += CountElements(doc);
  EXPECT_GE(elements, options.total_elements);

  const cost::CostModel model = SeededDeleteCosts(7, options);
  auto db = engine::Database::BuildFromXml(docs, model);
  ASSERT_TRUE(db.ok()) << db.status();
  auto again = engine::Database::BuildFromXml(docs, model);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(WireQueries(*db, 7, 12), WireQueries(*again, 7, 12));
  EXPECT_NE(WireQueries(*db, 7, 12), WireQueries(*db, 8, 12));

  auto texts = [](const std::vector<gen::GeneratedQuery>& queries) {
    std::vector<std::string> out;
    for (const auto& q : queries) out.push_back(q.text);
    return out;
  };
  const std::vector<std::string> mix = texts(PaperQueryMix(*db, 7, {2, 1, 1}));
  EXPECT_EQ(mix.size(), 12u);
  EXPECT_EQ(mix, texts(PaperQueryMix(*again, 7, {2, 1, 1})));
  EXPECT_EQ(InputDigest(mix), InputDigest(texts(PaperQueryMix(*db, 7, {2, 1, 1}))));
  EXPECT_NE(InputDigest({"ab", "c"}), InputDigest({"a", "bc"}));
}

TEST(InputsTest, CountsElements) {
  EXPECT_EQ(CountElements("<a><b/>text<c>more</c></a>"), 3u);
}

}  // namespace
}  // namespace approxql::perfbench
