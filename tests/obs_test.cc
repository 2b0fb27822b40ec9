// Tests for the observability subsystem: span nesting, JSON escaping and
// round-trips, metric accumulation, report structure, and the
// disabled-path no-allocation guarantee.
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <new>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "obs/analyze.h"
#include "obs/json.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/report.h"
#include "obs/span.h"

namespace lac::obs {
namespace {

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(true);
    reset();  // drop anything a prior test left behind
  }
};

// The trace of a freshly built report (which drains it).
std::vector<SpanNode> report_trace() {
  return trace_from_report(build_report("test"));
}

// The report's value at metrics/<section>/<name>; nullptr when absent.
const json::Value* metric(const json::Value& report, const char* section,
                          const char* name) {
  return report.at_path({"metrics", section, name});
}

TEST_F(ObsTest, SpanNestingBuildsTree) {
  {
    Span root("root");
    root.annotate("k", 42);
    {
      Span child("child_a");
      child.annotate("tag", "x");
      { Span grand("grand"); }
    }
    { Span child("child_b"); }
  }
  const auto roots = report_trace();
  ASSERT_EQ(roots.size(), 1u);
  const SpanNode& r = roots[0];
  EXPECT_EQ(r.name, "root");
  EXPECT_GE(r.seconds, 0.0);
  ASSERT_EQ(r.children.size(), 2u);
  EXPECT_EQ(r.children[0].name, "child_a");
  EXPECT_EQ(r.children[1].name, "child_b");
  ASSERT_EQ(r.children[0].children.size(), 1u);
  EXPECT_EQ(r.children[0].children[0].name, "grand");

  const Annotation* a = r.find_annotation("k");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->kind, Annotation::Kind::kInt);
  EXPECT_EQ(a->i, 42);
  ASSERT_NE(r.find_child("child_b"), nullptr);
  EXPECT_EQ(r.find_child("nope"), nullptr);
}

TEST_F(ObsTest, SiblingRootsArePublishedInCompletionOrder) {
  { Span a("first"); }
  { Span b("second"); }
  const auto roots = report_trace();
  ASSERT_EQ(roots.size(), 2u);
  EXPECT_EQ(roots[0].name, "first");
  EXPECT_EQ(roots[1].name, "second");
  // Drained: a second report has no trace.
  EXPECT_TRUE(report_trace().empty());
}

TEST_F(ObsTest, SpansOnDifferentThreadsAreSeparateRoots) {
  std::thread t([] { Span s("thread_root"); });
  t.join();
  { Span s("main_root"); }
  const auto roots = report_trace();
  ASSERT_EQ(roots.size(), 2u);
  EXPECT_EQ(roots[0].name, "thread_root");
  EXPECT_EQ(roots[1].name, "main_root");
}

TEST_F(ObsTest, DisabledSpanRecordsNothingButStillTimes) {
  set_enabled(false);
  {
    Span s("off");
    EXPECT_FALSE(s.recording());
    EXPECT_GE(s.elapsed_seconds(), 0.0);
  }
  set_enabled(true);
  EXPECT_TRUE(report_trace().empty());
}

TEST_F(ObsTest, ScopedEnableRestoresPreviousState) {
  set_enabled(true);
  {
    ScopedEnable off(false);
    EXPECT_FALSE(enabled());
    {
      ScopedEnable on(true);
      EXPECT_TRUE(enabled());
    }
    EXPECT_FALSE(enabled());
  }
  EXPECT_TRUE(enabled());
}

TEST_F(ObsTest, DisabledHotPathPerformsNoAllocation) {
  if (!memory::tracking_available())
    GTEST_SKIP() << "no global allocation hooks on this platform";
  set_enabled(false);
  const std::uint64_t before = memory::thread_alloc_calls();
  for (int i = 0; i < 1000; ++i) {
    Span s("hot");
    s.annotate("k", 1);
    s.annotate("s", "value");
    count("c");
    gauge("g", 1.0);
    observe("h", 0.5);
  }
  const std::uint64_t after = memory::thread_alloc_calls();
  set_enabled(true);
  EXPECT_EQ(after, before);
}

TEST_F(ObsTest, CountersAccumulate) {
  count("test.counter");
  count("test.counter", 4);
  const json::Value report = build_report("test");
  EXPECT_EQ(metric(report, "counters", "test.counter")->num, 5);
  EXPECT_EQ(metric(report, "counters", "absent"), nullptr);
}

TEST_F(ObsTest, GaugeKeepsLastValue) {
  gauge("test.gauge", 1.5);
  gauge("test.gauge", 2.5);
  const json::Value report = build_report("test");
  const json::Value* g = metric(report, "gauges", "test.gauge");
  ASSERT_NE(g, nullptr);
  EXPECT_DOUBLE_EQ(g->num, 2.5);
  EXPECT_EQ(metric(report, "gauges", "absent"), nullptr);
}

TEST_F(ObsTest, HistogramAccumulatesIntoLogBuckets) {
  observe("test.hist", 0.5);
  observe("test.hist", 0.5);
  observe("test.hist", 100.0);
  const json::Value report = build_report("test");
  const json::Value* h = metric(report, "histograms", "test.hist");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->find("count")->num, 3);
  EXPECT_DOUBLE_EQ(h->find("sum")->num, 101.0);
  EXPECT_DOUBLE_EQ(h->find("min")->num, 0.5);
  EXPECT_DOUBLE_EQ(h->find("max")->num, 100.0);
  // Buckets are sparse, ascending by bound: both observations of 0.5 share
  // the first bucket whose bound is >= 0.5.
  const auto& buckets = h->find("buckets")->array;
  double total = 0;
  for (const auto& b : buckets) total += b.find("count")->num;
  EXPECT_EQ(total, 3);
  ASSERT_FALSE(buckets.empty());
  EXPECT_EQ(buckets[0].find("count")->num, 2);
  EXPECT_GE(buckets[0].find("le")->num, 0.5);
}

TEST_F(ObsTest, DisabledMetricsAreDropped) {
  set_enabled(false);
  count("dropped.counter");
  observe("dropped.hist", 1.0);
  set_enabled(true);
  const json::Value report = build_report("test");
  EXPECT_EQ(metric(report, "counters", "dropped.counter"), nullptr);
  EXPECT_EQ(metric(report, "histograms", "dropped.hist"), nullptr);
}

TEST(JsonTest, EscapesControlAndSpecialCharacters) {
  EXPECT_EQ(json::escape("plain"), "plain");
  EXPECT_EQ(json::escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json::escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json::escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json::escape(std::string("a\x01" "b")), "a\\u0001b");
}

TEST(JsonTest, WriterProducesWellFormedDocument) {
  json::Writer w;
  w.begin_object();
  w.kv("name", "x\"y");
  w.kv("n", 3);
  w.kv("pi", 3.5);
  w.kv("yes", true);
  w.key("arr");
  w.begin_array();
  w.value(1);
  w.value(2);
  w.end_array();
  w.key("none");
  w.null();
  w.end_object();
  const std::string doc = w.take();
  const auto v = json::parse(doc);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->find("name")->str, "x\"y");
  EXPECT_DOUBLE_EQ(v->find("n")->num, 3.0);
  EXPECT_DOUBLE_EQ(v->find("pi")->num, 3.5);
  EXPECT_TRUE(v->find("yes")->b);
  ASSERT_TRUE(v->find("arr")->is_array());
  EXPECT_EQ(v->find("arr")->array.size(), 2u);
  EXPECT_EQ(v->find("none")->kind, json::Value::Kind::kNull);
}

TEST(JsonTest, ParseRoundTripsThroughSerialize) {
  const std::string doc =
      R"({"a": [1, 2.5, "sé", true, null], "b": {"c": -3}})";
  const auto v = json::parse(doc);
  ASSERT_TRUE(v.has_value());
  const auto again = json::parse(json::serialize(*v));
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(json::serialize(*v), json::serialize(*again));
  EXPECT_EQ(v->at_path({"b", "c"})->num, -3.0);
  EXPECT_EQ(v->find("a")->array[2].str, "s\xc3\xa9");
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(json::parse("{").has_value());
  EXPECT_FALSE(json::parse("[1,]").has_value());
  EXPECT_FALSE(json::parse("{} trailing").has_value());
  EXPECT_FALSE(json::parse("\"unterminated").has_value());
  EXPECT_FALSE(json::parse("nul").has_value());
}

TEST_F(ObsTest, ReportContainsTraceAndMetrics) {
  {
    Span s("report_root");
    s.annotate("circuit", "y123");
    { Span c("stage"); }
    count("report.counter", 7);
    observe("report.hist", 2.0);
  }
  const std::string text =
      render_report("unit", {{"note", json::Value::of("hello")}});
  const auto doc = json::parse(text);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("schema")->str, "lac-obs-report/2");
  EXPECT_EQ(doc->find("name")->str, "unit");
  EXPECT_TRUE(doc->find("obs_enabled")->b);
  EXPECT_EQ(doc->at_path({"meta", "note"})->str, "hello");
  // v2: the metrics block always carries the process-memory section.
  const auto* tracking = doc->at_path({"metrics", "memory", "tracking"});
  ASSERT_NE(tracking, nullptr);
  EXPECT_EQ(tracking->b, memory::tracking_enabled());

  const auto* trace = doc->find("trace");
  ASSERT_TRUE(trace && trace->is_array());
  ASSERT_EQ(trace->array.size(), 1u);
  const auto& root = trace->array[0];
  EXPECT_EQ(root.find("name")->str, "report_root");
  EXPECT_EQ(root.at_path({"annotations", "circuit"})->str, "y123");
  ASSERT_EQ(root.find("children")->array.size(), 1u);
  EXPECT_EQ(root.find("children")->array[0].find("name")->str, "stage");

  EXPECT_EQ(doc->at_path({"metrics", "counters", "report.counter"})->num, 7.0);
  const auto* hist = doc->at_path({"metrics", "histograms", "report.hist"});
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->find("count")->num, 1.0);

  // Building the report drained the store: a second report has no trace.
  const auto empty = json::parse(render_report("unit2"));
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->find("trace")->array.empty());
}

// The root cap keeps the first N roots of a report in completion order and
// counts the rest in dropped_root_spans (cumulative over the process, so
// the test reads a delta).
TEST_F(ObsTest, RootCapKeepsFirstRootsAndCountsTheRest) {
  const auto dropped = [](const json::Value& report) {
    return static_cast<std::int64_t>(report.find("dropped_root_spans")->num);
  };
  const std::int64_t before = dropped(build_report("cap_drain"));
  const std::size_t saved_cap = max_root_spans();
  constexpr int kCap = 3;
  constexpr int kExtra = 2;
  set_max_root_spans(kCap);
  for (int i = 0; i < kCap + kExtra; ++i) {
    Span s("capped");
    s.annotate("i", i);
  }
  const json::Value report = build_report("cap");
  set_max_root_spans(saved_cap);

  const json::Value* trace = report.find("trace");
  ASSERT_EQ(trace->array.size(), static_cast<std::size_t>(kCap));
  for (int i = 0; i < kCap; ++i)
    EXPECT_EQ(trace->array[static_cast<std::size_t>(i)]
                  .at_path({"annotations", "i"})
                  ->num,
              i);
  EXPECT_EQ(dropped(report) - before, kExtra);
}

// Successive reports partition the trace; counters accumulate across them.
TEST_F(ObsTest, SuccessiveReportsPartitionTraceAndAccumulateCounters) {
  {
    Span s("first");
    count("partition.counter", 1);
  }
  const json::Value r1 = build_report("r1");
  {
    Span s("second");
    count("partition.counter", 2);
  }
  const json::Value r2 = build_report("r2");

  ASSERT_EQ(r1.find("trace")->array.size(), 1u);
  EXPECT_EQ(r1.find("trace")->array[0].find("name")->str, "first");
  ASSERT_EQ(r2.find("trace")->array.size(), 1u);
  EXPECT_EQ(r2.find("trace")->array[0].find("name")->str, "second");
  EXPECT_EQ(r1.at_path({"metrics", "counters", "partition.counter"})->num, 1);
  EXPECT_EQ(r2.at_path({"metrics", "counters", "partition.counter"})->num, 3);
}

TEST(JsonTest, ControlCharacterAndNonAsciiRoundTrips) {
  // Every byte below 0x20 must escape and come back identical.
  std::string wild;
  for (int c = 1; c < 0x20; ++c) wild += static_cast<char>(c);
  wild += "café ☕ 日本語";
  json::Writer w;
  w.begin_object();
  w.kv("s", std::string_view(wild));
  w.end_object();
  const auto v = json::parse(w.take());
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->find("s")->str, wild);

  // \u escapes, including a surrogate pair, decode to UTF-8.
  const auto esc = json::parse(R"(["\u00e9", "\ud83d\ude00", "\u0001"])");
  ASSERT_TRUE(esc.has_value());
  EXPECT_EQ(esc->array[0].str, "\xc3\xa9");
  EXPECT_EQ(esc->array[1].str, "\xf0\x9f\x98\x80");
  EXPECT_EQ(esc->array[2].str, "\x01");
  // Lone surrogates are malformed.
  EXPECT_FALSE(json::parse(R"(["\ud800"])").has_value());
}

TEST(JsonTest, DeepNestingParsesUpToTheRecursionLimit) {
  const auto nested = [](int depth) {
    std::string s(static_cast<std::size_t>(depth), '[');
    s += "1";
    s.append(static_cast<std::size_t>(depth), ']');
    return s;
  };
  const auto ok = json::parse(nested(100));
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(json::parse(json::serialize(*ok)).has_value(), true);
  EXPECT_FALSE(json::parse(nested(400)).has_value());
}

TEST_F(ObsTest, NanAndInfGaugesSerializeAsNull) {
  gauge("edge.nan", std::nan(""));
  gauge("edge.inf", std::numeric_limits<double>::infinity());
  gauge("edge.fine", 2.5);
  const std::string text = render_report("edge");
  // The writer has no Inf/NaN literal: both become null, and the
  // document still parses.
  const auto doc = json::parse(text);
  ASSERT_TRUE(doc.has_value());
  const auto* nan_v = doc->at_path({"metrics", "gauges", "edge.nan"});
  ASSERT_NE(nan_v, nullptr);
  EXPECT_EQ(nan_v->kind, json::Value::Kind::kNull);
  const auto* inf_v = doc->at_path({"metrics", "gauges", "edge.inf"});
  ASSERT_NE(inf_v, nullptr);
  EXPECT_EQ(inf_v->kind, json::Value::Kind::kNull);
  EXPECT_DOUBLE_EQ(doc->at_path({"metrics", "gauges", "edge.fine"})->num,
                   2.5);
}

TEST_F(ObsTest, DeeplyNestedSpanTreeRoundTripsThroughReport) {
  constexpr int kDepth = 50;
  const std::function<void(int)> recurse = [&](int n) {
    if (n == 0) return;
    Span s("deep");
    recurse(n - 1);
  };
  recurse(kDepth);
  const auto doc = json::parse(render_report("deep"));
  ASSERT_TRUE(doc.has_value());
  const json::Value* cur = &doc->find("trace")->array[0];
  int depth = 1;
  while (const json::Value* kids = cur->find("children")) {
    cur = &kids->array[0];
    ++depth;
  }
  EXPECT_EQ(depth, kDepth);
  EXPECT_EQ(cur->find("name")->str, "deep");
}

TEST_F(ObsTest, WriteReportRoundTripsThroughParseFile) {
  { Span s("file_root"); }
  const std::string path =
      ::testing::TempDir() + "/obs_test_report.json";
  ASSERT_TRUE(write_report(path, "file_test"));
  const auto doc = json::parse_file(path);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("name")->str, "file_test");
  EXPECT_EQ(doc->find("trace")->array[0].find("name")->str, "file_root");
  EXPECT_FALSE(json::parse_file(path + ".missing").has_value());
}

TEST_F(ObsTest, WriteReportCreatesMissingParentDirectories) {
  { Span s("nested_root"); }
  const std::string path =
      ::testing::TempDir() + "/obs_nested/a/b/report.json";
  std::string error = "stale";
  ASSERT_TRUE(write_report(path, "nested", {}, &error));
  EXPECT_TRUE(error.empty());
  const auto doc = json::parse_file(path);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("name")->str, "nested");
}

TEST_F(ObsTest, WriteReportFailureCarriesErrorContext) {
  // A regular file as a path component defeats create_directories even
  // for root, unlike permission bits.
  const std::string blocker = ::testing::TempDir() + "/obs_blocker";
  {
    std::ofstream f(blocker);
    f << "not a directory\n";
  }
  std::string error;
  EXPECT_FALSE(
      write_report(blocker + "/sub/report.json", "blocked", {}, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_NE(error.find(blocker), std::string::npos) << error;
}

}  // namespace
}  // namespace lac::obs
