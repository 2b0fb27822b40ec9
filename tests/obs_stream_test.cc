// Tests for obs/stream: the crash-safe event log and its fold/strip
// pipeline.  The load-bearing properties:
//   * a complete run's stream folds to the very report build_report()
//     wrote in-process — byte-identical, even before stripping;
//   * a truncated stream (killed run, partial last line) still folds,
//     marked "truncated": true with unclosed spans annotated;
//   * stripped streams are byte-identical across thread counts;
//   * with the sink closed, the hooks allocate nothing.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>

#include "bench89/suite.h"
#include "obs/compare.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/report.h"
#include "obs/span.h"
#include "obs/stream.h"
#include "obs/task.h"
#include "planner/interconnect_planner.h"

namespace lac::obs::stream {
namespace {

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// One full in-process plan with the stream attached; returns the
// direct report's serialized text, leaving the stream file at `path`.
std::string run_plan_streaming(const std::string& path, int threads) {
  obs::reset();
  ScopedEnable on(true);
  std::string error;
  EXPECT_TRUE(open(path, "stream_test", &error)) << error;

  const auto& entry = bench89::entry_by_name("y386");
  const auto nl = bench89::load(entry);
  planner::PlannerConfig cfg;
  cfg.run.seed = 7;
  cfg.run.exec.threads = threads;
  cfg.num_blocks = entry.recommended_blocks;
  const planner::InterconnectPlanner planner(cfg);
  (void)planner.plan(nl, planner::PlanOptions{}).front();

  const std::string direct = json::serialize(build_report("stream_test"));
  close();
  return direct;
}

TEST(ObsStream, CompleteRunFoldsByteIdenticalToDirectReport) {
  const std::string path = temp_path("full.jsonl");
  const std::string direct = run_plan_streaming(path, /*threads=*/2);

  const auto folded = fold_file(path);
  ASSERT_TRUE(folded.has_value());
  EXPECT_FALSE(folded->truncated);
  EXPECT_EQ(folded->skipped_lines, 0);
  // Not just equivalent — byte-identical, including every wall-clock and
  // allocation field: the in-process report is the record's fold of the
  // very lines the stream holds.
  EXPECT_EQ(json::serialize(folded->report), direct);
  // The stripped forms then trivially agree too (the satellite contract).
  EXPECT_EQ(json::serialize(strip_times(folded->report)),
            json::serialize(strip_times(*json::parse(direct))));
}

TEST(ObsStream, StrippedStreamsIdenticalAcrossThreadCounts) {
  const std::string p1 = temp_path("threads1.jsonl");
  const std::string p4 = temp_path("threads4.jsonl");
  (void)run_plan_streaming(p1, /*threads=*/1);
  (void)run_plan_streaming(p4, /*threads=*/4);
  const std::string s1 = strip_stream(read_file(p1));
  const std::string s4 = strip_stream(read_file(p4));
  EXPECT_FALSE(s1.empty());
  EXPECT_EQ(s1, s4);
}

TEST(ObsStream, TruncatedStreamFoldsWithMarkerAndUnclosedSpans) {
  // A killed run: header, one global span opened and never closed, some
  // metric traffic, and a partial last line cut mid-write.
  const std::string text =
      "{\"ev\":\"run\",\"schema\":\"lac-obs-events/1\",\"name\":\"killed\","
      "\"unix_ms\":1,\"obs_enabled\":true,\"mem_tracking\":false}\n"
      "{\"ev\":\"open\",\"id\":1,\"t\":0.1,\"name\":\"planner.plan\"}\n"
      "{\"ev\":\"open\",\"id\":2,\"parent\":1,\"t\":0.2,"
      "\"name\":\"stage.partition\"}\n"
      "{\"ev\":\"count\",\"name\":\"planner.plans\",\"delta\":1}\n"
      "{\"ev\":\"gauge\",\"name\":\"mcf.network_bytes\",\"value\":123}\n"
      "{\"ev\":\"close\",\"id\":2,\"t\":0.3,\"name\":\"stage.partition\","
      "\"seconds\":0.1}\n"
      "{\"ev\":\"count\",\"name\":\"lac.rou";  // SIGKILL mid-line

  const auto folded = fold(text);
  ASSERT_TRUE(folded.has_value());
  EXPECT_TRUE(folded->truncated);
  EXPECT_EQ(folded->skipped_lines, 1);

  const json::Value& report = folded->report;
  const json::Value* truncated = report.find("truncated");
  ASSERT_NE(truncated, nullptr);
  EXPECT_TRUE(truncated->b);
  EXPECT_EQ(report.find("schema")->str, "lac-obs-report/2");
  EXPECT_EQ(report.find("name")->str, "killed");

  // The unclosed planner.plan root carries its closed child and the
  // forensic marker.
  const json::Value* trace = report.find("trace");
  ASSERT_NE(trace, nullptr);
  ASSERT_EQ(trace->array.size(), 1u);
  const json::Value& root = trace->array[0];
  EXPECT_EQ(root.find("name")->str, "planner.plan");
  ASSERT_NE(root.at_path({"annotations", "unclosed"}), nullptr);
  const json::Value* kids = root.find("children");
  ASSERT_NE(kids, nullptr);
  ASSERT_EQ(kids->array.size(), 1u);
  EXPECT_EQ(kids->array[0].find("name")->str, "stage.partition");

  // Metric state at the moment of death.
  EXPECT_EQ(report.at_path({"metrics", "counters", "planner.plans"})->num,
            1.0);
  EXPECT_EQ(report.at_path({"metrics", "gauges", "mcf.network_bytes"})->num,
            123.0);

  // And the forensic report is accepted by the report consumers.
  EXPECT_NO_THROW((void)strip_times(report));
}

TEST(ObsStream, CompleteStreamWithEventsAfterEndIsTruncated) {
  const std::string text =
      "{\"ev\":\"run\",\"schema\":\"lac-obs-events/1\",\"name\":\"r\","
      "\"obs_enabled\":true,\"mem_tracking\":false}\n"
      "{\"ev\":\"end\",\"t\":1.0,\"name\":\"r\",\"obs_enabled\":true,"
      "\"meta\":{},\"dropped_root_spans\":0,\"mem_tracking\":false}\n"
      "{\"ev\":\"count\",\"name\":\"late\",\"delta\":1}\n";
  const auto folded = fold(text);
  ASSERT_TRUE(folded.has_value());
  // Events after the last `end` mean the stream did not finish cleanly.
  EXPECT_TRUE(folded->truncated);
}

// Metric lines fold to the same values whether they take the in-place
// decoding (the rendered form) or the general parse (escaped names, other
// key orders); a null value is a non-finite one.
TEST(ObsStream, MetricEventsFoldWhateverTheirSpelling) {
  const std::string text =
      "{\"ev\":\"count\",\"name\":\"plain\",\"delta\":2}\n"
      "{\"ev\":\"count\",\"name\":\"plain\",\"delta\":-1}\n"
      "{\"ev\":\"count\",\"name\":\"quo\\\"te\",\"delta\":3}\n"
      "{\"name\":\"reordered\",\"ev\":\"count\",\"delta\":4}\n"
      "{\"ev\":\"gauge\",\"name\":\"g\",\"value\":null}\n"
      "{\"ev\":\"observe\",\"name\":\"h\",\"value\":1.5}\n"
      "{\"ev\":\"observe\",\"name\":\"h\", \"value\": 2.5}\n";
  const auto folded = fold(text);
  ASSERT_TRUE(folded.has_value());
  EXPECT_EQ(folded->events, 7);
  const json::Value& m = *folded->report.find("metrics");
  EXPECT_EQ(m.at_path({"counters", "plain"})->num, 1);
  EXPECT_EQ(m.at_path({"counters", "quo\"te"})->num, 3);
  EXPECT_EQ(m.at_path({"counters", "reordered"})->num, 4);
  EXPECT_TRUE(std::isnan(m.at_path({"gauges", "g"})->num));
  EXPECT_EQ(m.at_path({"histograms", "h", "count"})->num, 2);
  EXPECT_EQ(m.at_path({"histograms", "h", "sum"})->num, 4.0);
}

TEST(ObsStream, FoldRejectsEventFreeText) {
  EXPECT_FALSE(fold("").has_value());
  EXPECT_FALSE(fold("not json\nnot json either\n").has_value());
}

TEST(ObsStream, StripStreamDropsHeartbeatsAndTimeFields) {
  const std::string text =
      "{\"ev\":\"run\",\"schema\":\"lac-obs-events/1\",\"name\":\"r\","
      "\"unix_ms\":99,\"obs_enabled\":true,\"mem_tracking\":true}\n"
      "{\"ev\":\"hb\",\"t\":1.0,\"rss_bytes\":4096}\n"
      "{\"ev\":\"open\",\"id\":1,\"t\":0.5,\"name\":\"s\"}\n"
      "{\"ev\":\"close\",\"id\":1,\"t\":0.9,\"name\":\"s\","
      "\"seconds\":0.4,\"alloc_bytes\":10,\"freed_bytes\":10,"
      "\"peak_live_bytes\":5}\n"
      "{\"ev\":\"gauge\",\"name\":\"mem.peak_rss_bytes\",\"value\":1}\n"
      "{\"ev\":\"gauge\",\"name\":\"mcf.network_bytes\",\"value\":7}\n"
      "{\"ev\":\"observe\",\"name\":\"mcf.solve_seconds\",\"value\":0.1}\n"
      "{\"ev\":\"observe\",\"name\":\"lac.round_n_foa\",\"value\":3}\n";
  const std::string stripped = strip_stream(text);
  EXPECT_EQ(stripped,
            "{\"ev\":\"run\",\"schema\":\"lac-obs-events/1\",\"name\":\"r\","
            "\"obs_enabled\":true,\"mem_tracking\":true}\n"
            "{\"ev\":\"open\",\"id\":1,\"name\":\"s\"}\n"
            "{\"ev\":\"close\",\"id\":1,\"name\":\"s\"}\n"
            "{\"ev\":\"gauge\",\"name\":\"mcf.network_bytes\",\"value\":7}\n"
            "{\"ev\":\"observe\",\"name\":\"mcf.solve_seconds\"}\n"
            "{\"ev\":\"observe\",\"name\":\"lac.round_n_foa\","
            "\"value\":3}\n");
}

TEST(ObsStream, InactiveSinkHooksAllocateNothing) {
  if (!memory::tracking_available())
    GTEST_SKIP() << "no global allocation hooks on this platform";
  ASSERT_FALSE(active());
  ScopedEnable on(true);
  // Warm up the record's metric entries (and this thread's render buffer)
  // so the measured section exercises only the hook paths, not first-touch
  // map inserts.
  count("stream_test.counter", 1);
  gauge("stream_test.gauge", 1.0);

  const std::uint64_t before = memory::thread_alloc_calls();
  bool live = true;
  {
    Event ev("round");
    ev.field("round", 1).field("n_foa", 2.0).field("warm", true);
    live = ev.live();
  }
  count("stream_test.counter", 1);
  gauge("stream_test.gauge", 2.0);
  const std::uint64_t after = memory::thread_alloc_calls();
  EXPECT_FALSE(live);
  EXPECT_EQ(after, before);
}

TEST(ObsStream, RoundAndEndEventsAppearInStream) {
  const std::string path = temp_path("rounds.jsonl");
  (void)run_plan_streaming(path, /*threads=*/2);
  const std::string text = read_file(path);
  EXPECT_NE(text.find("\"ev\":\"run\""), std::string::npos);
  EXPECT_NE(text.find("\"ev\":\"round\""), std::string::npos);
  // plan() called directly runs its span tree at the global level, so
  // spans stream as live open/close pairs.
  EXPECT_NE(text.find("\"ev\":\"open\""), std::string::npos);
  EXPECT_NE(text.find("\"ev\":\"close\""), std::string::npos);
  EXPECT_NE(text.find("\"ev\":\"end\""), std::string::npos);
  // The end event is the last line.
  const std::size_t last_line = text.rfind('\n', text.size() - 2) + 1;
  EXPECT_EQ(text.compare(last_line, 11, "{\"ev\":\"end\""), 0);
}

TEST(ObsStream, TaskRootsStreamAsTreesNotPairs) {
  const std::string path = temp_path("trees.jsonl");
  obs::reset();
  ScopedEnable on(true);
  std::string error;
  ASSERT_TRUE(open(path, "trees", &error)) << error;

  TaskCapture cap;
  {
    ScopedTaskCapture scoped(&cap);
    Span task_span("task.work");
    task_span.annotate("item", 3);
    count("task.counter", 1);
  }
  commit_task_capture(std::move(cap));
  close();

  const std::string text = read_file(path);
  // The captured span arrives as one complete tree at commit — never as
  // a live open/close pair (those would interleave nondeterministically).
  EXPECT_NE(text.find("\"ev\":\"span\""), std::string::npos);
  EXPECT_NE(text.find("task.work"), std::string::npos);
  EXPECT_EQ(text.find("\"ev\":\"open\""), std::string::npos);
  EXPECT_EQ(text.find("\"ev\":\"close\""), std::string::npos);
  // The buffered metric event replays into the stream at commit too.
  EXPECT_NE(text.find("\"ev\":\"count\",\"name\":\"task.counter\""),
            std::string::npos);
}

TEST(ObsStream, SecondOpenWhileActiveFails) {
  const std::string path = temp_path("second.jsonl");
  std::string error;
  ASSERT_TRUE(open(path, "first", &error)) << error;
  EXPECT_FALSE(open(temp_path("other.jsonl"), "second", &error));
  EXPECT_FALSE(error.empty());
  close();
  close();  // idempotent
  EXPECT_FALSE(active());
}

}  // namespace
}  // namespace lac::obs::stream
