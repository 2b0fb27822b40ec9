// Tests for report diffing: deterministic counters hard-fail, timings
// get tolerance tiers, stripped baselines suppress timing comparisons,
// and strip_times produces byte-stable baseline documents.
#include <string>

#include <gtest/gtest.h>

#include "obs/compare.h"
#include "obs/json.h"

namespace lac::obs {
namespace {

json::Value parse_or_die(const std::string& text) {
  auto v = json::parse(text);
  EXPECT_TRUE(v.has_value()) << text;
  return *v;
}

json::Value base_report() {
  return parse_or_die(R"({
    "schema": "lac-obs-report/1",
    "name": "bench",
    "meta": {"circuits": 4, "total_exec_seconds": 12.5},
    "trace": [
      {"name": "plan", "seconds": 1.0,
       "children": [{"name": "solve", "seconds": 0.4},
                    {"name": "solve", "seconds": 0.4}]}
    ],
    "metrics": {
      "counters": {"mcf.augmentations": 1704, "lac.rounds": 3},
      "gauges": {"route.max_usage": 1.25},
      "histograms": {
        "mcf.solve_seconds": {"count": 2, "sum": 0.8},
        "lac.round_n_foa": {"count": 3, "sum": 21.0}
      }
    }
  })");
}

TEST(CompareTest, IdenticalReportsAreClean) {
  const DiffResult res = diff_reports(base_report(), base_report());
  EXPECT_EQ(res.verdict, Verdict::kOk);
  EXPECT_GT(res.entries.size(), 0u);
  EXPECT_EQ(res.count(Verdict::kWarn), 0);
  EXPECT_EQ(res.count(Verdict::kRegress), 0);
}

TEST(CompareTest, DoctoredDeterministicCounterRegresses) {
  json::Value current = base_report();
  json::Value* c = const_cast<json::Value*>(
      current.at_path({"metrics", "counters", "mcf.augmentations"}));
  ASSERT_NE(c, nullptr);
  c->num = 1709;
  const DiffResult res = diff_reports(base_report(), current);
  EXPECT_EQ(res.verdict, Verdict::kRegress);
  bool found = false;
  for (const DiffEntry& e : res.entries)
    if (e.name == "mcf.augmentations") {
      found = true;
      EXPECT_EQ(e.verdict, Verdict::kRegress);
      EXPECT_EQ(e.kind, DiffEntry::Kind::kCounter);
    }
  EXPECT_TRUE(found);
}

TEST(CompareTest, MissingAndExtraCountersRegress) {
  json::Value current = base_report();
  auto& counters = const_cast<json::Value*>(
                       current.at_path({"metrics", "counters"}))
                       ->object;
  counters.erase(counters.begin());  // drop lac.rounds or mcf.*
  counters.emplace_back("route.new_counter", json::Value::of(5));
  const DiffResult res = diff_reports(base_report(), current);
  EXPECT_EQ(res.verdict, Verdict::kRegress);
  EXPECT_GE(res.count(Verdict::kRegress), 2);
}

TEST(CompareTest, TimingTiersWarnThenFail) {
  DiffOptions opts;
  // +20%: above the 15% warn tier, below the 50% fail tier.
  const DiffResult r1 = diff_reports(
      parse_or_die(R"({"trace": [{"name": "plan", "seconds": 1.0}]})"),
      parse_or_die(R"({"trace": [{"name": "plan", "seconds": 1.2}]})"), opts);
  EXPECT_EQ(r1.verdict, Verdict::kWarn);

  const DiffResult r2 = diff_reports(
      parse_or_die(R"({"trace": [{"name": "plan", "seconds": 1.0}]})"),
      parse_or_die(R"({"trace": [{"name": "plan", "seconds": 2.0}]})"), opts);
  EXPECT_EQ(r2.verdict, Verdict::kRegress);

  opts.timings_warn_only = true;
  const DiffResult r3 = diff_reports(
      parse_or_die(R"({"trace": [{"name": "plan", "seconds": 1.0}]})"),
      parse_or_die(R"({"trace": [{"name": "plan", "seconds": 2.0}]})"), opts);
  EXPECT_EQ(r3.verdict, Verdict::kWarn);

  // Small deltas stay clean.
  const DiffResult r4 = diff_reports(
      parse_or_die(R"({"trace": [{"name": "plan", "seconds": 1.0}]})"),
      parse_or_die(R"({"trace": [{"name": "plan", "seconds": 1.05}]})"),
      DiffOptions{});
  EXPECT_EQ(r4.verdict, Verdict::kOk);
}

TEST(CompareTest, TinyTimingsAreIgnored) {
  // Both sides below min_seconds: a 10x swing on a microsecond span is
  // clock noise, not a regression.
  const DiffResult res = diff_reports(
      parse_or_die(R"({"trace": [{"name": "p", "seconds": 1e-5}]})"),
      parse_or_die(R"({"trace": [{"name": "p", "seconds": 1e-4}]})"));
  EXPECT_EQ(res.verdict, Verdict::kOk);
}

TEST(CompareTest, StrippedBaselineSuppressesTimingsButKeepsStructure) {
  const json::Value stripped = strip_times(base_report());
  json::Value current = base_report();

  // Timings wildly different from (absent) baseline: still clean.
  DiffResult res = diff_reports(stripped, current);
  EXPECT_EQ(res.verdict, Verdict::kOk);
  for (const DiffEntry& e : res.entries)
    EXPECT_NE(e.kind, DiffEntry::Kind::kSpanTime);

  // ... while a doctored counter still hard-fails.
  json::Value* c = const_cast<json::Value*>(
      current.at_path({"metrics", "counters", "lac.rounds"}));
  c->num = 4;
  res = diff_reports(stripped, current);
  EXPECT_EQ(res.verdict, Verdict::kRegress);

  // ... and so does a changed span count (structure is deterministic).
  json::Value extra_span = base_report();
  const_cast<json::Value*>(extra_span.find("trace"))
      ->array.push_back(parse_or_die(R"({"name": "plan", "seconds": 1.0})"));
  res = diff_reports(stripped, extra_span);
  EXPECT_EQ(res.verdict, Verdict::kRegress);
}

TEST(CompareTest, HistogramCountsAreDeterministicSumsAreTimings) {
  json::Value current = base_report();
  // A timing histogram's sum may drift within tolerance...
  json::Value* sum = const_cast<json::Value*>(
      current.at_path({"metrics", "histograms", "mcf.solve_seconds", "sum"}));
  sum->num = 0.85;  // ~6% over
  EXPECT_EQ(diff_reports(base_report(), current).verdict, Verdict::kOk);
  // ... but its observation count is exact.
  json::Value* count = const_cast<json::Value*>(current.at_path(
      {"metrics", "histograms", "mcf.solve_seconds", "count"}));
  count->num = 3;
  EXPECT_EQ(diff_reports(base_report(), current).verdict, Verdict::kRegress);

  // A non-timing histogram sum is deterministic.
  json::Value current2 = base_report();
  json::Value* nfoa = const_cast<json::Value*>(
      current2.at_path({"metrics", "histograms", "lac.round_n_foa", "sum"}));
  nfoa->num = 22.0;
  EXPECT_EQ(diff_reports(base_report(), current2).verdict, Verdict::kRegress);
}

TEST(CompareTest, NonTimingGaugeIsDeterministic) {
  json::Value current = base_report();
  json::Value* g = const_cast<json::Value*>(
      current.at_path({"metrics", "gauges", "route.max_usage"}));
  g->num = 1.3;
  EXPECT_EQ(diff_reports(base_report(), current).verdict, Verdict::kRegress);
}

TEST(CompareTest, EmptyReportsDiffCleanly) {
  const json::Value empty = parse_or_die("{}");
  const DiffResult res = diff_reports(empty, empty);
  EXPECT_EQ(res.verdict, Verdict::kOk);
  EXPECT_TRUE(res.entries.empty());

  // Empty baseline vs a real report: everything is "not in baseline".
  const DiffResult res2 = diff_reports(empty, base_report());
  EXPECT_EQ(res2.verdict, Verdict::kRegress);
}

TEST(CompareTest, NullMetricValuesAreTolerated) {
  // The writer emits null for NaN/Inf gauges (json.cc append_number);
  // diffing such a report must not crash or fabricate comparisons.
  const json::Value withnull = parse_or_die(R"({
    "metrics": {"gauges": {"weird.gauge": null},
                "counters": {"c": 1}}
  })");
  const DiffResult res = diff_reports(withnull, withnull);
  EXPECT_EQ(res.verdict, Verdict::kOk);
  for (const DiffEntry& e : res.entries) EXPECT_NE(e.name, "weird.gauge");
}

TEST(CompareTest, StripTimesRemovesWallClockData) {
  const json::Value stripped = strip_times(base_report());

  // Span structure survives, seconds do not.
  const json::Value* plan = &stripped.find("trace")->array[0];
  EXPECT_EQ(plan->find("name")->str, "plan");
  EXPECT_EQ(plan->find("seconds"), nullptr);
  EXPECT_EQ(plan->find("children")->array.size(), 2u);
  EXPECT_EQ(plan->find("children")->array[0].find("seconds"), nullptr);

  // Timing histogram keeps only its deterministic count.
  const json::Value* h =
      stripped.at_path({"metrics", "histograms", "mcf.solve_seconds"});
  ASSERT_NE(h, nullptr);
  EXPECT_NE(h->find("count"), nullptr);
  EXPECT_EQ(h->find("sum"), nullptr);
  // Non-timing histogram is untouched.
  const json::Value* nh =
      stripped.at_path({"metrics", "histograms", "lac.round_n_foa"});
  ASSERT_NE(nh, nullptr);
  EXPECT_NE(nh->find("sum"), nullptr);

  // Timing meta dropped, the rest kept.
  EXPECT_EQ(stripped.at_path({"meta", "total_exec_seconds"}), nullptr);
  EXPECT_NE(stripped.at_path({"meta", "circuits"}), nullptr);

  // Counters and non-timing gauges intact.
  EXPECT_NE(stripped.at_path({"metrics", "counters", "mcf.augmentations"}),
            nullptr);
  EXPECT_NE(stripped.at_path({"metrics", "gauges", "route.max_usage"}),
            nullptr);

  // Idempotent and serialisable.
  EXPECT_EQ(json::serialize(strip_times(stripped)),
            json::serialize(stripped));
}

// --ignore-style prefixes exempt a whole metric family from the diff, in
// every section and in both directions (used for cross-config runs where
// solver-effort counters legitimately differ).
TEST(CompareTest, IgnorePrefixSkipsFamilyEverywhere) {
  json::Value current = base_report();
  // Doctor an mcf.* counter AND an mcf.* histogram count; add an mcf.*
  // counter that is missing from the baseline.
  json::Value* c = const_cast<json::Value*>(
      current.at_path({"metrics", "counters", "mcf.augmentations"}));
  ASSERT_NE(c, nullptr);
  c->num = 7;
  json::Value* h = const_cast<json::Value*>(
      current.at_path({"metrics", "histograms", "mcf.solve_seconds", "count"}));
  ASSERT_NE(h, nullptr);
  h->num = 9;
  const_cast<json::Value*>(current.at_path({"metrics", "counters"}))
      ->object.emplace_back("mcf.warm_restarts", json::Value::of(41));

  // Without the prefix the doctored values regress...
  EXPECT_EQ(diff_reports(base_report(), current).verdict, Verdict::kRegress);

  // ...with it the whole family is exempt and nothing else complains.
  DiffOptions opts;
  opts.ignore_prefixes.push_back("mcf.");
  const DiffResult res = diff_reports(base_report(), current, opts);
  EXPECT_EQ(res.verdict, Verdict::kOk);
  for (const DiffEntry& e : res.entries)
    EXPECT_TRUE(e.name.rfind("mcf.", 0) != 0) << e.name;
}

TEST(CompareTest, IgnorePrefixStillEnforcesOtherFamilies) {
  json::Value current = base_report();
  json::Value* c = const_cast<json::Value*>(
      current.at_path({"metrics", "counters", "lac.rounds"}));
  ASSERT_NE(c, nullptr);
  c->num = 99;
  DiffOptions opts;
  opts.ignore_prefixes.push_back("mcf.");
  const DiffResult res = diff_reports(base_report(), current, opts);
  EXPECT_EQ(res.verdict, Verdict::kRegress);
}

TEST(CompareTest, IgnorePrefixSkipsSpans) {
  json::Value current = base_report();
  // Rename both solve child spans: without ignoring, that is two span
  // regressions (one missing, one unexpected).
  for (auto& root : const_cast<json::Value*>(current.at_path({"trace"}))->array)
    for (auto& [k, v] : root.object)
      if (k == "children")
        for (auto& child : v.array)
          for (auto& [ck, cv] : child.object)
            if (ck == "name") cv.str = "solve_warm";
  EXPECT_EQ(diff_reports(base_report(), current).verdict, Verdict::kRegress);
  DiffOptions opts;
  opts.ignore_prefixes.push_back("solve");
  EXPECT_EQ(diff_reports(base_report(), current, opts).verdict, Verdict::kOk);
}

TEST(CompareTest, TimingNamePredicate) {
  EXPECT_TRUE(is_timing_name("mcf.solve_seconds"));
  EXPECT_TRUE(is_timing_name("lac.round_seconds"));
  EXPECT_TRUE(is_timing_name("total_exec_seconds"));
  EXPECT_FALSE(is_timing_name("mcf.augmentations"));
  EXPECT_FALSE(is_timing_name("lac.round_n_foa"));
}

TEST(CompareTest, NoisyNamePredicate) {
  EXPECT_TRUE(is_noisy_name("mcf.solve_seconds"));   // timing
  EXPECT_TRUE(is_noisy_name("mem.peak_rss_bytes"));  // OS-level reading
  EXPECT_FALSE(is_noisy_name("mem.wd_bytes"));       // logical size
  EXPECT_FALSE(is_noisy_name("mcf.augmentations"));
}

// A v2 report on top of the v1 base: span memory deltas, mem.* gauges
// and the metrics.memory section.
json::Value v2_report() {
  json::Value r = base_report();
  const_cast<json::Value*>(r.at_path({"schema"}))->str = "lac-obs-report/2";
  auto& plan = const_cast<json::Value*>(r.at_path({"trace"}))->array[0];
  plan.object.emplace_back("alloc_bytes", json::Value::of(4096));
  plan.object.emplace_back("freed_bytes", json::Value::of(1024));
  plan.object.emplace_back("peak_live_bytes", json::Value::of(3072));
  auto& gauges =
      const_cast<json::Value*>(r.at_path({"metrics", "gauges"}))->object;
  gauges.emplace_back("mem.wd_bytes", json::Value::of(123456));
  gauges.emplace_back("mem.peak_rss_bytes", json::Value::of(9000000));
  json::Value mem;
  mem.kind = json::Value::Kind::kObject;
  mem.object.emplace_back("tracking", json::Value::of(true));
  mem.object.emplace_back("peak_rss_bytes", json::Value::of(9000000));
  const_cast<json::Value*>(r.at_path({"metrics"}))
      ->object.emplace_back("memory", std::move(mem));
  return r;
}

TEST(CompareTest, V2AgainstV2IsCleanAndRssIsInformational) {
  json::Value current = v2_report();
  // Wildly different RSS and span deltas must not regress: RSS is an OS
  // reading and span deltas are per-build facts, not gated quantities.
  const_cast<json::Value*>(
      current.at_path({"metrics", "gauges", "mem.peak_rss_bytes"}))
      ->num = 1.0;
  auto& plan = const_cast<json::Value*>(current.at_path({"trace"}))->array[0];
  for (auto& [k, v] : plan.object)
    if (k == "alloc_bytes") v.num = 999999;
  EXPECT_EQ(diff_reports(v2_report(), current).verdict, Verdict::kOk);
}

TEST(CompareTest, DeterministicMemGaugeChangeRegresses) {
  json::Value current = v2_report();
  const_cast<json::Value*>(
      current.at_path({"metrics", "gauges", "mem.wd_bytes"}))
      ->num = 99;
  const DiffResult res = diff_reports(v2_report(), current);
  EXPECT_EQ(res.verdict, Verdict::kRegress);
  bool found = false;
  for (const DiffEntry& e : res.entries)
    if (e.name == "mem.wd_bytes") {
      found = true;
      EXPECT_EQ(e.verdict, Verdict::kRegress);
    }
  EXPECT_TRUE(found);
}

TEST(CompareTest, V1BaselineDiffsAgainstV2Report) {
  // An old baseline parses against a new report; the only complaint is
  // the new deterministic gauge, pointing at a baseline regen.
  const DiffResult res = diff_reports(base_report(), v2_report());
  EXPECT_EQ(res.verdict, Verdict::kRegress);
  for (const DiffEntry& e : res.entries)
    if (e.verdict != Verdict::kOk) {
      EXPECT_EQ(e.name, "mem.wd_bytes");
    }
}

TEST(CompareTest, StripTimesDropsMemoryData) {
  const json::Value stripped = strip_times(v2_report());

  // Span memory deltas are per-build facts (requested sizes shift with
  // toolchain upgrades), so the byte-stable baseline drops them.
  const json::Value* plan = &stripped.find("trace")->array[0];
  EXPECT_EQ(plan->find("alloc_bytes"), nullptr);
  EXPECT_EQ(plan->find("freed_bytes"), nullptr);
  EXPECT_EQ(plan->find("peak_live_bytes"), nullptr);

  // The process-memory section and rss gauges go; deterministic
  // logical-size gauges stay (they ARE gated).
  EXPECT_EQ(stripped.at_path({"metrics", "memory"}), nullptr);
  EXPECT_EQ(stripped.at_path({"metrics", "gauges", "mem.peak_rss_bytes"}),
            nullptr);
  EXPECT_NE(stripped.at_path({"metrics", "gauges", "mem.wd_bytes"}), nullptr);

  EXPECT_EQ(json::serialize(strip_times(stripped)),
            json::serialize(stripped));
}

}  // namespace
}  // namespace lac::obs
