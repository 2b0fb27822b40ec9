// Thread-count invariance of the whole planning pipeline: for Table-1
// circuits, every PlanResult counter, both retimings' register placements,
// and the structured run report (with wall-clock fields stripped) must be
// byte-identical whether the pipeline runs on 1, 2, or 8 threads.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "bench89/suite.h"
#include "lac_reference.h"
#include "obs/obs.h"
#include "obs/report.h"
#include "obs/span.h"
#include "planner/interconnect_planner.h"
#include "retime/constraints.h"
#include "retime/wd_matrices.h"

namespace lac::planner {
namespace {

// Drops every object member whose key mentions wall-clock time ("seconds"
// span fields, "*_seconds" metric names) or the resident set ("rss" —
// machine-dependent, like timings); all other structure, order and values
// are preserved.  Span allocation deltas (alloc_bytes etc.) are
// deliberately KEPT: their thread-count invariance is part of what this
// test asserts.
obs::json::Value strip_times(const obs::json::Value& v) {
  obs::json::Value out = v;
  out.array.clear();
  out.object.clear();
  for (const auto& e : v.array) out.array.push_back(strip_times(e));
  for (const auto& [key, val] : v.object) {
    if (key.find("seconds") != std::string::npos) continue;
    if (key.find("rss") != std::string::npos) continue;
    out.object.emplace_back(key, strip_times(val));
  }
  return out;
}

struct Snapshot {
  PlanResult res;
  std::string report;  // serialized, time-stripped
};

Snapshot run_plan(const char* circuit, int threads) {
  const auto& entry = bench89::entry_by_name(circuit);
  const auto nl = bench89::load(entry);
  obs::ScopedEnable on(true);
  obs::reset();

  PlannerConfig cfg;
  cfg.run.seed = 7;
  cfg.run.exec.threads = threads;
  cfg.num_blocks = entry.recommended_blocks;
  const InterconnectPlanner planner(cfg);

  Snapshot snap{planner.plan(nl, PlanOptions{}).front(),
                obs::json::serialize(
                    strip_times(obs::build_report("determinism")))};
  return snap;
}

void expect_identical_results(const PlanResult& x, const PlanResult& y) {
  // Timing landmarks and constraint counts, bit-exact.
  EXPECT_EQ(x.t_init_ps, y.t_init_ps);
  EXPECT_EQ(x.t_min_ps, y.t_min_ps);
  EXPECT_EQ(x.t_clk_ps, y.t_clk_ps);
  EXPECT_EQ(x.clock_constraints, y.clock_constraints);
  EXPECT_EQ(x.clock_constraints_unpruned, y.clock_constraints_unpruned);

  // Routing is speculative under threads but must commit identically.
  EXPECT_EQ(x.routing.total_wirelength_um, y.routing.total_wirelength_um);
  EXPECT_EQ(x.routing.overflowed_edges, y.routing.overflowed_edges);
  EXPECT_EQ(x.routing.max_usage, y.routing.max_usage);
  EXPECT_EQ(x.routing.nets_rerouted, y.routing.nets_rerouted);
  EXPECT_EQ(x.routing.ripup_rounds_used, y.routing.ripup_rounds_used);
  EXPECT_EQ(x.routing.usage_histogram, y.routing.usage_histogram);
  EXPECT_EQ(x.repeaters, y.repeaters);
  EXPECT_EQ(x.interconnect_units, y.interconnect_units);

  // Both retimings: the full retiming vectors and area accounting.
  EXPECT_EQ(x.min_area.r, y.min_area.r);
  EXPECT_EQ(x.lac.r, y.lac.r);
  EXPECT_EQ(x.min_area.report.n_foa, y.min_area.report.n_foa);
  EXPECT_EQ(x.min_area.report.n_f, y.min_area.report.n_f);
  EXPECT_EQ(x.min_area.report.n_fn, y.min_area.report.n_fn);
  EXPECT_EQ(x.lac.report.n_foa, y.lac.report.n_foa);
  EXPECT_EQ(x.lac.report.n_f, y.lac.report.n_f);
  EXPECT_EQ(x.lac.report.n_fn, y.lac.report.n_fn);
  EXPECT_EQ(x.lac.report.ac, y.lac.report.ac);
  EXPECT_EQ(x.lac.n_wr, y.lac.n_wr);

  // Per-round LAC quality trajectory (effort fields — augmentations,
  // warm, times — are allowed to differ between solver modes).
  ASSERT_EQ(x.lac.rounds.size(), y.lac.rounds.size());
  for (std::size_t i = 0; i < x.lac.rounds.size(); ++i) {
    EXPECT_EQ(x.lac.rounds[i].n_foa, y.lac.rounds[i].n_foa);
    EXPECT_EQ(x.lac.rounds[i].n_f, y.lac.rounds[i].n_f);
    EXPECT_EQ(x.lac.rounds[i].best_n_foa, y.lac.rounds[i].best_n_foa);
    EXPECT_EQ(x.lac.rounds[i].improved, y.lac.rounds[i].improved);
  }
}

void expect_identical(const Snapshot& a, const Snapshot& b,
                      const char* circuit, int threads) {
  SCOPED_TRACE(std::string(circuit) + " @ " + std::to_string(threads) +
               " threads");
  expect_identical_results(a.res, b.res);

  // The whole observability record — span tree shape, annotations,
  // counters, histogram counts — byte-identical once times are stripped.
  EXPECT_EQ(a.report, b.report);
}

// The mem.* gauges from a stripped report (rss readings are already
// stripped as machine-dependent).
std::map<std::string, double> mem_gauges(const std::string& report) {
  std::map<std::string, double> out;
  const auto doc = obs::json::parse(report);
  if (!doc.has_value()) return out;
  if (const auto* g = doc->at_path({"metrics", "gauges"});
      g != nullptr && g->is_object())
    for (const auto& [k, v] : g->object)
      if (k.rfind("mem.", 0) == 0) out.emplace(k, v.num);
  return out;
}

class Determinism : public ::testing::TestWithParam<const char*> {};

TEST_P(Determinism, IdenticalAcrossThreadCounts) {
  const char* circuit = GetParam();
  const Snapshot base = run_plan(circuit, 1);
  EXPECT_FALSE(base.report.empty());
  for (const int w : {2, 8}) {
    const Snapshot got = run_plan(circuit, w);
    expect_identical(base, got, circuit, w);
  }
}

// The pipeline's LAC stage (one warm-started min-cost-flow session across
// rounds) must produce the planning result of the reference that re-solves
// every round on a fresh network from zero flow — at any thread count.
// The constraint system is rebuilt from each plan's graph at its T_clk and
// the reference is run on it; every retiming and quality field of both
// outcomes must match, round by round.
void expect_warm_matches_reference(const char* circuit) {
  for (const int w : {1, 4}) {
    SCOPED_TRACE(std::string(circuit) + " @ " + std::to_string(w) +
                 " threads");
    const Snapshot warm = run_plan(circuit, w);
    const PlanResult& res = warm.res;
    const auto wd = retime::WdMatrices::compute(res.graph);
    const auto cs = retime::build_constraints(
        res.graph, wd, retime::to_decips(res.t_clk_ps));
    PlannerConfig cfg;
    const retime::LacOptions opt = InterconnectPlanner(cfg).config().lac_opt;
    obs::ScopedEnable on(true);
    obs::reset();
    const retime::LacResult ref =
        test::lac_reference(res.graph, *res.grid, cs, opt);
    // The MCF network gauge is sampled when a network is built, before any
    // solve, so the fresh per-round networks report the session's value.
    const auto ref_mem = mem_gauges(
        obs::json::serialize(strip_times(obs::build_report("reference"))));
    ASSERT_EQ(ref_mem.count("mem.mcf_network_bytes"), 1u);
    EXPECT_EQ(mem_gauges(warm.report).at("mem.mcf_network_bytes"),
              ref_mem.at("mem.mcf_network_bytes"));

    retime::LacResult got;
    got.r = res.lac.r;
    got.report = res.lac.report;
    got.n_wr = res.lac.n_wr;
    got.met_all_constraints = res.lac.report.fits();
    got.tile_weight = ref.tile_weight;  // not part of a PlanResult
    got.rounds = res.lac.rounds;
    got.min_area_r = res.min_area.r;
    got.min_area_report = res.min_area.report;
    test::expect_same_lac_result(ref, got);
    for (std::size_t i = 1; i < got.rounds.size(); ++i)
      EXPECT_TRUE(got.rounds[i].warm) << "round " << i + 1;
  }
}

TEST_P(Determinism, WarmSolverMatchesColdSolver) {
  expect_warm_matches_reference(GetParam());
}

// The fourth circuit of the perf-gate subset (table1_main --limit 4).
TEST(Determinism, WarmSolverMatchesColdSolverOnY526) {
  expect_warm_matches_reference("y526");
}

// The min-period search's work counters are deterministic: present, and
// equal whether its constraint scans run on 1 or 4 threads.  A search that
// its starting bounds settle (y386: T_min = T_init) counts zero probes and
// zero relaxations.
TEST_P(Determinism, MinPeriodSearchCountersIndependentOfThreads) {
  const char* circuit = GetParam();
  std::map<int, std::pair<std::int64_t, std::int64_t>> seen;
  for (const int w : {1, 4}) {
    const auto report = obs::json::parse(run_plan(circuit, w).report);
    ASSERT_TRUE(report.has_value());
    const auto counter = [&](const char* name) -> std::int64_t {
      const auto* v = report->at_path({"metrics", "counters", name});
      EXPECT_NE(v, nullptr) << name << " " << w;
      return v != nullptr ? static_cast<std::int64_t>(v->num) : -1;
    };
    seen[w] = {counter("timing.period_probes"),
               counter("timing.spfa_relaxations")};
    EXPECT_EQ(seen[w].first > 0, seen[w].second > 0) << w;
  }
  EXPECT_EQ(seen[1], seen[4]);
}

INSTANTIATE_TEST_SUITE_P(Table1, Determinism,
                         ::testing::Values("y298", "y386", "y400"));

}  // namespace
}  // namespace lac::planner
