#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "bench89/suite.h"
#include "netlist/bench_io.h"
#include "netlist/generator.h"
#include "obs/analyze.h"
#include "obs/report.h"
#include "obs/span.h"
#include "obs/stream.h"
#include "planner/interconnect_planner.h"
#include "planner/plan_session.h"
#include "retime/constraints.h"
#include "retime/min_area.h"
#include "retime/wd_matrices.h"

namespace lac::planner {
namespace {

netlist::Netlist small_circuit(std::uint64_t seed = 17) {
  netlist::GenSpec spec;
  spec.name = "plan_small";
  spec.num_gates = 90;
  spec.num_dffs = 12;
  spec.num_inputs = 6;
  spec.num_outputs = 6;
  spec.depth = 7;
  spec.seed = seed;
  return netlist::generate_netlist(spec);
}

PlannerConfig fast_config() {
  PlannerConfig cfg;
  cfg.num_blocks = 5;
  cfg.run.seed = 11;
  cfg.fp_opt.sa_moves_per_block = 150;  // keep tests quick
  return cfg;
}

TEST(Planner, TimingLandmarksOrdered) {
  const auto nl = small_circuit();
  InterconnectPlanner planner(fast_config());
  const auto res = planner.plan(nl, PlanOptions{}).front();
  EXPECT_GT(res.t_min_ps, 0.0);
  EXPECT_LE(res.t_min_ps, res.t_clk_ps + 1e-9);
  EXPECT_LE(res.t_clk_ps, res.t_init_ps + 1e-9);
}

TEST(Planner, BothRetimingsMeetClock) {
  const auto nl = small_circuit();
  InterconnectPlanner planner(fast_config());
  const auto res = planner.plan(nl, PlanOptions{}).front();
  EXPECT_TRUE(res.graph.is_legal_retiming(res.min_area.r));
  EXPECT_TRUE(res.graph.is_legal_retiming(res.lac.r));
  EXPECT_LE(res.graph.period_after_ps(res.min_area.r), res.t_clk_ps + 0.06);
  EXPECT_LE(res.graph.period_after_ps(res.lac.r), res.t_clk_ps + 0.06);
}

TEST(Planner, LacNeverMoreViolationsThanMinArea) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const auto nl = small_circuit(seed);
    InterconnectPlanner planner(fast_config());
    const auto res = planner.plan(nl, PlanOptions{}).front();
    EXPECT_LE(res.lac.report.n_foa, res.min_area.report.n_foa)
        << "seed " << seed;
  }
}

TEST(Planner, MinAreaBaselineHasMinimalTotalCount) {
  const auto nl = small_circuit();
  InterconnectPlanner planner(fast_config());
  const auto res = planner.plan(nl, PlanOptions{}).front();
  // Plain min-area optimises exactly N_F, so LAC can only match or exceed.
  EXPECT_LE(res.min_area.report.n_f, res.lac.report.n_f);
}

TEST(Planner, ConstraintPruningReported) {
  const auto nl = small_circuit();
  InterconnectPlanner planner(fast_config());
  const auto res = planner.plan(nl, PlanOptions{}).front();
  EXPECT_GT(res.clock_constraints, 0u);
  EXPECT_LE(res.clock_constraints, res.clock_constraints_unpruned);
}

TEST(Planner, DeterministicForSeed) {
  const auto nl = small_circuit();
  InterconnectPlanner planner(fast_config());
  const auto a = planner.plan(nl, PlanOptions{}).front();
  const auto b = planner.plan(nl, PlanOptions{}).front();
  EXPECT_EQ(a.t_clk_ps, b.t_clk_ps);
  EXPECT_EQ(a.min_area.report.n_f, b.min_area.report.n_f);
  EXPECT_EQ(a.lac.report.n_foa, b.lac.report.n_foa);
  EXPECT_EQ(a.lac.r, b.lac.r);
}

TEST(Planner, GraphContainsInterconnectUnitsForSpreadCircuits) {
  const auto nl = small_circuit();
  InterconnectPlanner planner(fast_config());
  const auto res = planner.plan(nl, PlanOptions{}).front();
  EXPECT_GT(res.interconnect_units, 0);
  EXPECT_EQ(res.graph.num_interconnect_units(), res.interconnect_units);
}

TEST(Planner, ReplanOnlyWhenViolationsRemain) {
  const auto nl = small_circuit();
  InterconnectPlanner planner(fast_config());
  PlanOptions opts;
  opts.max_iterations = 2;
  const auto results = planner.plan(nl, opts);
  const auto& res = results.front();
  if (res.lac.report.fits()) {
    EXPECT_EQ(results.size(), 1u);
  } else {
    ASSERT_EQ(results.size(), 2u);
    EXPECT_LE(results[1].lac.report.n_foa, res.lac.report.n_foa);
    EXPECT_GE(results[1].fp.chip.area(), res.fp.chip.area() * 0.9);
  }
}

// Iteration 2 of plan() is an expand_blocks() ECO on the session the first
// iteration opened, and so equals a cold plan of the expanded floorplan.
TEST(Planner, ExpansionIterationIsAnExpandBlocksEco) {
  const auto nl = small_circuit();
  PlannerConfig cfg = fast_config();
  cfg.dff_provision_factor = 0.2;  // under-provisioned: iteration 1 violates
  const auto results =
      InterconnectPlanner(cfg).plan(nl, PlanOptions{.max_iterations = 2});
  ASSERT_FALSE(results.front().lac.report.fits());
  ASSERT_EQ(results.size(), 2u);

  PlanSession session(nl, cfg);
  session.begin_eco();
  session.expand_blocks();
  const PlanResult& second = session.end_eco();
  const PlanResult cold = session.replan_cold();
  for (const PlanResult* r : {&second, &cold}) {
    EXPECT_EQ(r->fp.placement, results[1].fp.placement);
    EXPECT_EQ(r->t_clk_ps, results[1].t_clk_ps);
    EXPECT_EQ(r->min_area.r, results[1].min_area.r);
    EXPECT_EQ(r->lac.r, results[1].lac.r);
    EXPECT_EQ(r->lac.report.n_foa, results[1].lac.report.n_foa);
  }

  // Once a result fits, expand_blocks() has nothing to expand.
  cfg.dff_provision_factor = 1.0;
  PlanSession fitting(nl, cfg);
  if (fitting.result().lac.report.fits()) {
    const PlanResult first = fitting.result();
    fitting.begin_eco();
    fitting.expand_blocks();
    EXPECT_EQ(fitting.end_eco().fp.placement, first.fp.placement);
    EXPECT_EQ(fitting.last_eco().invalidated_nets, 0);
  }
}

// The min-area baseline is LAC round 1; the library's plain
// min_area_retiming() on the result's own graph and constraints is the
// oracle for it.
void expect_baseline_is_min_area(const PlanResult& res,
                                 const PlannerConfig& cfg,
                                 const std::string& what) {
  const auto wd = retime::WdMatrices::compute(res.graph);
  const auto cs = retime::build_constraints(res.graph, wd,
                                            retime::to_decips(res.t_clk_ps));
  const auto r = retime::min_area_retiming(res.graph, cs);
  ASSERT_TRUE(r.has_value()) << what;
  EXPECT_EQ(res.min_area.r, *r) << what;
  const auto rep =
      retime::place_flipflops(res.graph, *res.grid, *r, cfg.tech.dff_area);
  EXPECT_EQ(res.min_area.report.ac, rep.ac) << what;
  EXPECT_EQ(res.min_area.report.n_f, rep.n_f) << what;
  EXPECT_EQ(res.min_area.report.n_fn, rep.n_fn) << what;
  EXPECT_EQ(res.min_area.report.n_foa, rep.n_foa) << what;
  EXPECT_EQ(res.min_area.report.tiles_violating, rep.tiles_violating) << what;
  EXPECT_EQ(res.min_area.report.worst_overflow, rep.worst_overflow) << what;
  EXPECT_EQ(res.min_area.n_wr, 1) << what;
  EXPECT_TRUE(res.min_area.rounds.empty()) << what;
}

// A cold plan, and an ECO re-plan of it.
TEST(Planner, MinAreaBaselineMatchesMinAreaRetiming) {
  for (const char* circuit : {"y298", "y386", "y400"}) {
    const auto& entry = bench89::entry_by_name(circuit);
    const auto nl = bench89::load(entry);
    PlannerConfig cfg;
    cfg.run.seed = 7;
    cfg.num_blocks = entry.recommended_blocks;
    const std::string what = circuit;
    PlanSession session(nl, cfg);  // the cold plan plan() returns
    expect_baseline_is_min_area(session.result(), cfg, what + " plan");
    session.begin_eco();
    session.scale_channel_capacity(0.9);  // constraints unchanged
    const PlanResult& eco = session.end_eco();
    expect_baseline_is_min_area(eco, cfg, what + " end_eco()");
  }
}

TEST(Planner, HardBlocksSupported) {
  const auto nl = small_circuit();
  PlannerConfig cfg = fast_config();
  cfg.hard_block_fraction = 0.4;
  InterconnectPlanner planner(cfg);
  const auto res = planner.plan(nl, PlanOptions{}).front();
  int hard = 0;
  for (const auto& b : res.fp.blocks) hard += b.hard;
  EXPECT_GT(hard, 0);
  // Pipeline still sound.
  EXPECT_LE(res.graph.period_after_ps(res.lac.r), res.t_clk_ps + 0.06);
}

TEST(Planner, S27EndToEnd) {
  const auto nl = bench89::s27();
  PlannerConfig cfg = fast_config();
  cfg.num_blocks = 3;
  InterconnectPlanner planner(cfg);
  const auto res = planner.plan(nl, PlanOptions{}).front();
  EXPECT_GT(res.t_init_ps, 0.0);
  EXPECT_TRUE(res.graph.is_legal_retiming(res.lac.r));
}

TEST(Planner, PlanEmitsStageSpansAndConvergenceHistory) {
  const auto nl = small_circuit();
  PlannerConfig cfg = fast_config();
  cfg.run.observability = obs::Override::kOn;  // independent of LAC_OBS
  InterconnectPlanner planner(cfg);
  obs::reset();  // drop other tests' traces
  const auto res = planner.plan(nl, PlanOptions{}).front();

  const auto roots = obs::trace_from_report(obs::build_report("planner"));
  ASSERT_EQ(roots.size(), 1u);
  const obs::SpanNode& plan = roots[0];
  EXPECT_EQ(plan.name, "planner.plan");
  ASSERT_NE(plan.find_child("stage.partition"), nullptr);
  ASSERT_NE(plan.find_child("stage.floorplan"), nullptr);
  const obs::SpanNode* iter = plan.find_child("planner.iteration");
  ASSERT_NE(iter, nullptr);
  for (const char* stage :
       {"stage.tile_grid", "stage.collapse_nets", "stage.global_route",
        "stage.repeaters", "stage.build_graph", "stage.timing",
        "stage.lac_retiming"})
    EXPECT_NE(iter->find_child(stage), nullptr) << stage;

  // The timing stage splits into W/D, the min-period search and the
  // constraints at T_clk, in that order.
  const obs::SpanNode* timing = iter->find_child("stage.timing");
  ASSERT_NE(timing, nullptr);
  std::vector<std::string> timing_parts;
  for (const auto& c : timing->children) timing_parts.push_back(c.name);
  EXPECT_EQ(timing_parts,
            (std::vector<std::string>{"timing.wd", "timing.min_period",
                                      "timing.constraints"}));

  // The LAC stage nests the retimer's own span with per-round children.
  const obs::SpanNode* lac_stage = iter->find_child("stage.lac_retiming");
  ASSERT_NE(lac_stage, nullptr);
  const obs::SpanNode* lac = lac_stage->find_child("lac.retiming");
  ASSERT_NE(lac, nullptr);
  int lac_rounds = 0;
  for (const auto& c : lac->children) lac_rounds += (c.name == "lac.round");
  EXPECT_EQ(lac_rounds, res.lac.n_wr);

  // The result mirrors the trace: per-round history sized by n_wr, with
  // the baseline outcome — LAC round 1 — carrying none.
  EXPECT_EQ(static_cast<int>(res.lac.rounds.size()), res.lac.n_wr);
  EXPECT_TRUE(res.min_area.rounds.empty());
  EXPECT_EQ(res.min_area.n_wr, 1);
  ASSERT_FALSE(res.lac.rounds.empty());
  EXPECT_EQ(res.min_area.report.n_foa, res.lac.rounds.front().n_foa);
  EXPECT_EQ(res.min_area.report.n_f, res.lac.rounds.front().n_f);
  EXPECT_EQ(res.min_area.exec_seconds, res.lac.rounds.front().solve_seconds);
}

TEST(Planner, ObservabilityOffSuppressesTracing) {
  const auto nl = small_circuit();
  PlannerConfig cfg = fast_config();
  cfg.run.observability = obs::Override::kOff;
  InterconnectPlanner planner(cfg);
  obs::reset();
  const auto res = planner.plan(nl, PlanOptions{}).front();
  EXPECT_TRUE(obs::build_report("planner").find("trace")->array.empty());
  // Timings still come through: Span doubles as the flow's stopwatch.
  EXPECT_GE(res.lac.exec_seconds, 0.0);
  EXPECT_EQ(static_cast<int>(res.lac.rounds.size()), res.lac.n_wr);
}

// A legal netlist with fewer cells than blocks is rejected before
// partitioning, with a message naming both counts.
TEST(Planner, RejectsNetlistWithFewerCellsThanBlocks) {
  const auto nl = netlist::parse_bench(
      "INPUT(a)\nOUTPUT(q)\nq = DFF(g)\ng = NOT(a)\n", "tiny");
  PlannerConfig cfg = fast_config();
  cfg.num_blocks = 9;
  ASSERT_LT(nl.num_cells(), cfg.num_blocks);
  const InterconnectPlanner planner(cfg);
  try {
    (void)planner.plan(nl, PlanOptions{});
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(std::to_string(nl.num_cells()) +
                        " partitionable cells"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("num_blocks = 9"), std::string::npos) << what;
  }
}

// An unwritable RunControls::stream_path fails the call before planning,
// naming the path, instead of planning without a stream.
TEST(Planner, UnwritableStreamPathFailsBeforePlanning) {
  // A regular file as a path component defeats directory creation even
  // for root, unlike permission bits.
  const std::string blocker = ::testing::TempDir() + "/planner_stream_blocker";
  {
    std::ofstream f(blocker);
    f << "not a directory\n";
  }
  PlannerConfig cfg = fast_config();
  cfg.run.stream_path = blocker + "/sub/stream.jsonl";
  const InterconnectPlanner planner(cfg);
  try {
    (void)planner.plan(small_circuit(), PlanOptions{});
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(cfg.run.stream_path),
              std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(obs::stream::active());
}

TEST(Planner, TclkFollowsSlackFraction) {
  const auto nl = small_circuit();
  PlannerConfig cfg = fast_config();
  cfg.clock_slack_fraction = 0.0;
  InterconnectPlanner p0(cfg);
  const auto r0 = p0.plan(nl, PlanOptions{}).front();
  EXPECT_NEAR(r0.t_clk_ps, r0.t_min_ps, 1e-9);
  cfg.clock_slack_fraction = 1.0;
  InterconnectPlanner p1(cfg);
  const auto r1 = p1.plan(nl, PlanOptions{}).front();
  EXPECT_NEAR(r1.t_clk_ps, r1.t_init_ps, 1e-9);
}

}  // namespace
}  // namespace lac::planner
