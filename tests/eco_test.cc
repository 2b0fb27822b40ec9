// PlanSession ECO tests: the journaled delta API and its hard guarantee —
// an incremental end_eco() re-plan is bit-identical (in every quality
// output) to a cold re-plan of the same edited inputs, while the EcoStats
// counters prove it did less work.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "base/check.h"
#include "netlist/generator.h"
#include "planner/interconnect_planner.h"
#include "planner/plan_session.h"

namespace lac::planner {
namespace {

netlist::Netlist eco_circuit(std::uint64_t seed = 17) {
  netlist::GenSpec spec;
  spec.name = "eco_small";
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

// Bitwise equality of every deterministic quality output.  Wall-clock and
// solver-effort fields (exec_seconds, constraint_gen_seconds, and the
// phases/augmentations/warm/solve_seconds entries of
// LacRoundStats) are excluded: reuse changes how *hard* the pipeline works,
// never what it produces.
void expect_results_equal(const PlanResult& a, const PlanResult& b) {
  EXPECT_EQ(a.block_of, b.block_of);
  ASSERT_EQ(a.fp.blocks.size(), b.fp.blocks.size());
  for (std::size_t i = 0; i < a.fp.blocks.size(); ++i)
    EXPECT_EQ(a.fp.placement[i], b.fp.placement[i]) << "block " << i;
  EXPECT_EQ(a.t_init_ps, b.t_init_ps);
  EXPECT_EQ(a.t_min_ps, b.t_min_ps);
  EXPECT_EQ(a.t_clk_ps, b.t_clk_ps);
  EXPECT_EQ(a.clock_constraints, b.clock_constraints);
  EXPECT_EQ(a.clock_constraints_unpruned, b.clock_constraints_unpruned);
  EXPECT_EQ(a.graph.num_vertices(), b.graph.num_vertices());
  EXPECT_EQ(a.interconnect_units, b.interconnect_units);
  EXPECT_EQ(a.repeaters, b.repeaters);

  EXPECT_EQ(a.routing.total_wirelength_um, b.routing.total_wirelength_um);
  EXPECT_EQ(a.routing.overflowed_edges, b.routing.overflowed_edges);
  EXPECT_EQ(a.routing.max_usage, b.routing.max_usage);
  EXPECT_EQ(a.routing.ripup_rounds_used, b.routing.ripup_rounds_used);
  EXPECT_EQ(a.routing.nets_routed, b.routing.nets_routed);
  EXPECT_EQ(a.routing.nets_rerouted, b.routing.nets_rerouted);
  EXPECT_EQ(a.routing.usage_histogram, b.routing.usage_histogram);

  const auto expect_outcome_equal = [](const RetimingOutcome& x,
                                       const RetimingOutcome& y,
                                       const char* which) {
    EXPECT_EQ(x.r, y.r) << which;
    EXPECT_EQ(x.n_wr, y.n_wr) << which;
    EXPECT_EQ(x.report.ac, y.report.ac) << which;
    EXPECT_EQ(x.report.n_f, y.report.n_f) << which;
    EXPECT_EQ(x.report.n_fn, y.report.n_fn) << which;
    EXPECT_EQ(x.report.n_foa, y.report.n_foa) << which;
    EXPECT_EQ(x.report.tiles_violating, y.report.tiles_violating) << which;
    EXPECT_EQ(x.report.worst_overflow, y.report.worst_overflow) << which;
    ASSERT_EQ(x.rounds.size(), y.rounds.size()) << which;
    for (std::size_t i = 0; i < x.rounds.size(); ++i) {
      const auto& p = x.rounds[i];
      const auto& q = y.rounds[i];
      EXPECT_EQ(p.round, q.round) << which << " round " << i;
      EXPECT_EQ(p.n_foa, q.n_foa) << which << " round " << i;
      EXPECT_EQ(p.n_f, q.n_f) << which << " round " << i;
      EXPECT_EQ(p.best_n_foa, q.best_n_foa) << which << " round " << i;
      EXPECT_EQ(p.max_overflow, q.max_overflow) << which << " round " << i;
      EXPECT_EQ(p.weight_lo, q.weight_lo) << which << " round " << i;
      EXPECT_EQ(p.weight_hi, q.weight_hi) << which << " round " << i;
      EXPECT_EQ(p.improved, q.improved) << which << " round " << i;
    }
  };
  expect_outcome_equal(a.min_area, b.min_area, "min_area");
  expect_outcome_equal(a.lac, b.lac, "lac");
}

TEST(Eco, EmptyJournalIsNoOp) {
  const auto nl = eco_circuit();
  PlanSession session(nl, fast_config());
  const PlanResult before = session.result();

  session.begin_eco();
  const PlanResult& after = session.end_eco();

  expect_results_equal(before, after);
  const EcoStats& eco = session.last_eco();
  EXPECT_EQ(eco.invalidated_nets, 0);
  EXPECT_EQ(eco.cold_routes, 0);
  EXPECT_GT(eco.reused_routes, 0);
  // W/D rows are swept on demand, so every re-plan sweeps all of them.
  EXPECT_GT(eco.wd_rows_total, 0);
  EXPECT_EQ(eco.wd_rows_rebuilt, eco.wd_rows_total);
  EXPECT_FALSE(eco.route_full_fallback);
}

TEST(Eco, CapacityScaleEquivalentToCold) {
  const auto nl = eco_circuit();
  PlanSession session(nl, fast_config());

  session.begin_eco();
  session.scale_block_capacity(0, 0.7);
  session.scale_channel_capacity(0.9);
  const PlanResult& eco_res = session.end_eco();

  const PlanResult cold = session.replan_cold();
  expect_results_equal(cold, eco_res);
  const EcoStats& eco = session.last_eco();
  // Capacity is an insertion-area property: route requests are untouched.
  EXPECT_EQ(eco.invalidated_nets, 0);
  EXPECT_GT(eco.reused_routes, 0);
  EXPECT_EQ(eco.cold_routes, 0);
  // The re-plan solves LAC exactly as the cold plan does, effort included:
  // no min-cost flow is carried across plans.
  ASSERT_EQ(eco_res.lac.rounds.size(), cold.lac.rounds.size());
  for (std::size_t i = 0; i < cold.lac.rounds.size(); ++i) {
    const auto& p = eco_res.lac.rounds[i];
    const auto& q = cold.lac.rounds[i];
    EXPECT_EQ(p.augmentations, q.augmentations) << "round " << i;
    EXPECT_EQ(p.phases, q.phases) << "round " << i;
    EXPECT_EQ(p.warm, q.warm) << "round " << i;
  }
}

TEST(Eco, CellResizeTouchingZeroRoutes) {
  const auto nl = eco_circuit();
  PlanSession session(nl, fast_config());
  // Resize a mid-netlist gate: block used-area shifts, no route request
  // changes (cells sit at block centres).
  std::string victim;
  for (const auto c : session.netlist().cells())
    if (session.netlist().type(c) == netlist::CellType::kAnd ||
        session.netlist().type(c) == netlist::CellType::kNand) {
      victim = session.netlist().cell_name(c);
      break;
    }
  ASSERT_FALSE(victim.empty());

  session.begin_eco();
  session.resize_cell(victim, 1.5);
  const PlanResult& eco_res = session.end_eco();

  expect_results_equal(session.replan_cold(), eco_res);
  EXPECT_EQ(session.last_eco().invalidated_nets, 0);
  EXPECT_GT(session.last_eco().reused_routes, 0);
}

TEST(Eco, BufferInsertionForcesLacColdFallbackButStaysEquivalent) {
  const auto nl = eco_circuit();
  PlanSession session(nl, fast_config());
  // Pick a DFF-free gate->gate connection to buffer.
  const auto& snl = session.netlist();
  std::string driver, sink;
  for (const auto c : snl.cells()) {
    if (!netlist::is_combinational(snl.type(c))) continue;
    for (const auto f : snl.fanins(c))
      if (netlist::is_combinational(snl.type(f))) {
        driver = snl.cell_name(f);
        sink = snl.cell_name(c);
        break;
      }
    if (!driver.empty()) break;
  }
  ASSERT_FALSE(driver.empty());

  session.begin_eco();
  session.add_buffer("eco_buf0", driver, sink);
  const PlanResult& eco_res = session.end_eco();

  expect_results_equal(session.replan_cold(), eco_res);
}

TEST(Eco, AddAndRemoveCellsEquivalentToCold) {
  const auto nl = eco_circuit();
  PlanSession session(nl, fast_config());
  const auto& snl = session.netlist();
  // A buffer cell is removable (single fanin, fanouts bypassed).
  std::string removable;
  for (const auto c : snl.cells())
    if (snl.type(c) == netlist::CellType::kBuf &&
        snl.fanins(c).size() == 1 && !snl.fanouts(c).empty()) {
      removable = snl.cell_name(c);
      break;
    }
  std::string fanin_name;
  for (const auto c : snl.cells())
    if (netlist::is_combinational(snl.type(c))) {
      fanin_name = snl.cell_name(c);
      break;
    }
  ASSERT_FALSE(fanin_name.empty());

  session.begin_eco();
  (void)session.add_cell("eco_new0", netlist::CellType::kNot, 2, {fanin_name});
  if (!removable.empty()) session.remove_cell(removable);
  const PlanResult& eco_res = session.end_eco();

  expect_results_equal(session.replan_cold(), eco_res);
}

// A rejected edit leaves the session as it was: the next end_eco() equals
// that of a session that never saw the bad edit, and both equal a cold
// re-plan.
void expect_rejected_edit_leaves_no_trace(
    const std::function<void(PlanSession&)>& bad_edit) {
  const auto nl = eco_circuit();
  PlanSession session(nl, fast_config());
  PlanSession clean(nl, fast_config());
  const int cells = session.netlist().num_cells();

  session.begin_eco();
  EXPECT_THROW(bad_edit(session), CheckError);
  EXPECT_EQ(session.netlist().num_cells(), cells);
  EXPECT_FALSE(session.netlist().find("eco_bad").has_value());
  EXPECT_FALSE(session.netlist().validate().has_value());
  session.scale_block_capacity(0, 0.8);
  const PlanResult& res = session.end_eco();

  clean.begin_eco();
  clean.scale_block_capacity(0, 0.8);
  expect_results_equal(clean.end_eco(), res);
  expect_results_equal(session.replan_cold(), res);
  EXPECT_EQ(session.netlist().num_cells(), cells);
}

TEST(Eco, AddCellWithUnknownFaninLeavesSessionUnchanged) {
  expect_rejected_edit_leaves_no_trace([](PlanSession& s) {
    const auto& snl = s.netlist();
    std::string known;
    for (const auto c : snl.cells())
      if (netlist::is_combinational(snl.type(c))) {
        known = snl.cell_name(c);
        break;
      }
    ASSERT_FALSE(known.empty());
    // The known fanin comes first: it must not be connected either.
    (void)s.add_cell("eco_bad", netlist::CellType::kAnd, 1,
                     {known, "no_such_cell"});
  });
}

TEST(Eco, BufferOnMissingConnectionLeavesSessionUnchanged) {
  expect_rejected_edit_leaves_no_trace([](PlanSession& s) {
    // Two existing cells where the first does not drive the second.
    const auto& snl = s.netlist();
    std::string driver, sink;
    for (const auto c : snl.cells()) {
      if (!netlist::is_combinational(snl.type(c))) continue;
      for (const auto d : snl.cells()) {
        const auto fi = snl.fanins(c);
        if (d != c && std::find(fi.begin(), fi.end(), d) == fi.end()) {
          driver = snl.cell_name(d);
          sink = snl.cell_name(c);
          break;
        }
      }
      if (!driver.empty()) break;
    }
    ASSERT_FALSE(driver.empty());
    (void)s.add_buffer("eco_bad", driver, sink);
  });
}

TEST(Eco, BufferWithUnknownNamesLeavesSessionUnchanged) {
  expect_rejected_edit_leaves_no_trace([](PlanSession& s) {
    (void)s.add_buffer("eco_bad", "no_such_driver", "no_such_sink");
  });
}

TEST(Eco, ResizeBlockEquivalentToCold) {
  const auto nl = eco_circuit();
  PlanSession session(nl, fast_config());
  // Grow block 1 by 8%: in-place when free space allows (routes of
  // untouched nets stay reusable), incremental re-floorplan otherwise.
  const double area = session.result().fp.blocks[1].area;

  session.begin_eco();
  session.resize_block(1, area * 1.08);
  const PlanResult& eco_res = session.end_eco();

  expect_results_equal(session.replan_cold(), eco_res);
}

TEST(Eco, TwoStackedEcosEqualOneCombinedEco) {
  const auto nl = eco_circuit();
  PlanSession stacked(nl, fast_config());
  stacked.begin_eco();
  stacked.scale_block_capacity(0, 0.8);
  (void)stacked.end_eco();
  stacked.begin_eco();
  stacked.scale_channel_capacity(0.9);
  const PlanResult& two = stacked.end_eco();

  PlanSession combined(nl, fast_config());
  combined.begin_eco();
  combined.scale_block_capacity(0, 0.8);
  combined.scale_channel_capacity(0.9);
  const PlanResult& one = combined.end_eco();

  expect_results_equal(one, two);
}

TEST(Eco, DeterministicAcrossThreadCounts) {
  const auto nl = eco_circuit();
  std::optional<PlanResult> reference;
  for (const int threads : {1, 4}) {
    PlannerConfig cfg = fast_config();
    cfg.run.exec.threads = threads;
    PlanSession session(nl, cfg);
    session.begin_eco();
    session.scale_block_capacity(0, 0.75);
    const PlanResult& res = session.end_eco();
    if (!reference.has_value()) {
      reference = res;
    } else {
      expect_results_equal(*reference, res);
    }
  }
}

TEST(Eco, JournalParserAcceptsEveryForm) {
  const std::string text =
      "# an ECO journal\n"
      "resize_block 1 12000.5\n"
      "scale_capacity 0 0.8\n"
      "scale_capacity channel 1.25  # trailing comment\n"
      "resize_cell g17 1.5\n"
      "add_cell eco_n0 not 2 g3\n"
      "add_cell eco_a0 and 1 g3 g5\n"
      "remove_cell buf4\n"
      "buffer eco_b0 g3 g9\n"
      "\n"
      "expand_blocks\n";
  std::string error;
  const auto edits = parse_eco_journal(text, &error);
  ASSERT_TRUE(edits.has_value()) << error;
  ASSERT_EQ(edits->size(), 9u);
  EXPECT_EQ((*edits)[0].kind, EcoEdit::Kind::kResizeBlock);
  EXPECT_EQ((*edits)[0].block, 1);
  EXPECT_EQ((*edits)[0].value, 12000.5);
  EXPECT_EQ((*edits)[1].kind, EcoEdit::Kind::kScaleBlockCapacity);
  EXPECT_EQ((*edits)[2].kind, EcoEdit::Kind::kScaleChannelCapacity);
  EXPECT_EQ((*edits)[2].value, 1.25);
  EXPECT_EQ((*edits)[3].kind, EcoEdit::Kind::kResizeCell);
  EXPECT_EQ((*edits)[3].name, "g17");
  EXPECT_EQ((*edits)[4].kind, EcoEdit::Kind::kAddCell);
  EXPECT_EQ((*edits)[4].cell_type, netlist::CellType::kNot);
  EXPECT_EQ((*edits)[4].fanins, std::vector<std::string>{"g3"});
  ASSERT_EQ((*edits)[5].fanins.size(), 2u);
  EXPECT_EQ((*edits)[6].kind, EcoEdit::Kind::kRemoveCell);
  EXPECT_EQ((*edits)[7].kind, EcoEdit::Kind::kBuffer);
  EXPECT_EQ((*edits)[7].driver, "g3");
  EXPECT_EQ((*edits)[7].sink, "g9");
  EXPECT_EQ((*edits)[8].kind, EcoEdit::Kind::kExpandBlocks);
}

TEST(Eco, JournalParserRejectsMalformedLines) {
  const char* bad[] = {
      "resize_block 1",            // missing area
      "resize_block one 100",      // non-integer block
      "scale_capacity 0",          // missing factor
      "add_cell x badtype 0",      // unknown cell type
      "teleport_block 3",          // unknown op
      "expand_blocks now",         // trailing token
  };
  for (const char* text : bad) {
    std::string error;
    EXPECT_FALSE(parse_eco_journal(text, &error).has_value()) << text;
    EXPECT_EQ(error.rfind("line 1:", 0), 0u) << error;
  }
}

TEST(Eco, ParsedJournalAppliesAndMatchesCold) {
  const auto nl = eco_circuit();
  PlanSession session(nl, fast_config());
  std::string error;
  const auto edits = parse_eco_journal(
      "scale_capacity 0 0.85\nscale_capacity channel 0.95\n", &error);
  ASSERT_TRUE(edits.has_value()) << error;

  session.begin_eco();
  for (const auto& e : *edits) session.apply(e);
  const PlanResult& eco_res = session.end_eco();
  expect_results_equal(session.replan_cold(), eco_res);
}

}  // namespace
}  // namespace lac::planner
