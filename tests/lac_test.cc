#include <gtest/gtest.h>

#include "floorplan/floorplanner.h"
#include "lac_reference.h"
#include "retime/lac_retimer.h"
#include "retime/min_area.h"
#include "retime/wd_matrices.h"
#include "tile/tile_grid.h"

namespace lac::retime {
namespace {

// A constructed scenario where plain min-area retiming violates a tiny
// tile but an equally-cheap alternative placement fits:
//
//   ring:  a --w2--> u --0--> b --w1--> a     (u is an interconnect unit)
//
// a sits in a tile with almost no capacity; u sits in a roomy channel.
// Min-area cost is the same wherever the registers sit on the a->u->b
// chain, so the weighted retimer can move them off a's tile.
struct Scenario {
  tile::TileGrid grid;
  RetimingGraph g;
  tile::TileId tight, roomy;
};

Scenario make_scenario() {
  static floorplan::Floorplan fp;
  fp.chip = Rect{{0, 0}, {200, 100}};
  fp.blocks.clear();
  fp.placement.clear();
  tile::TileGridOptions opt;
  opt.tile_size = 100;
  Scenario s{tile::TileGrid(fp, {}, opt), RetimingGraph{},
             tile::TileId::invalid(), tile::TileId::invalid()};
  s.tight = s.grid.tile_of_cell(0, 0);
  s.roomy = s.grid.tile_of_cell(1, 0);
  s.grid.consume(s.tight, s.grid.capacity(s.tight) - 10.0);  // ~no room
  const int a = s.g.add_vertex(VertexKind::kFunctional, 1.0, s.tight);
  const int u = s.g.add_vertex(VertexKind::kInterconnect, 1.0, s.roomy);
  const int b = s.g.add_vertex(VertexKind::kFunctional, 1.0, s.roomy);
  s.g.add_edge(a, u, 2);
  s.g.add_edge(u, b, 0);
  s.g.add_edge(b, a, 1);
  return s;
}

LacOptions ff50() {
  LacOptions opt;
  opt.ff_area = 50.0;
  return opt;
}

TEST(Lac, MovesRegistersOutOfTightTile) {
  auto s = make_scenario();
  const auto wd = WdMatrices::compute(s.g);
  const auto cs = build_constraints(s.g, wd, to_decips(10.0));  // loose clock

  // Plain min-area may (and with our solver does) leave registers on a's
  // out-edge; the point of the test is that LAC ends with zero violations.
  const auto lac = lac_retiming(s.g, s.grid, cs, ff50());
  EXPECT_TRUE(lac.met_all_constraints);
  EXPECT_EQ(lac.report.n_foa, 0);
  EXPECT_LE(lac.report.ac[s.tight.index()], s.grid.capacity(s.tight) + 1e-9);
  EXPECT_TRUE(s.g.is_legal_retiming(lac.r));
}

TEST(Lac, NeverWorseThanMinAreaOnViolations) {
  auto s = make_scenario();
  const auto wd = WdMatrices::compute(s.g);
  const auto cs = build_constraints(s.g, wd, to_decips(10.0));
  const auto ma = min_area_retiming(s.g, cs);
  ASSERT_TRUE(ma.has_value());
  const auto ma_rep = place_flipflops(s.g, s.grid, *ma, 50.0);
  const auto lac = lac_retiming(s.g, s.grid, cs, ff50());
  EXPECT_LE(lac.report.n_foa, ma_rep.n_foa);
}

TEST(Lac, RespectsClockPeriod) {
  auto s = make_scenario();
  const auto wd = WdMatrices::compute(s.g);
  const double t = 3.0;  // tight: two units in series already cost 2
  const auto cs = build_constraints(s.g, wd, to_decips(t));
  const auto lac = lac_retiming(s.g, s.grid, cs, ff50());
  EXPECT_LE(s.g.period_after_ps(lac.r), t + 1e-9);
}

TEST(Lac, PeriodBelowUnitDelayRejectedAtConstraintBuild) {
  auto s = make_scenario();
  const auto wd = WdMatrices::compute(s.g);
  EXPECT_THROW(build_constraints(s.g, wd, to_decips(0.5)), CheckError);
}

TEST(Lac, StopsWithinRoundBudget) {
  auto s = make_scenario();
  // Make the tight tile impossible: negative capacity everywhere relevant.
  s.grid.consume(s.tight, 1e9);
  s.grid.consume(s.roomy, 1e9);
  const auto wd = WdMatrices::compute(s.g);
  const auto cs = build_constraints(s.g, wd, to_decips(10.0));
  LacOptions opt = ff50();
  opt.n_max = 3;
  opt.max_rounds = 40;
  const auto lac = lac_retiming(s.g, s.grid, cs, opt);
  EXPECT_FALSE(lac.met_all_constraints);
  // best found in round 1, then n_max non-improving rounds.
  EXPECT_LE(lac.n_wr, 1 + opt.n_max + 1);
}

TEST(Lac, ConvergenceHistoryMatchesRounds) {
  auto s = make_scenario();
  // Impossible capacities force the full multi-round loop.
  s.grid.consume(s.tight, 1e9);
  s.grid.consume(s.roomy, 1e9);
  const auto wd = WdMatrices::compute(s.g);
  const auto cs = build_constraints(s.g, wd, to_decips(10.0));
  LacOptions opt = ff50();
  opt.n_max = 3;
  opt.max_rounds = 40;
  const auto lac = lac_retiming(s.g, s.grid, cs, opt);

  // One history record per weighted min-area solve, numbered from 1.
  ASSERT_EQ(static_cast<int>(lac.rounds.size()), lac.n_wr);
  ASSERT_GT(lac.n_wr, 1);
  for (std::size_t i = 0; i < lac.rounds.size(); ++i) {
    const LacRoundStats& rs = lac.rounds[i];
    EXPECT_EQ(rs.round, static_cast<int>(i) + 1);
    EXPECT_GE(rs.n_f, 0);
    EXPECT_GE(rs.n_foa, 0);
    EXPECT_GE(rs.max_overflow, 0.0);
    EXPECT_LE(rs.weight_lo, rs.weight_hi);
    EXPECT_GE(rs.solve_seconds, 0.0);
    // best_n_foa is the running best: monotone non-increasing and never
    // above the round's own violation count.
    if (i > 0) {
      EXPECT_LE(rs.best_n_foa, lac.rounds[i - 1].best_n_foa);
    }
    EXPECT_LE(rs.best_n_foa, rs.n_foa);
  }
  // The history's final best matches the returned result.
  EXPECT_EQ(lac.rounds.back().best_n_foa, lac.report.n_foa);
}

TEST(Lac, ConvergenceHistorySingleRoundWhenFitting) {
  auto s = make_scenario();
  const auto wd = WdMatrices::compute(s.g);
  const auto cs = build_constraints(s.g, wd, to_decips(10.0));
  const auto lac = lac_retiming(s.g, s.grid, cs, ff50());
  ASSERT_EQ(static_cast<int>(lac.rounds.size()), lac.n_wr);
  EXPECT_TRUE(lac.rounds.front().improved);
}

TEST(Lac, ReweightingRaisesOverfullTiles) {
  auto s = make_scenario();
  const auto wd = WdMatrices::compute(s.g);
  const auto cs = build_constraints(s.g, wd, to_decips(10.0));
  LacOptions opt = ff50();
  opt.n_max = 2;
  const auto lac = lac_retiming(s.g, s.grid, cs, opt);
  ASSERT_EQ(static_cast<int>(lac.tile_weight.size()), s.grid.num_tiles());
  // Weights stay within the configured clamp.
  for (const double w : lac.tile_weight) {
    EXPECT_GE(w, opt.weight_min);
    EXPECT_LE(w, opt.weight_max);
  }
}

TEST(Lac, AlphaZeroNeverChangesWeights) {
  auto s = make_scenario();
  const auto wd = WdMatrices::compute(s.g);
  const auto cs = build_constraints(s.g, wd, to_decips(10.0));
  LacOptions opt = ff50();
  opt.alpha = 0.0;  // update factor degenerates to 1.0 — pure min-area
  opt.n_max = 2;
  const auto lac = lac_retiming(s.g, s.grid, cs, opt);
  for (const double w : lac.tile_weight) EXPECT_DOUBLE_EQ(w, 1.0);
}

TEST(Lac, SingleRoundWhenAlreadyFits) {
  // Roomy everywhere: the first weighted min-area already satisfies all
  // constraints, so exactly one solve happens.
  static floorplan::Floorplan fp;
  fp.chip = Rect{{0, 0}, {200, 100}};
  fp.blocks.clear();
  fp.placement.clear();
  tile::TileGridOptions topt;
  topt.tile_size = 100;
  tile::TileGrid grid(fp, {}, topt);
  RetimingGraph g;
  const int a = g.add_vertex(VertexKind::kFunctional, 1.0, grid.tile_of_cell(0, 0));
  const int b = g.add_vertex(VertexKind::kFunctional, 1.0, grid.tile_of_cell(1, 0));
  g.add_edge(a, b, 1);
  g.add_edge(b, a, 1);
  const auto wd = WdMatrices::compute(g);
  const auto cs = build_constraints(g, wd, to_decips(5.0));
  const auto lac = lac_retiming(g, grid, cs, ff50());
  EXPECT_EQ(lac.n_wr, 1);
  EXPECT_TRUE(lac.met_all_constraints);
}

// Every LacOptions field is validated up front with a targeted message.
// max_rounds <= 0 in particular used to skip the round loop entirely and
// die much later on an unrelated internal invariant.
TEST(Lac, RejectsBadOptionsUpFront) {
  auto s = make_scenario();
  const auto wd = WdMatrices::compute(s.g);
  const auto cs = build_constraints(s.g, wd, to_decips(10.0));
  const auto expect_rejected = [&](LacOptions opt) {
    EXPECT_THROW(lac_retiming(s.g, s.grid, cs, opt), CheckError);
  };

  LacOptions opt = ff50();
  opt.max_rounds = 0;
  expect_rejected(opt);
  opt = ff50();
  opt.max_rounds = -3;
  expect_rejected(opt);
  opt = ff50();
  opt.alpha = -0.1;
  expect_rejected(opt);
  opt = ff50();
  opt.alpha = 1.5;
  expect_rejected(opt);
  opt = ff50();
  opt.n_max = 0;
  expect_rejected(opt);
  opt = ff50();
  opt.ff_area = 0.0;
  expect_rejected(opt);
  opt = ff50();
  opt.full_tile_ratio = 0.5;
  expect_rejected(opt);
  opt = ff50();
  opt.weight_min = 0.0;
  expect_rejected(opt);
  opt = ff50();
  opt.weight_min = 10.0;
  opt.weight_max = 1.0;
  expect_rejected(opt);
}

TEST(Lac, BoundaryOptionsAccepted) {
  auto s = make_scenario();
  const auto wd = WdMatrices::compute(s.g);
  const auto cs = build_constraints(s.g, wd, to_decips(10.0));
  LacOptions opt = ff50();
  opt.max_rounds = 1;       // a single round is a legal budget
  opt.alpha = 1.0;          // boundary of [0, 1]
  opt.full_tile_ratio = 1.0;
  opt.weight_min = opt.weight_max = 1.0;  // degenerate but consistent range
  const auto lac = lac_retiming(s.g, s.grid, cs, opt);
  EXPECT_EQ(lac.n_wr, 1);
  EXPECT_EQ(lac.rounds.size(), 1u);
}

// The production loop (one warm session across rounds) must be fully
// interchangeable with the reference that solves every round on a fresh
// network from zero flow: same retiming, same round trajectory.
TEST(Lac, IncrementalMatchesColdPath) {
  auto s = make_scenario();
  const auto wd = WdMatrices::compute(s.g);
  const auto cs = build_constraints(s.g, wd, to_decips(10.0));
  const LacOptions opt = ff50();
  const auto cold = test::lac_reference(s.g, s.grid, cs, opt);
  const auto warm = lac_retiming(s.g, s.grid, cs, opt);
  ASSERT_GT(warm.rounds.size(), 1u) << "no warm round to compare";
  test::expect_same_lac_result(cold, warm);
  // Rounds after the first actually use the warm path.
  for (std::size_t i = 1; i < warm.rounds.size(); ++i)
    EXPECT_TRUE(warm.rounds[i].warm) << "round " << i + 1;
  for (const LacRoundStats& rs : cold.rounds) EXPECT_FALSE(rs.warm);

  // Round 1 is plain min-area retiming on either path.
  const auto ma = min_area_retiming(s.g, cs);
  ASSERT_TRUE(ma.has_value());
  const auto ma_rep = place_flipflops(s.g, s.grid, *ma, ff50().ff_area);
  for (const LacResult* res : {&cold, &warm}) {
    EXPECT_EQ(res->min_area_r, *ma);
    EXPECT_EQ(res->min_area_report.ac, ma_rep.ac);
    EXPECT_EQ(res->min_area_report.n_f, ma_rep.n_f);
    EXPECT_EQ(res->min_area_report.n_foa, ma_rep.n_foa);
    EXPECT_EQ(res->min_area_report.n_f, res->rounds.front().n_f);
    EXPECT_EQ(res->min_area_report.n_foa, res->rounds.front().n_foa);
  }
}

}  // namespace
}  // namespace lac::retime
