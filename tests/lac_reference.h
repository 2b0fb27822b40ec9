// Test-only reference for lac_retiming(): the paper's steps 1–6 (§4.2,
// listed in retime/lac_retimer.h) with every round solved by a fresh
// WeightedMinAreaSolver — a new flow network and a solve from zero flow
// per round, no session carried between rounds.  The production
// loop warm-starts one session across rounds; canonical label extraction
// makes the two agree bit for bit on every retiming and every quality
// field of every round, which is what the equivalence tests check against
// this function.  It is kept in tests/, like the Bellman–Ford MCF oracle,
// so the library has one LAC solve path.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "base/check.h"
#include "retime/constraints.h"
#include "retime/ff_placement.h"
#include "retime/lac_retimer.h"
#include "retime/min_area.h"
#include "retime/retiming_graph.h"
#include "retime/weighted_min_area_solver.h"
#include "tile/tile_grid.h"

namespace lac::test {

// The same loop with step 3 left to `solve(area_weight, &stats)`, which
// returns one round's weighted min-area retiming; lac_reference() below
// passes the fresh-network solve.
template <typename Solve>
retime::LacResult lac_reference_with(const retime::RetimingGraph& g,
                                     const tile::TileGrid& grid,
                                     const retime::LacOptions& opt,
                                     Solve&& solve) {
  using namespace retime;
  LacResult best;
  bool have_best = false;
  std::vector<double> tile_weight(static_cast<std::size_t>(grid.num_tiles()),
                                  1.0);  // step 2: uniform weights
  std::vector<double> area_weight(static_cast<std::size_t>(g.num_vertices()));
  int no_improve = 0;
  for (int round = 0; round < opt.max_rounds; ++round) {
    LacRoundStats rs;
    rs.round = round + 1;
    if (!tile_weight.empty()) {
      const auto [lo, hi] =
          std::minmax_element(tile_weight.begin(), tile_weight.end());
      rs.weight_lo = *lo;
      rs.weight_hi = *hi;
    }
    for (int v = 0; v < g.num_vertices(); ++v) {
      const tile::TileId t = g.tile(v);
      const double tiebreak =
          g.kind(v) == VertexKind::kInterconnect ? 1.002 : 1.0;
      area_weight[static_cast<std::size_t>(v)] =
          (t.valid() ? tile_weight[t.index()] : 1.0) * tiebreak;
    }

    // Step 3: the round's weighted min-area retiming.
    MinAreaStats solve_stats;
    const auto r = solve(area_weight, &solve_stats);
    LAC_CHECK(r.has_value());
    // Step 4: place the flip-flops and account each tile's area.
    const AreaReport rep = place_flipflops(g, grid, *r, opt.ff_area);
    if (round == 0) {
      best.min_area_r = *r;
      best.min_area_report = rep;
    }
    const bool improved =
        !have_best || rep.n_foa < best.report.n_foa ||
        (rep.n_foa == best.report.n_foa && rep.n_f < best.report.n_f);
    if (improved) {
      best.r = *r;
      best.report = rep;
      best.tile_weight = tile_weight;
      have_best = true;
      no_improve = 0;
    } else {
      ++no_improve;
    }
    best.n_wr = round + 1;

    rs.n_foa = rep.n_foa;
    rs.n_f = rep.n_f;
    rs.best_n_foa = best.report.n_foa;
    rs.max_overflow = rep.worst_overflow;
    rs.improved = improved;
    rs.phases = solve_stats.phases;
    rs.augmentations = solve_stats.augmentations;
    rs.warm = solve_stats.warm;
    best.rounds.push_back(rs);

    // Step 5: stop when every tile fits or after n_max stale rounds.
    if (rep.n_foa == 0 || no_improve >= opt.n_max) break;

    // Step 6: re-weight each tile by its utilisation.
    for (int t = 0; t < grid.num_tiles(); ++t) {
      const double cap = grid.capacity(tile::TileId{t});
      const double ac = rep.ac[static_cast<std::size_t>(t)];
      double ratio =
          cap > 1e-9 ? ac / cap : (ac > 0.0 ? opt.full_tile_ratio : 1.0);
      ratio = std::min(ratio, opt.full_tile_ratio);
      double& w = tile_weight[static_cast<std::size_t>(t)];
      w *= (1.0 - opt.alpha) + opt.alpha * ratio;
      w = std::clamp(w, opt.weight_min, opt.weight_max);
    }
  }
  LAC_CHECK(have_best);
  best.met_all_constraints = best.report.fits();
  return best;
}

// Every round on a fresh network, solved from zero flow.
inline retime::LacResult lac_reference(const retime::RetimingGraph& g,
                                       const tile::TileGrid& grid,
                                       const retime::ConstraintSet& cs,
                                       const retime::LacOptions& opt) {
  return lac_reference_with(
      g, grid, opt,
      [&](const std::vector<double>& area_weight, retime::MinAreaStats* st) {
        retime::WeightedMinAreaSolver fresh(g, cs);
        return fresh.solve(area_weight, st);
      });
}

// Every retiming and quality field of `got` equals the reference's, round
// by round.  The effort fields (phases, augmentations, warm,
// solve_seconds) are free to differ.
inline void expect_same_lac_result(const retime::LacResult& ref,
                                   const retime::LacResult& got) {
  EXPECT_EQ(ref.r, got.r);
  EXPECT_EQ(ref.n_wr, got.n_wr);
  EXPECT_EQ(ref.met_all_constraints, got.met_all_constraints);
  EXPECT_EQ(ref.tile_weight, got.tile_weight);
  EXPECT_EQ(ref.report.ac, got.report.ac);
  EXPECT_EQ(ref.report.n_foa, got.report.n_foa);
  EXPECT_EQ(ref.report.n_f, got.report.n_f);
  EXPECT_EQ(ref.min_area_r, got.min_area_r);
  EXPECT_EQ(ref.min_area_report.ac, got.min_area_report.ac);
  EXPECT_EQ(ref.min_area_report.n_foa, got.min_area_report.n_foa);
  EXPECT_EQ(ref.min_area_report.n_f, got.min_area_report.n_f);
  ASSERT_EQ(ref.rounds.size(), got.rounds.size());
  for (std::size_t i = 0; i < ref.rounds.size(); ++i) {
    SCOPED_TRACE("round " + std::to_string(i + 1));
    EXPECT_EQ(ref.rounds[i].round, got.rounds[i].round);
    EXPECT_EQ(ref.rounds[i].n_foa, got.rounds[i].n_foa);
    EXPECT_EQ(ref.rounds[i].n_f, got.rounds[i].n_f);
    EXPECT_EQ(ref.rounds[i].best_n_foa, got.rounds[i].best_n_foa);
    EXPECT_EQ(ref.rounds[i].max_overflow, got.rounds[i].max_overflow);
    EXPECT_EQ(ref.rounds[i].weight_lo, got.rounds[i].weight_lo);
    EXPECT_EQ(ref.rounds[i].weight_hi, got.rounds[i].weight_hi);
    EXPECT_EQ(ref.rounds[i].improved, got.rounds[i].improved);
  }
}

}  // namespace lac::test
