// Local-Area-Constrained retiming — the paper's core algorithm (§4.2).
//
// LAC-retiming asks for a retiming that satisfies edge, clock AND per-tile
// area constraints.  The area constraints couple many retiming variables,
// so the problem is an ILP; the paper's heuristic solves a series of
// *weighted* min-area retimings, re-weighting each tile by its utilisation:
//
//   1. build edge + clock constraints once;
//   2. uniform unit weights;
//   3. solve weighted min-area retiming (min-cost flow);
//   4. place flip-flops, compute AC(t) per tile;
//   5. done if every AC(t) <= C(t), or no improvement for N_max rounds;
//   6. weight(t) *= (1 - alpha) + alpha * AC(t)/C(t);  goto 3.
//
// alpha defaults to 0.2 (the paper: "a value of around 0.2 typically
// produces the best results").  The best solution seen (fewest violating
// flip-flops, then fewest total flip-flops) is returned.
#pragma once

#include <cstdint>
#include <vector>

#include "retime/constraints.h"
#include "retime/ff_placement.h"
#include "retime/retiming_graph.h"
#include "tile/tile_grid.h"

namespace lac::retime {

struct LacOptions {
  double alpha = 0.2;
  int n_max = 10;        // consecutive non-improving rounds before giving up
  int max_rounds = 60;   // absolute safety cap
  double ff_area = 400;  // µm² per flip-flop (timing::Technology::dff_area)
  // Weight used for AC/C when a tile has (near-)zero capacity.
  double full_tile_ratio = 8.0;
  double weight_min = 1e-3;
  double weight_max = 1e6;
};

// Convergence record of one round of the adaptive re-weighting loop (one
// weighted min-area solve).  The trajectory across rounds is the paper's
// N_wr-vs-quality trade-off made explicit.
struct LacRoundStats {
  int round = 0;                // 1-based round number
  std::int64_t n_foa = 0;       // violating flip-flops this round
  std::int64_t n_f = 0;         // total flip-flops this round
  std::int64_t best_n_foa = 0;  // best-so-far N_FOA after this round
  double max_overflow = 0.0;    // worst tile overflow (µm²) this round
  double weight_lo = 1.0;       // tile-weight spread entering the round
  double weight_hi = 1.0;
  bool improved = false;        // did this round improve the best solution
  int phases = 0;               // min-cost-flow Dijkstra phases of the solve
  int augmentations = 0;        // min-cost-flow paths pushed by the solve
  bool warm = false;            // solve warm-started from the previous round
  double solve_seconds = 0.0;   // wall time of solve + placement
};

struct LacResult {
  std::vector<int> r;        // best retiming found
  AreaReport report;         // its area accounting
  int n_wr = 0;              // number of weighted min-area retimings solved
  bool met_all_constraints = false;
  std::vector<double> tile_weight;  // final adaptive weights (per tile)
  // Per-round convergence history; rounds.size() == n_wr always, and
  // best_n_foa is monotone non-increasing across rounds.
  std::vector<LacRoundStats> rounds;
  // Round 1 runs with uniform tile weights and the interconnect tie-break
  // of min_area_retiming(), so it *is* plain min-area retiming — the
  // baseline the LAC result is judged against.  Its retiming and area
  // report are kept here (canonical extraction makes them bit-identical to
  // min_area_retiming()); its solve time is rounds.front().solve_seconds.
  std::vector<int> min_area_r;
  AreaReport min_area_report;
};

// `cs` must be feasible (callers check the clock period first); throws
// CheckError otherwise.  The weighted solves of every round run on one
// WeightedMinAreaSolver session the call owns: the flow network is built
// once and every round after the first warm-starts from the previous
// round's min-cost flow (docs/INCREMENTAL_MCF.md).
[[nodiscard]] LacResult lac_retiming(const RetimingGraph& g,
                                     const tile::TileGrid& grid,
                                     const ConstraintSet& cs,
                                     const LacOptions& opt = {});

}  // namespace lac::retime
