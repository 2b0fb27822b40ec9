// Repeater planning and interconnect-unit segmentation (paper §3.2, §4.1).
//
// Repeaters are inserted on each routed Steiner tree so that the wire
// length between consecutive repeaters (and between a terminal and its
// nearest repeater) never exceeds L_max, the signal-integrity bound.  The
// placement walks the tree from the driver; when the unrepeated length
// would exceed L_max it places a repeater, choosing — among the recent
// cells that keep both spacings legal — the one whose tile has the most
// remaining capacity (the capacity-aware refinement of Alpert-style site
// selection).  Each placed repeater permanently consumes tile capacity, so
// the capacities the retimer later sees are "after repeater insertion"
// exactly as the paper specifies.
//
// Segmentation: every driver→sink path is cut at its repeaters into
// *interconnect units*.  Unit delay = (repeater intrinsic delay if the unit
// starts at a repeater) + Elmore delay of the wire span into the next
// stage's input capacitance.  Optionally each stage is further subdivided
// into `units_per_segment` sub-units (the paper's "even more flexibility"
// refinement), with delay apportioned by length — a fixed, conservative
// assignment per the paper's max-delay rule.
#pragma once

#include <vector>

#include "route/global_router.h"
#include "tile/tile_grid.h"
#include "timing/technology.h"

namespace lac::repeater {

struct InterconnectUnit {
  double delay_ps = 0.0;
  tile::TileId tile;   // tile a flip-flop placed after this unit lands in
  route::Cell at;      // representative cell (end of the unit's span)
};

struct BufferedSinkPath {
  std::vector<InterconnectUnit> units;  // ordered driver -> sink
  double total_delay_ps = 0.0;          // sum of unit delays
  double length_um = 0.0;
};

struct BufferedNet {
  std::vector<route::Cell> repeater_cells;  // on the tree, distinct
  std::vector<BufferedSinkPath> sinks;      // parallel to RouteTree::sink_paths
};

struct RepeaterPlanOptions {
  int units_per_segment = 1;   // >= 1; sub-division of repeater stages
  bool capacity_aware = true;  // look-back site selection by tile capacity
};

class RepeaterPlanner {
 public:
  // The grid is mutated: every repeater consumes `tech.repeater_area`.
  RepeaterPlanner(tile::TileGrid& grid, const timing::Technology& tech,
                  RepeaterPlanOptions opt = {});

  // `driver_res` = output resistance of the net's driving functional unit;
  // `sink_cap` = input capacitance presented by each sink functional unit.
  [[nodiscard]] BufferedNet plan(const route::RouteTree& tree,
                                 double driver_res, double sink_cap);

  [[nodiscard]] int repeaters_inserted() const { return repeaters_inserted_; }
  [[nodiscard]] double area_consumed() const { return area_consumed_; }

 private:
  tile::TileGrid& grid_;
  const timing::Technology& tech_;
  RepeaterPlanOptions opt_;
  int repeaters_inserted_ = 0;
  double area_consumed_ = 0.0;
};

}  // namespace lac::repeater
