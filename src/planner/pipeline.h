// Shared planning pipeline: the single implementation behind every plan —
// the cold plan a PlanSession opens with (and so InterconnectPlanner::plan),
// each ECO re-plan, and the replan_cold() reference.
//
// The pipeline (tile grid -> routing -> repeaters -> retiming graph ->
// W/D -> constraints -> LAC retiming, whose round 1 is the min-area
// baseline) is a deterministic function of (netlist, block assignment,
// floorplan, config, overrides).  It runs against one PipelineCache: an
// empty cache makes the run cold, a filled one holds the previous run's
// state.  The cache never changes *what* the pipeline computes — only how
// much work the computation performs:
//   * route:    the RouteLog of the previous run lets provably-unchanged
//               nets skip their Dijkstra (route::route_all_incremental; on
//               an empty log every net is routed speculatively in
//               parallel, as in route_all);
//   * repeater: a PlanTrace per net lets nets whose tree and tile context
//               are unchanged replay their previous plan;
//   * LAC:      a WeightedMinAreaSolver session keeps the min-cost flow
//               warm across re-plans when the constraint system is
//               content-identical.
// Every reuse path is gated on an exactness proof, so an ECO re-plan is
// bit-identical to a run of the pipeline on an empty cache — the invariant
// the eco-equivalence CI gate enforces.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "floorplan/floorplanner.h"
#include "netlist/netlist.h"
#include "planner/interconnect_planner.h"
#include "repeater/repeater_planner.h"
#include "retime/constraints.h"
#include "retime/retiming_graph.h"
#include "retime/weighted_min_area_solver.h"
#include "route/global_router.h"

namespace lac::planner {

// Non-structural ECO knobs: edits that change areas/capacities without
// touching netlist connectivity or the floorplan outline.  All fields
// default to "no change"; the same overrides feed both the incremental
// re-plan and its cold reference, so they cannot break equivalence.
struct EcoOverrides {
  // Per cell index: multiplier on the cell's area when deriving soft-block
  // used area (and hence block tile capacities).  Shorter than num_cells
  // (or empty) means 1.0 for the missing tail.
  std::vector<double> cell_area_scale;
  // Per block: multiplier applied to every tile of that block after grid
  // construction.  Empty means 1.0 everywhere.
  std::vector<double> block_capacity_scale;
  // Multiplier applied to every channel tile.
  double channel_capacity_scale = 1.0;

  [[nodiscard]] bool trivial() const {
    for (const double s : cell_area_scale)
      if (s != 1.0) return false;
    for (const double s : block_capacity_scale)
      if (s != 1.0) return false;
    return channel_capacity_scale == 1.0;
  }
};

// Work accounting of one incremental re-plan.  Pure effort metadata — none
// of these feed back into planning decisions.
struct EcoStats {
  long long invalidated_nets = 0;   // nets with a changed/new route request
  long long reused_routes = 0;      // initial-pass trees reused from the log
  long long reused_reroutes = 0;    // rip-up reroutes reused from the log
  long long cold_routes = 0;        // initial-pass nets not reused
  long long cold_reroutes = 0;      // rip-up reroutes not reused
  bool route_full_fallback = false; // grid dims changed: log replayed empty
  long long repeater_replays = 0;   // nets whose repeater plan replayed
  long long repeater_replans = 0;   // nets re-planned from scratch
  // W/D rows are swept on demand inside every constraint scan, so a
  // re-plan reuses none: both equal the graph's vertex count.
  std::int64_t wd_rows_rebuilt = 0;
  std::int64_t wd_rows_total = 0;
  bool lac_warm = false;            // LAC ran on the retained warm session
};

// State carried from one pipeline run to the next by a PlanSession.  A
// default-constructed cache is empty; run_pipeline() reads the previous
// run's state from it and leaves this run's state behind.
struct PipelineCache {
  route::RouteLog route_log;                      // route replay log
  std::vector<route::RouteTree> trees;            // parallel to route_log.requests
  std::vector<repeater::BufferedNet> buffered;    // parallel to route_log.requests
  std::vector<repeater::PlanTrace> traces;        // parallel to route_log.requests
  retime::RetimingGraph graph;                    // the graph `cs` is over
  retime::ConstraintSet cs;
  // Warm min-cost-flow session of the last LAC run, bound to `graph` and
  // `cs` above.  run_pipeline() re-aims it at them before every use, so
  // the cache may be moved between runs.
  std::optional<retime::WeightedMinAreaSolver> lac_session;
  // Work accounting of the run that filled the cache (zeros after a cold
  // run).
  EcoStats stats;

  // True until a run has filled the cache; a run on an empty cache is cold.
  // A filled cache's graph holds the netlist's vertices besides the host.
  [[nodiscard]] bool empty() const { return graph.num_vertices() <= 1; }
};

namespace detail {

// Steps 1–2 of a cold plan: FM partition, block sizing, floorplan — with
// the same stage spans plan() has always emitted.
struct PartitionedFloorplan {
  std::vector<int> block_of;
  floorplan::Floorplan fp;
};
[[nodiscard]] PartitionedFloorplan partition_and_floorplan(
    const netlist::Netlist& nl, const PlannerConfig& config);

// Expansion amounts for the paper's iteration-2 replan, derived from the
// LAC violations of `prev`: violating soft blocks grow by 1.5x their
// overflow, channel/hard overflow raises the whitespace target.
struct ExpansionSpec {
  std::vector<double> new_area;  // per block
  double extra_whitespace = 0.0;
};
[[nodiscard]] ExpansionSpec expansion_spec(const PlanResult& prev);

// The pipeline proper.  `overrides` are the ECO knobs (default-constructed
// == none).  `cache` is in/out: on entry it holds the previous run to reuse
// work from (empty == cold run), on return this run's reusable state and
// work accounting.  With a non-empty cache the eco.* counters and per-stage
// reuse annotations are emitted too.  The cache is only written once the
// run has succeeded, so a run that throws leaves it describing the
// previous run (minus its LAC session, which is rebuilt next time).
[[nodiscard]] PlanResult run_pipeline(const netlist::Netlist& nl,
                                      std::vector<int> block_of,
                                      floorplan::Floorplan fp,
                                      const PlannerConfig& config,
                                      const EcoOverrides& overrides,
                                      PipelineCache& cache);

}  // namespace detail
}  // namespace lac::planner
