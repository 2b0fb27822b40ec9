// Interconnect planner: the paper's full flow (Figure 1).
//
//   netlist -> partition into blocks -> sequence-pair floorplan ->
//   tile grid -> global routing of inter-block connections ->
//   repeater planning (tile capacities consumed) ->
//   retiming graph with interconnect units ->
//   T_init / T_min / T_clk ->
//   LAC-retiming (the contribution; its round 1 is the min-area baseline) ->
//   flip-flop placement + per-tile violation accounting.
//
// `plan(nl, PlanOptions{.max_iterations = k})` runs up to k planning
// iterations: the first full pass, then — while flip-flop area violations
// remain — the paper's floorplan-expansion replan, where congested soft
// blocks and channels are expanded and the whole pipeline re-runs on the
// new floorplan (same partition, same seed, incremental layout change).
// One PlanResult is returned per iteration executed.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "base/run_controls.h"
#include "floorplan/floorplanner.h"
#include "netlist/netlist.h"
#include "repeater/repeater_planner.h"
#include "retime/constraints.h"
#include "retime/ff_placement.h"
#include "retime/lac_retimer.h"
#include "retime/retiming_graph.h"
#include "route/global_router.h"
#include "tile/tile_grid.h"
#include "timing/technology.h"

namespace lac::planner {

struct PlannerConfig {
  int num_blocks = 9;
  // Fraction of blocks treated as hard macros with pre-located sites.  The
  // paper's own experiments use soft blocks only ("we first partition those
  // circuits into soft blocks"), so the default is 0; the machinery is
  // exercised by tests and examples.
  double hard_block_fraction = 0.0;
  // Extra area a block gets beyond the sum of its cells (placement slack —
  // this slack is exactly the soft-block insertion capacity).
  double block_area_slack = 0.03;
  // Fraction of the per-fanout register demand the floorplan provisions
  // for.  1.0 sizes blocks for the full per-edge model demand; lower values
  // reproduce the paper's observation that block areas are estimated "based
  // on the original netlist without any physical information" and therefore
  // underestimate relocated-flip-flop demand.
  double dff_provision_factor = 0.6;
  // T_clk = T_min + clock_slack_fraction * (T_init - T_min)   (paper: 0.2;
  // retime::clock_period_ps).
  double clock_slack_fraction = 0.2;

  // Run controls: execution policy (threads / determinism / chunking),
  // observability override, and the RNG seed, grouped in one place.
  // `run.exec` governs every parallel stage of the pipeline (the W/D row
  // sweeps, speculative net routing) and is propagated into
  // `route_opt.exec` by the InterconnectPlanner constructor; results are
  // bitwise-identical for any thread count.  `run.observability` kEnv
  // defers to the LAC_OBS environment variable, kOn/kOff force tracing +
  // metrics for the duration of plan().
  base::RunControls run;

  timing::Technology tech = timing::Technology::paper_default();
  floorplan::FloorplanOptions fp_opt;
  tile::TileGridOptions tile_opt;
  route::RouterOptions route_opt;
  repeater::RepeaterPlanOptions repeater_opt;
  retime::LacOptions lac_opt;
};

// Options for InterconnectPlanner::plan().
struct PlanOptions {
  // Upper bound on planning iterations: the first full pass plus
  // floorplan-expansion replans while area violations remain.  Must be
  // >= 1; the paper's flow uses 2.
  int max_iterations = 1;
};

struct RetimingOutcome {
  retime::AreaReport report;
  std::vector<int> r;
  // Wall time of the solve; for the min-area baseline, that of LAC round 1
  // (solve + flip-flop placement), which is the plain min-area solve.
  double exec_seconds = 0.0;
  int n_wr = 1;  // weighted min-area solves (1 for the plain baseline)
  // Per-round convergence history (LAC only; empty for the plain
  // baseline).  rounds.size() == n_wr for the LAC outcome.
  std::vector<retime::LacRoundStats> rounds;
};

struct PlanResult {
  std::string circuit;

  // Physical artifacts of this planning iteration.
  std::vector<int> block_of;  // cell -> block
  floorplan::Floorplan fp;
  std::optional<tile::TileGrid> grid;  // engaged after planning
  retime::RetimingGraph graph;

  // Timing landmarks (ps).
  double t_init_ps = 0.0;
  double t_min_ps = 0.0;
  double t_clk_ps = 0.0;

  // Constraint statistics.
  std::size_t clock_constraints = 0;
  std::size_t clock_constraints_unpruned = 0;
  double constraint_gen_seconds = 0.0;

  // The two competing retimings at T_clk.  min_area is LAC round 1 (uniform
  // weights), i.e. plain min-area retiming.
  RetimingOutcome min_area;
  RetimingOutcome lac;

  // Physical-planning statistics.
  route::RoutingStats routing;
  int repeaters = 0;
  int interconnect_units = 0;

  [[nodiscard]] double foa_decrease_pct() const {
    if (min_area.report.n_foa == 0) return 0.0;
    return 100.0 *
           static_cast<double>(min_area.report.n_foa - lac.report.n_foa) /
           static_cast<double>(min_area.report.n_foa);
  }
};

class InterconnectPlanner {
 public:
  explicit InterconnectPlanner(PlannerConfig config = {});

  [[nodiscard]] const PlannerConfig& config() const { return config_; }

  // Runs up to opts.max_iterations planning iterations — the first full
  // pass, then floorplan-expansion replans while the LAC result still
  // violates area constraints.  Returns one PlanResult per iteration
  // executed (always at least one; fewer than max_iterations when an
  // iteration fits).  Every iteration runs on one PlanSession: the first
  // on its empty cache, each later one as an expand_blocks() ECO.
  [[nodiscard]] std::vector<PlanResult> plan(const netlist::Netlist& nl,
                                             const PlanOptions& opts) const;

 private:
  PlannerConfig config_;
};

}  // namespace lac::planner
