// Session object for repeated weighted min-area retiming solves over one
// constraint system — the engine of the LAC loop's inner iteration.
//
// The LAC heuristic is "a series of weighted min-area retiming problems"
// that differ only in the per-vertex area weights; the constraint system
// (and therefore the whole flow network: arcs, costs) is fixed for the
// duration of one lac_retiming call.  This class builds the
// retiming-graph→flow-network mapping once and re-solves per round with
// only the supply vector updated (the quantised weights enter the
// transshipment problem as node supplies, see retime/min_area.h for the
// reduction).  Round 1 ships from zero flow; every later round
// warm-starts from the previous round's flow and potentials and ships
// only the supply delta (graph::MinCostFlow::solve()).
//
// Exactness: every round returns an exact optimum, and the returned
// retiming is *canonical* — labels are derived from residual shortest
// distances from the host (solve_canonical_labels), which are identical
// for every optimal flow of the instance.  A session therefore returns
// bit-identical retimings to a fresh session's first solve() on every
// round, so warm-starting the LAC loop does not perturb its results.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/min_cost_flow.h"
#include "retime/constraints.h"
#include "retime/min_area.h"
#include "retime/retiming_graph.h"

namespace lac::retime {

class WeightedMinAreaSolver {
 public:
  // Builds the flow network (retiming_flow_network(): one node per free
  // label plus the host, one arc per constraint the label bounds do not
  // imply, plus the host arcs that carry the bounds) once.  `g` and `cs` must outlive the solver (or be
  // replaced via rebind()).
  WeightedMinAreaSolver(const RetimingGraph& g, const ConstraintSet& cs);

  // Solves weighted min-area retiming for the given weights
  // (`area_weight[v]` > 0 for every non-host vertex).  Returns the optimal
  // retiming normalised to r[host] = 0, or nullopt if the constraints are
  // infeasible.  The first call per session ships from zero flow; later
  // calls warm-start from the previous round's optimum.
  [[nodiscard]] std::optional<std::vector<int>> solve(
      const std::vector<double>& area_weight, MinAreaStats* stats = nullptr);

  // Number of solve() calls served so far.
  [[nodiscard]] int rounds() const { return rounds_; }

  // True when (g, cs) would build the *identical* flow network this session
  // already holds: same vertex count and content-equal (full, unreduced)
  // constraint set.  The network depends on nothing else, so a matching
  // session can keep its warm flow across an ECO re-plan.
  [[nodiscard]] bool matches(const RetimingGraph& g,
                             const ConstraintSet& cs) const;

  // Re-points the session at (g, cs) without touching the flow network.
  // The caller guarantees content-identity (matches() before any move) —
  // used after an ECO re-plan relocates the graph/constraints into a new
  // cache generation (same content, new addresses).
  void rebind(const RetimingGraph& g, const ConstraintSet& cs);

 private:
  const RetimingGraph* g_;
  const ConstraintSet* cs_;
  RetimingFlowNetwork net_;  // the flow network and the label bounds
  std::vector<std::int64_t> ai_;      // quantised weights (scratch)
  std::vector<std::int64_t> supply_;  // per-vertex supplies (scratch)
  int rounds_ = 0;
};

}  // namespace lac::retime
