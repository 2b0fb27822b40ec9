// (Weighted) minimum-area retiming via minimum-cost flow (paper §3.1, §4.2).
//
// Objective (paper):  N'(G_r) = const + Σ_v r(v)·(fi(v) − fo(v)), with
//   fi(v) = Σ_{u ∈ FI(v)} A(u)        (area weight of fanin units)
//   fo(v) = A(v)·|FO(v)|.
// Minimising  Σ_v b(v)·r(v)  (b = fi − fo) subject to the difference
// constraints is the LP dual of a transshipment problem:
//
//   min Σ c(x,y)·f(x,y)   s.t.  outflow(v) − inflow(v) = −b(v),  f ≥ 0,
//
// with one arc per constraint  r(x) − r(y) ≤ c(x,y).  At a min-cost flow
// optimum with node potentials π, every arc satisfies
// c + π(x) − π(y) ≥ 0, so  r(v) := π(host) − π(v)  is feasible
// (r(x) − r(y) = π(y) − π(x) ≤ c) and complementary slackness makes it
// optimal.  Costs are integral, hence so is r.
//
// Two `host` arcs of large cost K bound every label (|r| ≤ K) and connect
// all components, guaranteeing the flow problem is feasible whenever the
// constraint system is; K exceeds any label an optimal basic solution
// needs, so the optimum is unchanged.
//
// Area weights are reals (the LAC loop rescales them adaptively); they are
// quantised onto a fixed integer grid for the flow supplies.  Quantisation
// only perturbs the objective's tie-breaking, never feasibility.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/min_cost_flow.h"
#include "retime/constraints.h"
#include "retime/retiming_graph.h"

namespace lac::retime {

// Quantises the positive weight `w` onto the integer grid of the flow
// supplies, relative to the largest weight `max_w`: `max_w` maps to 2^14,
// anything positive to at least 1.
[[nodiscard]] std::int64_t quantise_weight(double w, double max_w);

// The transshipment network of the retiming LP over `cs` (the reduction
// above), on cs.num_vars nodes with all supplies zero: one kInfCap arc
// u -> v of cost c per constraint r(u) − r(v) ≤ c, in for_each order, then
// the host bounding arcs v -> host and host -> v of cost K for every other
// node v.
[[nodiscard]] graph::MinCostFlow retiming_flow_network(const ConstraintSet& cs,
                                                       int host);

struct MinAreaStats {
  double objective = 0.0;  // Σ A(tail(e)) · w_r(e), the weighted FF area
  // Exact optimum of the quantised flow objective (int64, never narrowed);
  // warm and cold solves of the same instance agree on it bit for bit.
  std::int64_t flow_cost_exact = 0;
  int phases = 0;          // min-cost-flow Dijkstra phases of the solve
  int augmentations = 0;   // min-cost-flow paths pushed by the solve
  bool warm = false;       // solve warm-started from a previous round's flow
  int repaired_arcs = 0;   // residual arcs cancel-and-rerouted by the solve
};

// Solves weighted min-area retiming for the given constraint system.
// `area_weight[v]` must be > 0 for every non-host vertex.  Returns the
// optimal retiming labels normalised to r[host] = 0, or nullopt if the
// constraints are infeasible.  One-shot convenience over
// WeightedMinAreaSolver (weighted_min_area_solver.h) — a loop that
// re-solves with changing weights should hold a solver session instead,
// which warm-starts every round after the first and returns bit-identical
// retimings to this function.
[[nodiscard]] std::optional<std::vector<int>> weighted_min_area_retiming(
    const RetimingGraph& g, const ConstraintSet& cs,
    const std::vector<double>& area_weight, MinAreaStats* stats = nullptr);

// Classic min-area retiming: all units weigh 1.
[[nodiscard]] std::optional<std::vector<int>> min_area_retiming(
    const RetimingGraph& g, const ConstraintSet& cs,
    MinAreaStats* stats = nullptr);

// Weighted flip-flop area of a retiming:  Σ_e A(tail(e)) · w_r(e).
[[nodiscard]] double weighted_ff_area(const RetimingGraph& g,
                                      const std::vector<int>& r,
                                      const std::vector<double>& area_weight);

}  // namespace lac::retime
