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
// The network is bounded (Maheshwari & Sapatnekar, "Efficient retiming of
// large circuits", TVLSI 1998).  With r(host) = 0 the system implies a
// range r_min(v) ≤ r(v) ≤ r_max(v) for every label: r_max(v) is the
// shortest-path distance host → v and r_min(v) = −dist(v → host) in the
// constraint graph, where r(u) − r(v) ≤ c is the arc v → u of weight c.
// A constraint with r_max(u) − r_min(v) ≤ c is implied by those two
// bounds, so it gets no arc; every other constraint keeps its arc, and the
// bounds become the host arcs v -> host of cost min(K, r_max(v)) and
// host -> v of cost min(K, −r_min(v)).  A label whose bounds meet
// (r_min = r_max) is fixed, and every constraint r(u) − r(v) ≤ c touching
// it is implied: the bounds satisfy r_max(u) ≤ r_max(v) + c and
// r_min(v) ≥ r_min(u) − c, so the test above holds once u or v is fixed.
// A fixed label is contracted into the host — no node, no arc, its
// supply shipped from the host, its label r_min — and the objective gains
// the constant Σ_fixed supply·r_min, so the network has one node per free
// label plus the host.  The bounds are implied by the system and every
// dropped constraint by the bounds, so the feasible polytope, its optimal
// face and the canonical labels read from it are those of the full
// network.  K is computed from the full set and exceeds any label an
// optimal basic solution needs; it stays the cost of both host arcs of a
// vertex with no path from (or to) the host, so those arcs bound every
// label and connect all components, and the flow problem is feasible
// whenever the constraint system is.  If either bound pass meets a
// negative cycle the system is infeasible: the bounds stay unknown,
// nothing is dropped or contracted, and the flow problem is infeasible
// too.
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

// The bounded transshipment network of the retiming LP over `cs` (the
// reduction above), with all supplies zero: one node per free label and
// one for the host, numbered in vertex order; one kInfCap arc
// node(u) -> node(v) of cost c per constraint r(u) − r(v) ≤ c that the
// label bounds do not imply, in for_each order; then the host arcs
// v -> host and host -> v for every free non-host label v.
struct RetimingFlowNetwork {
  graph::MinCostFlow mcf;
  // The implied label bounds, one per vertex; ±graph::kNoPath where no
  // path bounds the label (and for every vertex when the bounds are
  // unknown).
  std::vector<std::int64_t> r_min;
  std::vector<std::int64_t> r_max;
  // Vertex -> network node; −1 for a fixed label (contracted into the
  // host).
  std::vector<int> node;
  int kept_constraints = 0;  // constraints that got an arc
  int fixed_labels = 0;      // non-host vertices with r_min = r_max
};
[[nodiscard]] RetimingFlowNetwork retiming_flow_network(
    const ConstraintSet& cs, int host);

// One optimum of the retiming LP read canonically: one label per vertex,
// r(v) = −d(host → v) over the optimal residual network for a free label
// and r_min(v) for a fixed one.  These
// distances are the same for every optimal flow (see
// MinCostFlow::residual_distances_from), so the labels depend neither on
// the augmentation history nor on which implied constraints got an arc.
struct CanonicalLabels {
  std::vector<int> r;  // r[host] = 0
  // Exact optimum of the unreduced flow objective: the contracted
  // network's flow cost plus Σ_fixed supply·r_min, equal to the dual
  // Σ_v supply·r.
  std::int64_t flow_cost_exact = 0;
};
// Sets `supply` (one entry per vertex, summing to zero; a fixed label's
// goes to the host's node) on `net.mcf`, solves it — warm when it holds
// an optimum — and reads the canonical labels, checking strong duality
// and r_min ≤ r ≤ r_max over every vertex.
// Returns nullopt if the flow problem (hence the constraint system) is
// infeasible.
[[nodiscard]] std::optional<CanonicalLabels> solve_canonical_labels(
    RetimingFlowNetwork& net, int host,
    const std::vector<std::int64_t>& supply);

struct MinAreaStats {
  double objective = 0.0;  // Σ A(tail(e)) · w_r(e), the weighted FF area
  // Exact optimum of the quantised flow objective (int64, never narrowed);
  // warm and cold solves of the same instance agree on it bit for bit.
  std::int64_t flow_cost_exact = 0;
  int phases = 0;          // min-cost-flow Dijkstra phases of the solve
  int augmentations = 0;   // min-cost-flow paths pushed by the solve
  bool warm = false;       // solve warm-started from a previous round's flow
};

// Classic min-area retiming: all units weigh 1.  Returns the optimal
// retiming labels normalised to r[host] = 0, or nullopt if the
// constraints are infeasible.  Weighted solves go through a
// WeightedMinAreaSolver session (weighted_min_area_solver.h).
[[nodiscard]] std::optional<std::vector<int>> min_area_retiming(
    const RetimingGraph& g, const ConstraintSet& cs,
    MinAreaStats* stats = nullptr);

// Weighted flip-flop area of a retiming:  Σ_e A(tail(e)) · w_r(e).
[[nodiscard]] double weighted_ff_area(const RetimingGraph& g,
                                      const std::vector<int>& r,
                                      const std::vector<double>& area_weight);

}  // namespace lac::retime
