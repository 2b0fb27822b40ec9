#include "retime/min_area.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <utility>

#include "base/check.h"
#include "graph/diff_constraints.h"
#include "retime/weighted_min_area_solver.h"

namespace lac::retime {

namespace {
constexpr double kWeightGrid = 1 << 14;
}  // namespace

std::int64_t quantise_weight(double w, double max_w) {
  return std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::llround(w / max_w * kWeightGrid)));
}

RetimingFlowNetwork retiming_flow_network(const ConstraintSet& cs,
                                          int host) {
  const auto n = static_cast<std::size_t>(cs.num_vars);
  // K must exceed any label magnitude an optimal basic solution can need;
  // |r(v)| is bounded by (#vars) · (largest |constraint constant|) for
  // shortest-path-derived solutions, so this K keeps the box constraints
  // slack at some optimum.  It is taken over the full set.
  std::int64_t max_c = 1;
  cs.for_each([&](const Constraint& c) {
    max_c = std::max<std::int64_t>(max_c,
                                   std::abs(static_cast<std::int64_t>(c.c)));
  });
  const std::int64_t big_k =
      static_cast<std::int64_t>(cs.num_vars + 1) * (max_c + 1);

  // r_max(v) = dist(host → v) over the arcs v -> u of r(u) − r(v) ≤ c, and
  // −r_min(v) = dist(v → host), the same search over the reversed arcs.
  auto to_host = graph::shortest_paths_from(
      cs.num_vars, host, [&](const auto& f) {
        cs.for_each([&](const Constraint& c) { f(c.v, c.u, c.c); });
      });
  auto from_host = graph::shortest_paths_from(
      cs.num_vars, host, [&](const auto& f) {
        cs.for_each([&](const Constraint& c) { f(c.u, c.v, c.c); });
      });
  RetimingFlowNetwork net{graph::MinCostFlow(cs.num_vars), {}, {}, 0, 0};
  if (to_host && from_host) {
    net.r_max = std::move(*from_host);
    net.r_min = std::move(*to_host);
    for (std::int64_t& d : net.r_min) d = -d;
  } else {
    // A negative cycle: the bounds stay unknown and nothing is dropped.
    net.r_max.assign(n, graph::kNoPath);
    net.r_min.assign(n, -graph::kNoPath);
  }

  // One arc per constraint r(u) − r(v) ≤ c the bounds do not imply:
  // u -> v, cost c, cap ∞.  An unknown bound is ±kNoPath, far beyond
  // any c, so it never drops a constraint.
  cs.for_each([&](const Constraint& c) {
    if (net.r_max[static_cast<std::size_t>(c.u)] -
            net.r_min[static_cast<std::size_t>(c.v)] <=
        c.c)
      return;
    net.mcf.add_arc(c.u, c.v, graph::MinCostFlow::kInfCap, c.c);
    ++net.kept_constraints;
  });
  // The bounds, through the host; K where no path bounds a label.
  for (int v = 0; v < cs.num_vars; ++v) {
    if (v == host) continue;
    const auto sv = static_cast<std::size_t>(v);
    net.mcf.add_arc(v, host, graph::MinCostFlow::kInfCap,
                    std::min(big_k, net.r_max[sv]));
    net.mcf.add_arc(host, v, graph::MinCostFlow::kInfCap,
                    std::min(big_k, -net.r_min[sv]));
    if (net.r_min[sv] == net.r_max[sv]) ++net.fixed_labels;
  }
  return net;
}

std::optional<CanonicalLabels> solve_canonical_labels(
    RetimingFlowNetwork& net, int host,
    const std::vector<std::int64_t>& supply) {
  const int n = net.mcf.num_nodes();
  LAC_CHECK(static_cast<int>(supply.size()) == n);
  for (int v = 0; v < n; ++v)
    net.mcf.set_supply(v, supply[static_cast<std::size_t>(v)]);
  const auto sol = net.mcf.solve();
  if (!sol) return std::nullopt;  // negative cycle <=> constraints infeasible

  const auto dist = net.mcf.residual_distances_from(host);
  CanonicalLabels out;
  out.r.resize(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    const std::int64_t d = dist[static_cast<std::size_t>(v)];
    LAC_CHECK_MSG(d != graph::MinCostFlow::kUnreachable,
                  "vertex " << v << " unreachable from host in residual net");
    out.r[static_cast<std::size_t>(v)] = static_cast<int>(-d);
  }
  out.flow_cost_exact = sol->total_cost_exact;
  // Strong duality: the labels are an optimal dual solution, so the dual
  // objective Σ_v supply_v · r_v equals the exact flow cost.  An O(V)
  // check of the kernel's optimum on every solve.
  __int128 dual = 0;
  for (int v = 0; v < n; ++v)
    dual += static_cast<__int128>(supply[static_cast<std::size_t>(v)]) *
            out.r[static_cast<std::size_t>(v)];
  LAC_CHECK_MSG(dual == out.flow_cost_exact,
                "duality gap: dual objective " << static_cast<double>(dual)
                                               << " != flow cost "
                                               << out.flow_cost_exact);
  // The labels lie inside the bounds the network was reduced by.
  for (int v = 0; v < n; ++v) {
    const auto sv = static_cast<std::size_t>(v);
    LAC_CHECK_MSG(net.r_min[sv] <= out.r[sv] && out.r[sv] <= net.r_max[sv],
                  "label " << out.r[sv] << " of vertex " << v
                           << " outside its bounds [" << net.r_min[sv]
                           << ", " << net.r_max[sv] << "]");
  }
  return out;
}

std::optional<std::vector<int>> min_area_retiming(const RetimingGraph& g,
                                                  const ConstraintSet& cs,
                                                  MinAreaStats* stats) {
  // Unit areas, with an epsilon preference for keeping registers at
  // functional-unit outputs: along an interconnect-unit chain every
  // position has the same register count, so the optimum is degenerate;
  // the tie-break keeps cost-equal registers with the logic (where a
  // physical flop would integrate) instead of at an arbitrary wire
  // position.  The epsilon is far below any real weight difference, so
  // the register COUNT optimum is unchanged.
  std::vector<double> weights(static_cast<std::size_t>(g.num_vertices()), 1.0);
  for (int v = 0; v < g.num_vertices(); ++v)
    if (g.kind(v) == VertexKind::kInterconnect)
      weights[static_cast<std::size_t>(v)] = 1.002;
  WeightedMinAreaSolver solver(g, cs);
  return solver.solve(weights, stats);
}

double weighted_ff_area(const RetimingGraph& g, const std::vector<int>& r,
                        const std::vector<double>& area_weight) {
  double total = 0.0;
  for (int e = 0; e < g.num_edges(); ++e) {
    const auto w = g.retimed_weight(e, r);
    total += static_cast<double>(w) *
             area_weight[static_cast<std::size_t>(g.edge(e).tail)];
  }
  return total;
}

}  // namespace lac::retime
