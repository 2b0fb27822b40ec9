#include "retime/min_area.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
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
  std::vector<std::int64_t> r_min;
  std::vector<std::int64_t> r_max;
  if (to_host && from_host) {
    r_max = std::move(*from_host);
    r_min = std::move(*to_host);
    for (std::int64_t& d : r_min) d = -d;
  } else {
    // A negative cycle: the bounds stay unknown, nothing is dropped and
    // nothing is contracted.
    r_max.assign(n, graph::kNoPath);
    r_min.assign(n, -graph::kNoPath);
  }

  // One node per free label and one for the host, in vertex order; a
  // fixed label (r_min = r_max) is contracted into the host.
  std::vector<int> node(n, -1);
  int nodes = 0;
  int fixed = 0;
  for (std::size_t v = 0; v < n; ++v) {
    if (static_cast<int>(v) != host && r_min[v] == r_max[v])
      ++fixed;
    else
      node[v] = nodes++;
  }
  RetimingFlowNetwork net{graph::MinCostFlow(nodes), std::move(r_min),
                          std::move(r_max), std::move(node), 0, fixed};

  // One arc per constraint r(u) − r(v) ≤ c the bounds do not imply:
  // u -> v, cost c, cap ∞.  An unknown bound is ±kNoPath, far beyond
  // any c, so it never drops a constraint.  A constraint touching a fixed
  // label is always implied (r_max(u) ≤ r_max(v) + c and
  // r_min(v) ≥ r_min(u) − c), so every kept arc joins two network nodes.
  cs.for_each([&](const Constraint& c) {
    const auto su = static_cast<std::size_t>(c.u);
    const auto sv = static_cast<std::size_t>(c.v);
    if (net.r_max[su] - net.r_min[sv] <= c.c) return;
    LAC_CHECK_MSG(net.node[su] >= 0 && net.node[sv] >= 0,
                  "kept constraint r(" << c.u << ") - r(" << c.v
                                       << ") <= " << c.c
                                       << " touches a fixed label");
    net.mcf.add_arc(net.node[su], net.node[sv], graph::MinCostFlow::kInfCap,
                    c.c);
    ++net.kept_constraints;
  });
  // The bounds of the free labels, through the host; K where no path
  // bounds a label.
  const int host_node = net.node[static_cast<std::size_t>(host)];
  for (std::size_t v = 0; v < n; ++v) {
    const int x = net.node[v];
    if (x < 0 || x == host_node) continue;
    net.mcf.add_arc(x, host_node, graph::MinCostFlow::kInfCap,
                    std::min(big_k, net.r_max[v]));
    net.mcf.add_arc(host_node, x, graph::MinCostFlow::kInfCap,
                    std::min(big_k, -net.r_min[v]));
  }
  return net;
}

std::optional<CanonicalLabels> solve_canonical_labels(
    RetimingFlowNetwork& net, int host,
    const std::vector<std::int64_t>& supply) {
  const auto n = net.node.size();
  LAC_CHECK(supply.size() == n);
  const int host_node = net.node[static_cast<std::size_t>(host)];
  // A fixed label's supply ships from the host, and its term of the dual
  // objective is the constant supply · r_min.
  std::int64_t host_supply = 0;
  __int128 fixed_cost = 0;
  for (std::size_t v = 0; v < n; ++v) {
    if (net.node[v] >= 0) {
      net.mcf.set_supply(net.node[v], supply[v]);
    } else {
      host_supply += supply[v];
      fixed_cost += static_cast<__int128>(supply[v]) * net.r_min[v];
    }
  }
  net.mcf.set_supply(host_node, supply[static_cast<std::size_t>(host)] +
                                    host_supply);
  const auto sol = net.mcf.solve();
  if (!sol) return std::nullopt;  // negative cycle <=> constraints infeasible

  const auto dist = net.mcf.residual_distances_from(host_node);
  CanonicalLabels out;
  out.r.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    const int x = net.node[v];
    if (x < 0) {
      out.r[v] = static_cast<int>(net.r_min[v]);
      continue;
    }
    const std::int64_t d = dist[static_cast<std::size_t>(x)];
    LAC_CHECK_MSG(d != graph::MinCostFlow::kUnreachable,
                  "vertex " << v << " unreachable from host in residual net");
    out.r[v] = static_cast<int>(-d);
  }
  const __int128 total = fixed_cost + sol->total_cost_exact;
  LAC_CHECK_MSG(total >= std::numeric_limits<std::int64_t>::min() &&
                    total <= std::numeric_limits<std::int64_t>::max(),
                "flow cost overflows int64");
  out.flow_cost_exact = static_cast<std::int64_t>(total);
  // Strong duality: the labels are an optimal dual solution, so the dual
  // objective Σ_v supply_v · r_v equals the exact flow cost.  An O(V)
  // check of the kernel's optimum on every solve.
  __int128 dual = 0;
  for (std::size_t v = 0; v < n; ++v)
    dual += static_cast<__int128>(supply[v]) * out.r[v];
  LAC_CHECK_MSG(dual == out.flow_cost_exact,
                "duality gap: dual objective " << static_cast<double>(dual)
                                               << " != flow cost "
                                               << out.flow_cost_exact);
  // The labels lie inside the bounds the network was reduced by.
  for (std::size_t v = 0; v < n; ++v) {
    LAC_CHECK_MSG(net.r_min[v] <= out.r[v] && out.r[v] <= net.r_max[v],
                  "label " << out.r[v] << " of vertex " << v
                           << " outside its bounds [" << net.r_min[v]
                           << ", " << net.r_max[v] << "]");
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
