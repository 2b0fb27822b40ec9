// Test-only reference for retime::retiming_flow_network(): the unreduced
// transshipment network of the retiming LP — one kInfCap arc per
// constraint of the set, then the host arcs v -> host and host -> v of
// cost K for every other node, one node per vertex with no label
// contracted — and a weighted min-area solve over it
// that reads the canonical labels r(v) = −d(host → v) off the optimal
// residual network, as WeightedMinAreaSolver does.  The library builds
// the bounded network instead (retime/min_area.h); the two describe the
// same polytope, so every solve must return the same retiming and the
// same exact flow cost.  Kept in tests/ so the library has one builder.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <vector>

#include "graph/min_cost_flow.h"
#include "retime/constraints.h"
#include "retime/min_area.h"
#include "retime/retiming_graph.h"

namespace lac::test {

inline graph::MinCostFlow unreduced_flow_network(
    const retime::ConstraintSet& cs, int host) {
  graph::MinCostFlow mcf(cs.num_vars);
  std::int64_t max_c = 1;
  cs.for_each([&](const retime::Constraint& c) {
    mcf.add_arc(c.u, c.v, graph::MinCostFlow::kInfCap, c.c);
    max_c = std::max<std::int64_t>(max_c,
                                   std::abs(static_cast<std::int64_t>(c.c)));
  });
  const std::int64_t big_k =
      static_cast<std::int64_t>(cs.num_vars + 1) * (max_c + 1);
  for (int v = 0; v < cs.num_vars; ++v) {
    if (v == host) continue;
    mcf.add_arc(v, host, graph::MinCostFlow::kInfCap, big_k);
    mcf.add_arc(host, v, graph::MinCostFlow::kInfCap, big_k);
  }
  return mcf;
}

struct UnreducedSolve {
  std::vector<int> r;  // canonical labels, r[host] = 0
  std::int64_t flow_cost_exact = 0;
};

// Supplies fo(v) − fi(v) of the quantised weights (retime/min_area.h),
// one per vertex.
inline std::vector<std::int64_t> min_area_supplies(
    const retime::RetimingGraph& g, const std::vector<double>& area_weight) {
  const int n = g.num_vertices();
  double max_w = 0.0;
  for (int v = 0; v < n; ++v)
    if (v != g.host())
      max_w = std::max(max_w, area_weight[static_cast<std::size_t>(v)]);
  std::vector<std::int64_t> supply(static_cast<std::size_t>(n), 0);
  for (const auto& e : g.edges()) {
    if (e.tail == g.host()) continue;
    const std::int64_t a = retime::quantise_weight(
        area_weight[static_cast<std::size_t>(e.tail)], max_w);
    supply[static_cast<std::size_t>(e.tail)] += a;
    supply[static_cast<std::size_t>(e.head)] -= a;
  }
  return supply;
}

// Weighted min-area retiming over the unreduced network, solved from zero
// flow; nullopt if the constraints are infeasible.
inline std::optional<UnreducedSolve> unreduced_min_area(
    const retime::RetimingGraph& g, const retime::ConstraintSet& cs,
    const std::vector<double>& area_weight) {
  const int n = g.num_vertices();
  const std::vector<std::int64_t> supply = min_area_supplies(g, area_weight);
  graph::MinCostFlow mcf = unreduced_flow_network(cs, g.host());
  for (int v = 0; v < n; ++v)
    mcf.set_supply(v, supply[static_cast<std::size_t>(v)]);
  const auto sol = mcf.solve();
  if (!sol) return std::nullopt;
  const auto dist = mcf.residual_distances_from(g.host());
  UnreducedSolve out;
  out.r.resize(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v)
    out.r[static_cast<std::size_t>(v)] =
        static_cast<int>(-dist[static_cast<std::size_t>(v)]);
  out.flow_cost_exact = sol->total_cost_exact;
  return out;
}

}  // namespace lac::test
