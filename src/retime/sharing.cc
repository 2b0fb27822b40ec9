#include "retime/sharing.h"

#include <algorithm>
#include <utility>

#include "base/check.h"
#include "retime/min_area.h"

namespace lac::retime {

std::optional<std::vector<int>> min_area_retiming_shared(
    const RetimingGraph& g, const WdMatrices& wd, std::int32_t period_decips,
    const std::vector<double>& area_weight) {
  const int n = g.num_vertices();
  LAC_CHECK(static_cast<int>(area_weight.size()) == n);

  // Objective terms: (u, v, w, beta) meaning beta · w_r over the arc
  // u -> v of weight w.  Single-fanout vertices keep their plain edge;
  // multi-fanout vertices contribute fanout + mirror terms.
  struct Term {
    int u, v, w;
    double beta;
  };
  std::vector<Term> terms;
  int num_vars = n;
  for (int v = 0; v < n; ++v) {
    if (v == g.host()) continue;
    const auto& fo = g.out_edges(v);
    if (fo.empty()) continue;
    LAC_CHECK_MSG(area_weight[static_cast<std::size_t>(v)] > 0.0,
                  "area weight of vertex " << v << " must be positive");
    if (fo.size() == 1) {
      const auto& e = g.edge(fo.front());
      terms.push_back({v, e.head, e.w, area_weight[static_cast<std::size_t>(v)]});
      continue;
    }
    int w_max = 0;
    for (const int ei : fo) w_max = std::max(w_max, g.edge(ei).w);
    const int mirror = num_vars++;
    const double beta =
        area_weight[static_cast<std::size_t>(v)] / static_cast<double>(fo.size());
    for (const int ei : fo) {
      const auto& e = g.edge(ei);
      terms.push_back({v, e.head, e.w, beta});
      terms.push_back({e.head, mirror, w_max - e.w, beta});
    }
  }

  // Constraint system: clock + edge + io constraints of the original graph,
  // plus non-negativity for every mirror arc.
  ConstraintSet cs = build_constraints(g, wd, period_decips);
  cs.num_vars = num_vars;
  for (const Term& t : terms)
    if (t.v >= n) cs.edge.push_back({t.u, t.v, t.w});

  // Quantised breadths.
  double max_beta = 0.0;
  for (const Term& t : terms) max_beta = std::max(max_beta, t.beta);
  LAC_CHECK(max_beta > 0.0);

  // Transshipment dual (same derivation as min_area.cc, with per-arc
  // breadths): minimise Σ b(x)·r(x), b(x) = Σ_in β − Σ_out β.
  std::vector<std::int64_t> supply(static_cast<std::size_t>(num_vars), 0);
  for (const Term& t : terms) {
    const std::int64_t bi = quantise_weight(t.beta, max_beta);
    supply[static_cast<std::size_t>(t.u)] += bi;
    supply[static_cast<std::size_t>(t.v)] -= bi;
  }
  RetimingFlowNetwork net = retiming_flow_network(cs, g.host());
  auto labels = solve_canonical_labels(net, g.host(), supply);
  if (!labels) return std::nullopt;

  std::vector<int> r = std::move(labels->r);
  r.resize(static_cast<std::size_t>(n));  // drop the mirrors' labels
  LAC_CHECK_MSG(g.is_legal_retiming(r),
                "sharing-aware flow produced an illegal retiming");
  return r;
}

double shared_ff_area(const RetimingGraph& g, const std::vector<int>& r,
                      const std::vector<double>& area_weight) {
  double total = 0.0;
  for (int v = 0; v < g.num_vertices(); ++v) {
    std::int64_t w_max = 0;
    for (const int ei : g.out_edges(v))
      w_max = std::max(w_max, g.retimed_weight(ei, r));
    total += static_cast<double>(w_max) * area_weight[static_cast<std::size_t>(v)];
  }
  return total;
}

}  // namespace lac::retime
