#include "retime/weighted_min_area_solver.h"

#include <algorithm>
#include <utility>

#include "base/check.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace lac::retime {

WeightedMinAreaSolver::WeightedMinAreaSolver(const RetimingGraph& g,
                                             const ConstraintSet& cs)
    : g_(g),
      cs_(cs),
      net_(retiming_flow_network(cs, g.host())),
      ai_(static_cast<std::size_t>(g.num_vertices()), 0),
      supply_(static_cast<std::size_t>(g.num_vertices()), 0) {
  LAC_CHECK(cs_.num_vars == g_.num_vertices());
  // Before the first solve the warm-start vectors are still empty, so warm
  // and cold instances of the same network report the same value.
  obs::gauge("mem.mcf_network_bytes",
             static_cast<double>(net_.mcf.bytes_used()));
  obs::count("retime.kept_constraints", net_.kept_constraints);
  obs::count("retime.fixed_labels", net_.fixed_labels);
}

std::optional<std::vector<int>> WeightedMinAreaSolver::solve(
    const std::vector<double>& area_weight, MinAreaStats* stats) {
  const int n = g_.num_vertices();
  LAC_CHECK(static_cast<int>(area_weight.size()) == n);

  obs::Span span("retime.weighted_min_area");
  span.annotate("vertices", n);
  span.annotate("constraints", cs_.total());
  span.annotate("kept_constraints", net_.kept_constraints);
  span.annotate("fixed_labels", net_.fixed_labels);
  span.annotate("network_nodes", net_.mcf.num_nodes());
  const bool warm_round = rounds_ > 0;
  span.annotate("warm", warm_round);
  ++rounds_;

  double max_w = 0.0;
  for (int v = 0; v < n; ++v) {
    if (v == g_.host()) continue;
    LAC_CHECK_MSG(area_weight[static_cast<std::size_t>(v)] > 0.0,
                  "area weight of vertex " << v << " must be positive");
    max_w = std::max(max_w, area_weight[static_cast<std::size_t>(v)]);
  }
  LAC_CHECK(max_w > 0.0);
  for (int v = 0; v < n; ++v) {
    ai_[static_cast<std::size_t>(v)] =
        v == g_.host()
            ? 0
            : quantise_weight(area_weight[static_cast<std::size_t>(v)], max_w);
  }

  // Supplies: supply(v) = fo(v) − fi(v) (see min_area.h derivation).  Only
  // the supplies change between rounds; arcs and costs are fixed.
  std::fill(supply_.begin(), supply_.end(), 0);
  for (const auto& e : g_.edges()) {
    supply_[static_cast<std::size_t>(e.tail)] +=
        ai_[static_cast<std::size_t>(e.tail)];  // fo
    supply_[static_cast<std::size_t>(e.head)] -=
        ai_[static_cast<std::size_t>(e.tail)];  // fi
  }

  // Round 1 ships from zero flow; later rounds warm-start from the
  // previous round's optimum (solve() starts from zero again when none is
  // retained, e.g. after an infeasible round).  Canonical labels do not
  // depend on that history, so cold and warm solves (and any thread
  // count) produce the same retiming.
  auto labels = solve_canonical_labels(net_, g_.host(), supply_);
  span.annotate("feasible", labels.has_value());
  span.annotate("phases", net_.mcf.stats().phases);
  span.annotate("augmentations", net_.mcf.stats().augmentations);
  if (!labels) return std::nullopt;
  std::vector<int> r = std::move(labels->r);

  LAC_CHECK_MSG(g_.is_legal_retiming(r),
                "min-cost-flow produced an illegal retiming");
  if (stats != nullptr) {
    stats->objective = weighted_ff_area(g_, r, area_weight);
    stats->flow_cost_exact = labels->flow_cost_exact;
    stats->phases = net_.mcf.stats().phases;
    stats->augmentations = net_.mcf.stats().augmentations;
    stats->warm = net_.mcf.stats().warm;
  }
  return r;
}

}  // namespace lac::retime
