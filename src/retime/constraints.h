// Retiming constraint systems (paper Eqns. (1) and (2)).
//
// All constraints have the difference form  r(u) - r(v) <= c :
//   * edge constraints   — r(tail) - r(head) <= w(e)        (w_r >= 0);
//   * clock constraints  — r(u) - r(v) <= W(u,v) - 1        for D(u,v) > T;
//   * I/O pinning        — r(io) = r(host), as two inequalities, so that
//                          retiming never changes I/O latency.
//
// Clock-constraint pruning (cf. Shenoy–Rudell / Maheshwari–Sapatnekar):
// a constraint is dropped when it is implied by another clock constraint
// plus edge constraints along a tight minimum-weight path:
//   * target side: (u,v) is implied by (u,x) + edge x->v when
//       D(u,x) > T  and  W(u,v) = W(u,x) + w(x->v);
//   * source side: (u,v) is implied by edge u->y + (y,v) when
//       D(y,v) > T  and  W(u,v) = w(u->y) + W(y,v).
// Implication is transitive and (as the register-free-cycle argument in
// constraints.cc shows) acyclic, so pruning with both rules preserves the
// feasible set exactly.  This typically shrinks the O(V^2) constraint set
// by one to two orders of magnitude, which is what keeps the repeated
// min-cost-flow solves of LAC-retiming fast.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "base/exec_policy.h"
#include "retime/retiming_graph.h"
#include "retime/wd_matrices.h"

namespace lac::retime {

struct Constraint {
  int u = -1;
  int v = -1;
  std::int32_t c = 0;  // r(u) - r(v) <= c
  friend bool operator==(const Constraint&, const Constraint&) = default;
};

struct ConstraintSet {
  int num_vars = 0;  // == graph num_vertices(); host participates
  std::vector<Constraint> edge;   // one per graph edge
  std::vector<Constraint> clock;  // pruned period constraints
  std::vector<Constraint> io;     // pin r(io) = r(host) (pairs)
  std::size_t clock_before_pruning = 0;  // for reporting

  [[nodiscard]] std::size_t total() const {
    return edge.size() + clock.size() + io.size();
  }
  template <typename F>
  void for_each(F&& f) const {
    for (const auto& c : edge) f(c);
    for (const auto& c : clock) f(c);
    for (const auto& c : io) f(c);
  }

  // Content equality — two sets with identical constraints (in order) build
  // identical flow networks, which is what lets an ECO re-plan keep a warm
  // WeightedMinAreaSolver session (see its matches()/rebind()).
  friend bool operator==(const ConstraintSet&, const ConstraintSet&) = default;
};

struct ConstraintOptions {
  bool prune = true;
};

// Builds the constraint system for target clock period T (deci-ps).  The
// O(V^2) scan for violating pairs runs its rows under `exec`; the set is
// identical for every thread count.
[[nodiscard]] ConstraintSet build_constraints(
    const RetimingGraph& g, const WdMatrices& wd, std::int32_t period_decips,
    const ConstraintOptions& opt = {},
    const base::ExecPolicy& exec = base::ExecPolicy::sequential());

// Feasibility of a clock period (shortest paths on the constraint graph).
[[nodiscard]] bool period_feasible(const RetimingGraph& g,
                                   const WdMatrices& wd,
                                   std::int32_t period_decips);

// Minimum achievable clock period over all retimings (ps), via integer
// binary search on deci-ps (exact: all D values are integral deci-ps).  Each
// probe builds the period's constraints (under `exec`) and solves them with
// graph::solve_difference_constraints.  If r_out is non-null it receives a
// legal retiming achieving the period.  Counts `timing.period_probes` and
// `timing.spfa_relaxations`, both independent of the thread count.
[[nodiscard]] double min_period_retiming(
    const RetimingGraph& g, const WdMatrices& wd,
    std::vector<int>* r_out = nullptr,
    const base::ExecPolicy& exec = base::ExecPolicy::sequential());

}  // namespace lac::retime
