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
// Implication is transitive and well-founded — the implying pair lies on a
// critical (min W, then max D) path of the implied one, one edge shorter —
// so pruning with both rules preserves the feasible set exactly.  Because
// D(u,v) is d(v) plus the largest D(u,x) over tight predecessors x (and
// d(u) plus the largest D(y,v) over tight successors y), the two rules
// keep exactly the pairs with
//   D(u,v) > T >= D(u,v) - min(d(u), d(v)),
// a test on the pair alone, so each source row is pruned as it is swept
// (proof in constraints.cc).  This typically shrinks the violating pairs
// by one to two orders of magnitude, which is what keeps the repeated
// min-cost-flow solves of LAC-retiming fast.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
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

  // Content equality: identical constraints in the same order.  Only the
  // tests compare sets (a sweep against build_constraints()).
  friend bool operator==(const ConstraintSet&, const ConstraintSet&) = default;
};

struct ConstraintOptions {
  bool prune = true;
};

// Builds the constraint system for target clock period T (deci-ps).  One
// sweep computes every W/D row (WdMatrices::row) under `exec`, one row
// scratch per worker, and keeps each row's pairs as it goes; the set is
// identical for every thread count.  Counts the rows swept as
// `timing.wd_rows`.
[[nodiscard]] ConstraintSet build_constraints(
    const RetimingGraph& g, const WdMatrices& wd, std::int32_t period_decips,
    const ConstraintOptions& opt = {},
    const base::ExecPolicy& exec = base::ExecPolicy::sequential());

// One probe of the min-period search: builds the constraints of period T
// (deci-ps, at least the largest unit delay; the row sweep runs under
// `exec`) and solves them.  Either way the probe proves a bound on T_min:
//   * feasible — the labels are a legal retiming whose period, at most T,
//     is `bound_decips`; so T_min <= bound_decips;
//   * infeasible — the solver's negative cycle stays in the (unpruned)
//     system of every period below the smallest D(u,v) of its clock
//     constraints, so T_min >= bound_decips = that D, which exceeds T.
//     Without a cycle (the solver's relax-count backstop) it is T + 1.
// Successful relaxations are added to *relaxations when non-null.
struct PeriodProbe {
  bool feasible = false;
  std::int32_t bound_decips = 0;
  std::vector<int> r;  // feasible only; host label 0
};
[[nodiscard]] PeriodProbe probe_period(
    const RetimingGraph& g, const WdMatrices& wd, std::int32_t period_decips,
    const base::ExecPolicy& exec = base::ExecPolicy::sequential(),
    std::int64_t* relaxations = nullptr);

// What proved the search's final lower bound, which is T_min.
struct MinPeriodProof {
  // The longest register-free I/O -> I/O path, max { D(a,b) : a, b I/O,
  // W(a,b) = 0 } (0 without one): I/O labels are pinned to the host's, so
  // no legal retiming puts a register on such a path.
  std::int32_t io_bound_decips = 0;
  // "unit_delay", "io_path" or "cycle" (string literals): the largest unit
  // delay, the bound above, or an infeasible probe's negative cycle.
  std::string_view t_min_proof;
};

// Minimum achievable clock period over all retimings (ps), exact in deci-ps
// (every D value is integral there).  The search keeps lo <= T_min <= hi
// and moves each end only to a bound a certificate proves: it starts at
// lo = max(largest unit delay, I/O path bound) and hi = T_init (the
// identity retiming), probes lo first and the midpoint after that, and
// jumps to each probe's bound_decips.  If r_out is non-null it receives a
// legal retiming achieving the period, and `proof` (when non-null) what
// proved it minimal.  Counts `timing.period_probes` and
// `timing.spfa_relaxations`, both independent of the thread count.
[[nodiscard]] double min_period_retiming(
    const RetimingGraph& g, const WdMatrices& wd,
    std::vector<int>* r_out = nullptr,
    const base::ExecPolicy& exec = base::ExecPolicy::sequential(),
    MinPeriodProof* proof = nullptr);

// The clock period the planner retimes for (ps):
//   T_clk = T_min + slack_fraction · (T_init − T_min)
// (the paper's slack_fraction is 0.2).
[[nodiscard]] double clock_period_ps(double t_min_ps, double t_init_ps,
                                     double slack_fraction);

// The planner's timing landmarks: the min-period search of
// min_period_retiming plus T_clk at `slack_fraction`.  The search's first
// probe, at lo, sweeps every row; the same sweep also keeps the pairs of
// T_clk(lo) = clock_period_ps(lo, T_init).  When that probe is feasible,
// T_min = lo and those pairs are already the T_clk set, so `clock_set`
// holds it; otherwise (the probe fails, or lo = T_init and no probe runs)
// it is empty and take_clock_constraints sweeps T_clk itself.  T_min, the
// proof and the counters equal min_period_retiming's.
struct ClockPlan {
  double t_min_ps = 0.0;
  double t_clk_ps = 0.0;
  MinPeriodProof proof;
  std::optional<ConstraintSet> clock_set;
};
[[nodiscard]] ClockPlan plan_clock(
    const RetimingGraph& g, const WdMatrices& wd, double slack_fraction,
    const base::ExecPolicy& exec = base::ExecPolicy::sequential());

// The constraint set at plan.t_clk_ps, equal to build_constraints(g, wd,
// to_decips(plan.t_clk_ps)): the plan's clock_set (moved out) when the
// search left one, else a fresh sweep under `exec`.
[[nodiscard]] ConstraintSet take_clock_constraints(
    const RetimingGraph& g, const WdMatrices& wd, ClockPlan& plan,
    const base::ExecPolicy& exec = base::ExecPolicy::sequential());

}  // namespace lac::retime
