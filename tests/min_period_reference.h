// Test-only references for min_period_retiming().
//
// bisection_min_period_decips is the plain integer bisection on
// [largest unit delay, T_init] in deci-ps, one feasibility probe per
// midpoint, that the library's search replaced.  Its probes are decided by
// relax_count_reference, so it shares no solver with the library.  T_min is
// unique, so the library's certificate search must land on exactly the
// same period.
//
// replay_certificate_search re-runs the library's search from outside,
// through the public probe_period(), so a test can check each probe's
// bound and count the probes the library reports.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "retime/constraints.h"
#include "retime/retiming_graph.h"
#include "retime/wd_matrices.h"
#include "tests/test_util.h"

namespace lac::test {

// Feasibility of period T by the relax-count-only reference solver.
inline bool reference_feasible(const retime::RetimingGraph& g,
                               const retime::WdMatrices& wd,
                               std::int32_t period_decips) {
  const auto cs = retime::build_constraints(g, wd, period_decips);
  return relax_count_reference(cs.num_vars, constraint_tuples(cs))
      .has_value();
}

struct BisectionProbe {
  std::int32_t period_decips = 0;
  bool feasible = false;
};

// T_min in deci-ps by bisection; `probes` (when non-null) receives every
// midpoint in order with its verdict.
inline std::int32_t bisection_min_period_decips(
    const retime::RetimingGraph& g, const retime::WdMatrices& wd,
    std::vector<BisectionProbe>* probes = nullptr) {
  std::int32_t lo = wd.max_vertex_delay_decips();
  std::int32_t hi = retime::to_decips(wd.t_init_ps());
  while (lo < hi) {
    const std::int32_t mid = lo + (hi - lo) / 2;
    const bool ok = reference_feasible(g, wd, mid);
    if (probes != nullptr) probes->push_back({mid, ok});
    if (ok)
      hi = mid;
    else
      lo = mid + 1;
  }
  return hi;
}

struct SearchProbe {
  std::int32_t period_decips = 0;
  retime::PeriodProbe probe;
};

// The probes of min_period_retiming's search, in order: lo starts at the
// larger of the largest unit delay and `io_bound_decips`, hi at T_init; the
// first probe is at lo, the later ones at the midpoint; each end jumps to
// the probe's bound.
inline std::vector<SearchProbe> replay_certificate_search(
    const retime::RetimingGraph& g, const retime::WdMatrices& wd,
    std::int32_t io_bound_decips) {
  std::int32_t lo = std::max(wd.max_vertex_delay_decips(), io_bound_decips);
  std::int32_t hi = retime::to_decips(wd.t_init_ps());
  std::vector<SearchProbe> probes;
  while (lo < hi) {
    const std::int32_t period = probes.empty() ? lo : lo + (hi - lo) / 2;
    probes.push_back({period, retime::probe_period(g, wd, period)});
    const retime::PeriodProbe& p = probes.back().probe;
    (p.feasible ? hi : lo) = p.bound_decips;
  }
  return probes;
}

}  // namespace lac::test
