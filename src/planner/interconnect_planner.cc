#include "planner/interconnect_planner.h"

#include <utility>

#include "base/check.h"
#include "planner/plan_session.h"

namespace lac::planner {

InterconnectPlanner::InterconnectPlanner(PlannerConfig config)
    : config_(std::move(config)) {
  LAC_CHECK(config_.num_blocks >= 1);
  LAC_CHECK(config_.clock_slack_fraction >= 0.0 &&
            config_.clock_slack_fraction <= 1.0);
  config_.lac_opt.ff_area = config_.tech.dff_area;
  config_.tile_opt.site_area = config_.tech.dff_area;
  // The execution policy reaches the router through its own options.
  config_.route_opt.exec = config_.run.exec;
}

std::vector<PlanResult> InterconnectPlanner::plan(
    const netlist::Netlist& nl, const PlanOptions& opts) const {
  LAC_CHECK(opts.max_iterations >= 1);
  // The multi-iteration loop is the session API's expand_blocks() delta:
  // each extra iteration is one ECO whose re-plan reuses whatever the
  // expansion left intact.
  PlanSession session(nl, config_);
  std::vector<PlanResult> results;
  results.push_back(session.result());
  while (static_cast<int>(results.size()) < opts.max_iterations) {
    if (session.result().lac.report.fits()) break;
    session.begin_eco();
    session.expand_blocks();
    results.push_back(session.end_eco());
  }
  return results;
}

}  // namespace lac::planner
