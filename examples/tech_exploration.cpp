// Technology exploration: how wire parasitics move the interconnect-
// pipelining frontier the paper is motivated by ("the wire delay can be as
// long as about ten clock cycles").
//
// For a range of wire RC scalings, this example reports the buffered
// cross-chip wire delay, how many clock cycles it costs at the suite
// circuit's minimum period, and how many flip-flops the planner's retiming
// ends up placing inside interconnects.
#include <cstdio>

#include "base/str_util.h"
#include "base/table.h"
#include "bench89/suite.h"
#include "planner/interconnect_planner.h"
#include "timing/technology.h"

int main(int argc, char** argv) {
  using namespace lac;
  const char* name = argc > 1 ? argv[1] : "y838";
  const auto& entry = bench89::entry_by_name(name);
  const auto nl = bench89::load(entry);

  std::printf("=== wire-RC exploration on %s ===\n\n", name);
  TextTable table({"RC scale", "x-chip delay(ps)", "T_min(ps)",
                   "cycles/crossing", "N_F", "N_FN", "FF-in-wire %"});
  for (const double scale : {0.5, 1.0, 2.0, 4.0}) {
    planner::PlannerConfig cfg;
    cfg.run.seed = 7;
    cfg.num_blocks = entry.recommended_blocks;
    cfg.tech.wire_res_per_um *= scale;
    cfg.tech.wire_cap_per_um *= scale;
    planner::InterconnectPlanner planner(cfg);
    const auto res = planner.plan(nl, planner::PlanOptions{}).front();

    // Cross-chip buffered delay estimate: chip diagonal in L_max stages.
    const double span = static_cast<double>(res.fp.chip.width() +
                                            res.fp.chip.height());
    const int stages = std::max(
        1, static_cast<int>(span / cfg.tech.max_repeater_interval));
    const double per_stage = timing::repeater_stage_delay(
        cfg.tech, span / stages, cfg.tech.repeater_in_cap);
    const double crossing = per_stage * stages;

    const auto& lr = res.lac.report;
    const double pct = lr.n_f > 0 ? 100.0 * static_cast<double>(lr.n_fn) /
                                        static_cast<double>(lr.n_f)
                                  : 0.0;
    table.add_row({format_double(scale, 1), format_double(crossing, 0),
                   format_double(res.t_min_ps, 0),
                   format_double(crossing / res.t_min_ps, 2),
                   std::to_string(lr.n_f), std::to_string(lr.n_fn),
                   format_double(pct, 1)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("As wires slow down relative to logic, crossings cost more\n"
              "cycles and retiming pushes more flip-flops into the wires —\n"
              "the deep-submicron trend the paper's flow exists for.\n");
  return 0;
}
