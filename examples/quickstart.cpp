// Quickstart: run the whole interconnect-planning flow on one circuit.
//
// This walks the paper's Figure-1 pipeline end to end: load a sequential
// netlist, partition it into soft blocks, floorplan, route, insert
// repeaters, then compare plain min-area retiming against LAC-retiming at
// the paper's target clock period T_clk = T_min + 0.2 (T_init − T_min).
//
// Usage: quickstart [circuit-name]       (default: y641)
//        quickstart path/to/file.bench   (any ISCAS89 .bench netlist)
#include <cstdio>
#include <string>

#include "bench89/suite.h"
#include "netlist/bench_io.h"
#include "obs/report.h"
#include "planner/interconnect_planner.h"

int main(int argc, char** argv) {
  using namespace lac;

  const std::string which = argc > 1 ? argv[1] : "y641";
  netlist::Netlist nl = [&] {
    if (which.size() > 6 && which.substr(which.size() - 6) == ".bench")
      return netlist::parse_bench_file(which);
    if (which == "s27") return bench89::s27();
    return bench89::load(bench89::entry_by_name(which));
  }();

  std::printf("circuit %s: %d cells (%d gates, %d DFFs, %d PI, %d PO)\n",
              nl.name().c_str(), nl.num_cells(), nl.num_gates(),
              nl.count(netlist::CellType::kDff),
              nl.count(netlist::CellType::kInput),
              nl.count(netlist::CellType::kOutput));

  planner::PlannerConfig cfg;
  cfg.num_blocks = 9;
  cfg.run.seed = 7;
  planner::InterconnectPlanner planner(cfg);
  const auto result = planner.plan(nl, planner::PlanOptions{}).front();

  std::printf("\n--- physical planning ---\n");
  std::printf("chip: %lld x %lld um, whitespace %.1f%%\n",
              static_cast<long long>(result.fp.chip.width()),
              static_cast<long long>(result.fp.chip.height()),
              100.0 * result.fp.whitespace_fraction);
  std::printf("routing: %.0f um wirelength, %d overflowed edges\n",
              result.routing.total_wirelength_um,
              result.routing.overflowed_edges);
  std::printf("repeaters inserted: %d, interconnect units: %d\n",
              result.repeaters, result.interconnect_units);

  std::printf("\n--- timing ---\n");
  std::printf("T_init = %.1f ps, T_min = %.1f ps, T_clk = %.1f ps\n",
              result.t_init_ps, result.t_min_ps, result.t_clk_ps);
  std::printf("clock constraints: %zu (pruned from %zu)\n",
              result.clock_constraints, result.clock_constraints_unpruned);

  std::printf("\n--- retiming at T_clk ---\n");
  const auto& ma = result.min_area.report;
  const auto& lr = result.lac.report;
  std::printf("min-area : N_FOA=%lld  N_F=%lld  N_FN=%lld  (%.3f s)\n",
              static_cast<long long>(ma.n_foa), static_cast<long long>(ma.n_f),
              static_cast<long long>(ma.n_fn), result.min_area.exec_seconds);
  std::printf("LAC      : N_FOA=%lld  N_F=%lld  N_FN=%lld  N_wr=%d  (%.3f s)\n",
              static_cast<long long>(lr.n_foa), static_cast<long long>(lr.n_f),
              static_cast<long long>(lr.n_fn), result.lac.n_wr,
              result.lac.exec_seconds);
  std::printf("violation decrease: %.0f%%\n", result.foa_decrease_pct());

  // Verify both retimings actually meet the clock period.
  const double p_ma = result.graph.period_after_ps(result.min_area.r);
  const double p_lac = result.graph.period_after_ps(result.lac.r);
  std::printf("\nverified periods: min-area %.1f ps, LAC %.1f ps (<= %.1f)\n",
              p_ma, p_lac, result.t_clk_ps);

  // Every plan() run leaves a trace behind: write the structured run
  // report, then read it back to show how downstream tooling consumes one.
  const std::string report_path = "quickstart_report.json";
  if (obs::write_report(report_path, "quickstart",
                        {{"circuit", obs::json::Value::of(nl.name())}})) {
    std::printf("\n--- run report (%s) ---\n", report_path.c_str());
    const auto doc = obs::json::parse_file(report_path);
    if (doc) {
      if (const auto* trace = doc->find("trace");
          trace && trace->is_array() && !trace->array.empty()) {
        const auto& root = trace->array.front();
        const auto* name = root.find("name");
        const auto* seconds = root.find("seconds");
        const auto* children = root.find("children");
        std::printf("root span: %s (%.3f s), %zu child spans\n",
                    name ? name->str.c_str() : "?",
                    seconds ? seconds->num : 0.0,
                    children ? children->array.size() : std::size_t{0});
        if (children)
          for (const auto& c : children->array) {
            const auto* cn = c.find("name");
            const auto* cs = c.find("seconds");
            std::printf("  %-24s %.4f s\n", cn ? cn->str.c_str() : "?",
                        cs ? cs->num : 0.0);
          }
      }
      if (const auto* augment =
              doc->at_path({"metrics", "counters", "mcf.augmentations"}))
        std::printf("min-cost-flow augmentations (whole run): %lld\n",
                    static_cast<long long>(augment->num));
    }
  }
  return (p_ma <= result.t_clk_ps + 0.05 && p_lac <= result.t_clk_ps + 0.05)
             ? 0
             : 1;
}
