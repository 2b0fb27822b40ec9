// Extension ablation: the paper fixes the target period at the 20% point
// between T_min and T_init.  This bench sweeps that slack fraction over
// [0, 1] on two circuits and shows how the violation counts and flip-flop
// totals of both retimings move: tight clocks force registers onto the
// timing-feasible band (more violations, harder for LAC to fix); loose
// clocks approach the unconstrained min-area solution.
#include <cstdio>
#include <string>
#include <vector>

#include "base/parallel.h"
#include "base/str_util.h"
#include "base/table.h"
#include "bench89/suite.h"
#include "bench_io.h"
#include "planner/interconnect_planner.h"

int main(int argc, char** argv) {
  using namespace lac;
  const bench_io::Cli cli = bench_io::parse_cli(argc, argv, "clock_sweep");
  const std::string& out = cli.out_dir;
  const base::ExecPolicy exec = cli.exec();

  const std::vector<const char*> circuits{"y526", "y1269"};
  const std::vector<double> fractions{0.0, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0};

  std::printf("=== Clock-slack sweep: T_clk = T_min + f (T_init - T_min) ===\n\n");
  // Every (circuit, fraction) pair plans independently; rows are printed
  // in sweep order afterwards.
  const auto results = base::parallel_map<planner::PlanResult>(
      exec, circuits.size() * fractions.size(), [&](std::size_t j) {
        const auto& entry =
            bench89::entry_by_name(circuits[j / fractions.size()]);
        const auto nl = bench89::load(entry);
        planner::PlannerConfig cfg;
        cfg.run.seed = 7;
        cfg.run.exec = exec;
        cfg.num_blocks = entry.recommended_blocks;
        cfg.clock_slack_fraction = fractions[j % fractions.size()];
        const planner::InterconnectPlanner planner(cfg);
        return planner.plan(nl, planner::PlanOptions{}).front();
      });

  for (std::size_t c = 0; c < circuits.size(); ++c) {
    std::printf("--- %s ---\n", circuits[c]);
    TextTable table({"f", "Tclk(ps)", "MA:N_FOA", "MA:N_F", "LAC:N_FOA",
                     "LAC:N_F", "N_wr"});
    for (std::size_t k = 0; k < fractions.size(); ++k) {
      const planner::PlanResult& res = results[c * fractions.size() + k];
      table.add_row({format_double(fractions[k], 2),
                     format_double(res.t_clk_ps, 1),
                     std::to_string(res.min_area.report.n_foa),
                     std::to_string(res.min_area.report.n_f),
                     std::to_string(res.lac.report.n_foa),
                     std::to_string(res.lac.report.n_f),
                     std::to_string(res.lac.n_wr)});
    }
    std::printf("%s\n", table.to_string().c_str());
  }
  bench_io::write_bench_report(out, "clock_sweep");
  return 0;
}
