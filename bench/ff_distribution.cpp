// Reproduces the paper's §5 distribution observations:
//   * "on the average, about 10% of the flip-flops are inserted into
//     interconnects; the percentage can be as high as 30%" — we report
//     N_FN / N_F per circuit for the LAC solution;
//   * "For some circuits, there is a large difference between the initial
//     clock period and minimum clock period ... caused by the unbalanced
//     distribution of flip-flops" — we report (T_init - T_min)/T_min.
#include <cstdio>
#include <string>

#include "base/parallel.h"
#include "base/str_util.h"
#include "base/table.h"
#include "bench89/suite.h"
#include "bench_io.h"
#include "planner/interconnect_planner.h"

int main(int argc, char** argv) {
  using namespace lac;
  const bench_io::Cli cli = bench_io::parse_cli(argc, argv, "ff_distribution");
  const std::string& out = cli.out_dir;
  const base::ExecPolicy exec = cli.exec();

  std::printf("=== Flip-flop distribution & clock-period gap ===\n\n");
  TextTable table({"circuit", "N_F", "N_FN", "FF-in-wire %", "T_init(ps)",
                   "T_min(ps)", "gap %"});
  double pct_sum = 0.0, pct_max = 0.0, gap_max = 0.0;
  int n = 0;
  // Per-circuit fan-out; rows aggregate in suite order afterwards.
  const auto suite = bench89::table1_suite();
  const auto results = base::parallel_map<planner::PlanResult>(
      exec, suite.size(), [&](std::size_t i) {
        const auto nl = bench89::load(suite[i]);
        planner::PlannerConfig cfg;
        cfg.run.seed = 7;
        cfg.run.exec = exec;
        cfg.num_blocks = suite[i].recommended_blocks;
        const planner::InterconnectPlanner planner(cfg);
        return planner.plan(nl, planner::PlanOptions{}).front();
      });
  for (std::size_t c = 0; c < suite.size(); ++c) {
    const auto& entry = suite[c];
    const planner::PlanResult& res = results[c];
    const double pct =
        res.lac.report.n_f > 0
            ? 100.0 * static_cast<double>(res.lac.report.n_fn) /
                  static_cast<double>(res.lac.report.n_f)
            : 0.0;
    const double gap = 100.0 * (res.t_init_ps - res.t_min_ps) / res.t_min_ps;
    pct_sum += pct;
    pct_max = std::max(pct_max, pct);
    gap_max = std::max(gap_max, gap);
    ++n;
    table.add_row({entry.spec.name, std::to_string(res.lac.report.n_f),
                   std::to_string(res.lac.report.n_fn), format_double(pct, 1),
                   format_double(res.t_init_ps, 1),
                   format_double(res.t_min_ps, 1), format_double(gap, 1)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("Average FF-in-interconnect fraction: %.1f%% (max %.1f%%)\n",
              pct_sum / n, pct_max);
  std::printf("Largest T_init-vs-T_min gap: %.1f%%\n", gap_max);
  std::printf("Paper: ~10%% average, up to 30%%; some circuits show a large\n"
              "initial-vs-minimum clock period difference.\n");
  bench_io::write_bench_report(out, "ff_distribution");
  return 0;
}
