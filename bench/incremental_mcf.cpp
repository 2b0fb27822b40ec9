// Cold-vs-warm comparison of the LAC inner solver (docs/INCREMENTAL_MCF.md).
//
// Per suite circuit: plan once to obtain the physical retiming graph and
// tile grid, rebuild the clocking constraints at the chosen T_clk, then run
// the LAC loop twice on identical inputs — once re-solving the min-cost
// flow cold every round (--lac-incremental off semantics) and once with the
// warm-started solver session (the default).  The tool
//   * verifies both modes return bit-identical results (retiming labels,
//     full per-round N_FOA trajectory, final report) and exits 1 on any
//     mismatch — this is the equivalence claim of the incremental solver,
//     checked on real planned circuits rather than synthetic graphs;
//   * reports the solver effort saved: augmentations (paths pushed) AND
//     Dijkstra phases on rounds >= 2 (round 1 is cold in both modes) plus
//     LAC wall time.  Under the primal-dual kernel one phase ships a
//     maximum flow over the admissible network, i.e. many augmentations,
//     so the phase count is the Dijkstra-effort metric and the
//     augmentation count the path-push metric; both are reported so the
//     warm advantage stays measurable (docs/INCREMENTAL_MCF.md).
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "base/table.h"
#include "base/str_util.h"
#include "bench89/suite.h"
#include "bench_io.h"
#include "obs/span.h"
#include "planner/interconnect_planner.h"
#include "retime/constraints.h"
#include "retime/lac_retimer.h"
#include "retime/wd_matrices.h"

int main(int argc, char** argv) {
  using namespace lac;
  const bench_io::Cli cli =
      bench_io::parse_cli(argc, argv, "incremental_mcf", /*with_limit=*/true);

  std::printf("=== Incremental MCF: cold vs warm-started LAC solves ===\n\n");
  const std::string csv_path = bench_io::join(cli.out_dir, "incremental_mcf.csv");
  std::ofstream csv(csv_path);
  csv << "circuit,n_wr,cold_aug_r2plus,warm_aug_r2plus,aug_saved_pct,"
         "cold_phases_r2plus,warm_phases_r2plus,"
         "cold_t_s,warm_t_s,identical\n";
  TextTable table({"circuit", "N_wr", "cold aug(r>=2)", "warm aug(r>=2)",
                   "saved", "cold ph(r>=2)", "warm ph(r>=2)", "cold T(s)",
                   "warm T(s)", "identical"});

  std::vector<bench89::SuiteEntry> suite = bench89::table1_suite();
  if (cli.limit >= 0 && cli.limit < static_cast<long long>(suite.size()))
    suite.resize(static_cast<std::size_t>(cli.limit));

  bool all_identical = true;
  long long total_cold_aug = 0, total_warm_aug = 0;
  long long total_cold_phases = 0, total_warm_phases = 0;

  for (const auto& entry : suite) {
    const auto nl = bench89::load(entry);
    planner::PlannerConfig cfg;
    cfg.run.seed = 7;
    cfg.run.exec = cli.exec();
    cfg.num_blocks = entry.recommended_blocks;
    const planner::InterconnectPlanner planner(cfg);
    const planner::PlanResult res =
        planner.plan(nl, planner::PlanOptions{.max_iterations = 1}).front();

    // Rebuild the constraint system the planner solved (same T_clk).
    const auto& g = res.graph;
    const auto wd = retime::WdMatrices::compute(g, cli.exec());
    const auto cs =
        retime::build_constraints(g, wd, retime::to_decips(res.t_clk_ps));

    retime::LacOptions opt = planner.config().lac_opt;

    opt.incremental = false;
    obs::Span cold_span("bench.lac_cold");
    const retime::LacResult cold = retime::lac_retiming(g, *res.grid, cs, opt);
    const double cold_s = cold_span.elapsed_seconds();

    opt.incremental = true;
    obs::Span warm_span("bench.lac_warm");
    const retime::LacResult warm = retime::lac_retiming(g, *res.grid, cs, opt);
    const double warm_s = warm_span.elapsed_seconds();

    // Equivalence: the retiming, the round count and the whole N_FOA
    // trajectory must match bit for bit.
    bool identical = cold.r == warm.r && cold.n_wr == warm.n_wr &&
                     cold.report.n_foa == warm.report.n_foa &&
                     cold.report.n_f == warm.report.n_f &&
                     cold.rounds.size() == warm.rounds.size();
    if (identical)
      for (std::size_t i = 0; i < cold.rounds.size(); ++i)
        identical = identical &&
                    cold.rounds[i].n_foa == warm.rounds[i].n_foa &&
                    cold.rounds[i].n_f == warm.rounds[i].n_f &&
                    cold.rounds[i].best_n_foa == warm.rounds[i].best_n_foa &&
                    cold.rounds[i].improved == warm.rounds[i].improved;
    all_identical = all_identical && identical;

    long long cold_aug = 0, warm_aug = 0;
    long long cold_phases = 0, warm_phases = 0;
    for (std::size_t i = 1; i < cold.rounds.size(); ++i) {
      cold_aug += cold.rounds[i].augmentations;
      cold_phases += cold.rounds[i].phases;
    }
    for (std::size_t i = 1; i < warm.rounds.size(); ++i) {
      warm_aug += warm.rounds[i].augmentations;
      warm_phases += warm.rounds[i].phases;
    }
    total_cold_aug += cold_aug;
    total_warm_aug += warm_aug;
    total_cold_phases += cold_phases;
    total_warm_phases += warm_phases;

    const double saved_pct =
        cold_aug > 0 ? 100.0 * static_cast<double>(cold_aug - warm_aug) /
                           static_cast<double>(cold_aug)
                     : 0.0;
    csv << entry.spec.name << ',' << cold.n_wr << ',' << cold_aug << ','
        << warm_aug << ',' << saved_pct << ',' << cold_phases << ','
        << warm_phases << ',' << cold_s << ',' << warm_s << ','
        << (identical ? 1 : 0) << '\n';
    table.add_row({entry.spec.name, std::to_string(cold.n_wr),
                   std::to_string(cold_aug), std::to_string(warm_aug),
                   cold_aug > 0 ? format_double(saved_pct, 0) + "%" : "n/a",
                   std::to_string(cold_phases), std::to_string(warm_phases),
                   format_double(cold_s, 3), format_double(warm_s, 3),
                   identical ? "yes" : "NO"});
  }

  std::printf("%s\n", table.to_string().c_str());
  std::printf("(machine-readable copy written to %s)\n\n", csv_path.c_str());
  if (total_cold_aug > 0)
    std::printf("Aggregate rounds>=2 augmentations: cold %lld -> warm %lld"
                " (%.0f%% removed)\n",
                total_cold_aug, total_warm_aug,
                100.0 * static_cast<double>(total_cold_aug - total_warm_aug) /
                    static_cast<double>(total_cold_aug));
  if (total_cold_phases > 0)
    std::printf("Aggregate rounds>=2 Dijkstra phases: cold %lld -> warm %lld"
                " (%.0f%% removed)\n",
                total_cold_phases, total_warm_phases,
                100.0 *
                    static_cast<double>(total_cold_phases - total_warm_phases) /
                    static_cast<double>(total_cold_phases));
  if (!all_identical)
    std::printf("ERROR: warm-started results diverged from cold results\n");

  bench_io::write_bench_report(
      cli.out_dir, "incremental_mcf",
      {{"circuits", obs::json::Value::of(suite.size())},
       {"cold_augmentations_r2plus", obs::json::Value::of(total_cold_aug)},
       {"warm_augmentations_r2plus", obs::json::Value::of(total_warm_aug)},
       {"cold_phases_r2plus", obs::json::Value::of(total_cold_phases)},
       {"warm_phases_r2plus", obs::json::Value::of(total_warm_phases)},
       {"identical", obs::json::Value::of(all_identical)}});
  return all_identical ? 0 : 1;
}
