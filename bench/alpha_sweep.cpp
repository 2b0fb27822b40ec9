// Ablation for the paper's §4.2 claim: "Experimental results indicated
// that a value [of alpha] around 0.2 typically produces the best results."
// Sweeps the re-weighting coefficient over the LAC loop on a subset of the
// suite and reports remaining violations, total flip-flops and solve
// counts per alpha, aggregated across circuits.
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
  const bench_io::Cli cli = bench_io::parse_cli(argc, argv, "alpha_sweep");
  const std::string& out = cli.out_dir;
  const base::ExecPolicy exec = cli.exec();

  const std::vector<double> alphas{0.0, 0.05, 0.1, 0.2, 0.4, 0.7, 1.0};
  const std::vector<const char*> circuits{"y386", "y526", "y838", "y1269",
                                          "y1423"};

  std::printf("=== Alpha sweep (LAC re-weighting coefficient) ===\n\n");
  // Every (alpha, circuit) pair is an independent planning run; fan them
  // all out and aggregate per alpha in sweep order afterwards.
  struct Outcome {
    long long foa = 0, nf = 0;
    double nwr = 0.0;
  };
  const auto outcomes = base::parallel_map<Outcome>(
      exec, alphas.size() * circuits.size(), [&](std::size_t j) {
        const double alpha = alphas[j / circuits.size()];
        const auto& entry = bench89::entry_by_name(circuits[j % circuits.size()]);
        const auto nl = bench89::load(entry);
        planner::PlannerConfig cfg;
        cfg.run.seed = 7;
        cfg.run.exec = exec;
        cfg.num_blocks = entry.recommended_blocks;
        cfg.lac_opt.alpha = alpha;
        const planner::InterconnectPlanner planner(cfg);
        const auto res = planner.plan(nl, planner::PlanOptions{}).front();
        return Outcome{res.lac.report.n_foa, res.lac.report.n_f,
                       static_cast<double>(res.lac.n_wr)};
      });

  TextTable table({"alpha", "sum N_FOA", "sum N_F", "avg N_wr"});
  for (std::size_t a = 0; a < alphas.size(); ++a) {
    long long foa = 0, nf = 0;
    double nwr = 0.0;
    for (std::size_t c = 0; c < circuits.size(); ++c) {
      const Outcome& o = outcomes[a * circuits.size() + c];
      foa += o.foa;
      nf += o.nf;
      nwr += o.nwr;
    }
    table.add_row({format_double(alphas[a], 2), std::to_string(foa),
                   std::to_string(nf),
                   format_double(nwr / static_cast<double>(circuits.size()), 1)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("Expected shape: alpha = 0 degenerates to plain min-area\n"
              "retiming (weights never change), very large alpha overshoots;\n"
              "values around 0.2 give the fewest remaining violations.\n");
  bench_io::write_bench_report(out, "alpha_sweep");
  return 0;
}
