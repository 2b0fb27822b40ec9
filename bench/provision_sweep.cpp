// Calibration ablation (DESIGN.md §6b): how the violation regime depends
// on how much of the register demand the floorplan provisions for.  The
// paper attributes its violations to block areas estimated "based on the
// original netlist without any physical information"; the provisioning
// factor operationalises that underestimate.
//
//   factor 1.0  — blocks sized for the full per-edge register demand:
//                 almost nothing violates, LAC trivially succeeds;
//   factor ~0.6 — the paper's regime: most circuits violate under plain
//                 min-area retiming and LAC removes the bulk;
//   factor <0.4 — violations become structural (no placement fits) and
//                 even LAC + floorplan expansion struggles — the s1269
//                 pathology of the paper.
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
  const bench_io::Cli cli = bench_io::parse_cli(argc, argv, "provision_sweep");
  const std::string& out = cli.out_dir;
  const base::ExecPolicy exec = cli.exec();

  const std::vector<const char*> circuits{"y298", "y526", "y838", "y1269"};
  const std::vector<double> provisions{1.0, 0.8, 0.6, 0.5, 0.4};
  std::printf("=== Register-provisioning sweep ===\n\n");
  // Every (provision, circuit) pair plans independently; sums are
  // aggregated per provision in sweep order afterwards.
  struct Outcome {
    long long ma = 0, lac = 0;
  };
  const auto outcomes = base::parallel_map<Outcome>(
      exec, provisions.size() * circuits.size(), [&](std::size_t j) {
        const auto& entry =
            bench89::entry_by_name(circuits[j % circuits.size()]);
        const auto nl = bench89::load(entry);
        planner::PlannerConfig cfg;
        cfg.run.seed = 7;
        cfg.run.exec = exec;
        cfg.num_blocks = entry.recommended_blocks;
        cfg.dff_provision_factor = provisions[j / circuits.size()];
        const planner::InterconnectPlanner planner(cfg);
        const auto res = planner.plan(nl, planner::PlanOptions{}).front();
        return Outcome{res.min_area.report.n_foa, res.lac.report.n_foa};
      });

  TextTable table({"provision", "sum MA:N_FOA", "sum LAC:N_FOA", "decrease"});
  for (std::size_t p = 0; p < provisions.size(); ++p) {
    long long ma = 0, lac = 0;
    for (std::size_t c = 0; c < circuits.size(); ++c) {
      ma += outcomes[p * circuits.size() + c].ma;
      lac += outcomes[p * circuits.size() + c].lac;
    }
    table.add_row({format_double(provisions[p], 2), std::to_string(ma),
                   std::to_string(lac),
                   ma > 0 ? format_double(100.0 * static_cast<double>(ma - lac) /
                                              static_cast<double>(ma),
                                          0) + "%"
                          : "N/A"});
  }
  std::printf("%s\n", table.to_string().c_str());
  bench_io::write_bench_report(out, "provision_sweep");
  return 0;
}
