// Command-line retiming tool over ISCAS89 .bench netlists.
//
// A standalone entry point to the retiming core (no floorplan needed):
// reads a sequential .bench netlist, collapses registers into edge
// weights, and reports T_init, the optimal T_min, and the min-area
// retiming at a chosen period, including per-label statistics.  Registers
// are never moved across primary I/O (host pinning), so the retimed
// machine is I/O-equivalent to the input.
//
// Usage: retime_tool <netlist.bench | s27> [target_period_ps] [-o out.bench]
//        (default target: T_min; with -o the retimed netlist is written
//        out as a valid .bench file)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench89/suite.h"
#include "netlist/bench_io.h"
#include "retime/apply.h"
#include "retime/collapse.h"
#include "retime/constraints.h"
#include "retime/min_area.h"
#include "retime/wd_matrices.h"
#include "timing/technology.h"

// A bad circuit name or .bench file is reported, not aborted on.
int main(int argc, char** argv) try {
  using namespace lac;
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <netlist.bench | s27> [period_ps]\n",
                 argv[0]);
    return 2;
  }
  const std::string path = argv[1];
  std::string out_path;
  double target_arg = -1.0;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "-o") == 0 && i + 1 < argc)
      out_path = argv[++i];
    else
      target_arg = std::atof(argv[i]);
  }
  const netlist::Netlist nl =
      path == "s27" ? bench89::s27() : netlist::parse_bench_file(path);
  const timing::Technology tech;

  std::printf("%s: %d gates, %d DFFs, %d PIs, %d POs\n", nl.name().c_str(),
              nl.num_gates(), nl.count(netlist::CellType::kDff),
              nl.count(netlist::CellType::kInput),
              nl.count(netlist::CellType::kOutput));

  // Pure-logic retiming graph: every gate is a functional unit with the
  // technology gate delay; I/O cells have delay 0 and pinned labels.
  const auto lg = retime::build_logic_graph(nl, tech.gate_delay);
  const auto& g = lg.graph;

  const auto wd = retime::WdMatrices::compute(g);
  std::vector<int> r_min;
  const double t_min = retime::min_period_retiming(g, wd, &r_min);
  std::printf("T_init = %.1f ps (%.1f gate levels)\n", wd.t_init_ps(),
              wd.t_init_ps() / tech.gate_delay);
  std::printf("T_min  = %.1f ps (%.1f gate levels)\n", t_min,
              t_min / tech.gate_delay);

  const double target = target_arg > 0.0 ? target_arg : t_min;
  if (target < t_min) {
    std::printf("target %.1f ps is below T_min — infeasible\n", target);
    return 1;
  }
  const auto cs = build_constraints(g, wd, retime::to_decips(target));
  const auto r = retime::min_area_retiming(g, cs);
  std::printf("\nmin-area retiming at %.1f ps:\n", target);
  std::int64_t before = g.total_weight(), after = 0;
  int moved = 0;
  for (int e = 0; e < g.num_edges(); ++e) after += g.retimed_weight(e, *r);
  for (int v = 0; v < g.num_vertices(); ++v) moved += ((*r)[static_cast<std::size_t>(v)] != 0);
  std::printf("  registers: %lld -> %lld (per-edge counting)\n",
              static_cast<long long>(before), static_cast<long long>(after));
  std::printf("  vertices relabelled: %d of %d\n", moved, g.num_vertices());
  std::printf("  achieved period: %.1f ps (target %.1f)\n",
              g.period_after_ps(*r), target);

  if (!out_path.empty()) {
    const auto retimed = retime::apply_retiming(nl, lg, *r);
    netlist::write_bench_file(retimed, out_path);
    std::printf("  wrote retimed netlist (%d DFFs) to %s\n",
                retimed.count(netlist::CellType::kDff), out_path.c_str());
  }
  return 0;
}
catch (const std::exception& e) {
  std::fprintf(stderr, "retime_tool: %s\n", e.what());
  return 1;
}
