// Demonstrates that retiming preserves circuit behaviour: retime s27 (or
// any .bench netlist) to its minimum period, materialise the retimed
// netlist, and co-simulate both machines on random stimulus.  On every
// cycle where both outputs are defined (non-X under pessimistic power-up),
// they must agree — and the example prints the trace so you can watch the
// retimed machine's slightly longer X warm-up.
//
// Usage: retime_equivalence [netlist.bench] [cycles]
#include <cstdio>
#include <exception>
#include <string>

#include "base/rng.h"
#include "bench89/suite.h"
#include "netlist/bench_io.h"
#include "netlist/simulate.h"
#include "retime/apply.h"
#include "retime/constraints.h"
#include "retime/min_area.h"
#include "retime/wd_matrices.h"

namespace {
char logic_char(lac::netlist::Logic v) {
  using lac::netlist::Logic;
  return v == Logic::kZero ? '0' : v == Logic::kOne ? '1' : 'X';
}
}  // namespace

// A bad circuit name or .bench file is reported, not aborted on.
int main(int argc, char** argv) try {
  using namespace lac;
  const std::string which = argc > 1 ? argv[1] : "s27";
  const int cycles = argc > 2 ? std::atoi(argv[2]) : 24;

  const netlist::Netlist nl =
      which == "s27" ? bench89::s27() : netlist::parse_bench_file(which);

  const auto lg = retime::build_logic_graph(nl, 10.0);
  const auto wd = retime::WdMatrices::compute(lg.graph);
  std::vector<int> r;
  const double t_min = retime::min_period_retiming(lg.graph, wd, &r);
  const auto cs = retime::build_constraints(lg.graph, wd,
                                            retime::to_decips(t_min));
  const auto r_area = retime::min_area_retiming(lg.graph, cs);
  const auto nl2 = retime::apply_retiming(nl, lg, *r_area);

  std::printf("%s: T_init %.0f ps -> T_min %.0f ps; registers %d -> %d\n\n",
              nl.name().c_str(), wd.t_init_ps(), t_min,
              nl.count(netlist::CellType::kDff),
              nl2.count(netlist::CellType::kDff));

  netlist::Simulator sim_a(nl), sim_b(nl2);
  sim_a.reset();
  sim_b.reset();
  Rng rng(2003);
  std::printf("cycle | inputs | original | retimed | check\n");
  int mismatches = 0, comparable = 0;
  for (int t = 0; t < cycles; ++t) {
    std::vector<netlist::Logic> in(
        static_cast<std::size_t>(sim_a.num_inputs()));
    for (auto& v : in)
      v = rng.bernoulli(0.5) ? netlist::Logic::kOne : netlist::Logic::kZero;
    const auto oa = sim_a.step(in);
    const auto ob = sim_b.step(in);
    std::string si, sa, sb;
    for (const auto v : in) si += logic_char(v);
    bool defined_both = true;
    for (std::size_t i = 0; i < oa.size(); ++i) {
      sa += logic_char(oa[i]);
      sb += logic_char(ob[i]);
      const bool both = oa[i] != netlist::Logic::kX &&
                        ob[i] != netlist::Logic::kX;
      defined_both = defined_both && both;
      if (both) {
        ++comparable;
        if (oa[i] != ob[i]) ++mismatches;
      }
    }
    std::printf("%5d | %s | %8s | %7s | %s\n", t, si.c_str(), sa.c_str(),
                sb.c_str(),
                defined_both ? (sa == sb ? "match" : "MISMATCH") : "warm-up");
  }
  std::printf("\n%d comparable output samples, %d mismatches\n", comparable,
              mismatches);
  std::printf(mismatches == 0
                  ? "=> retimed machine is I/O-equivalent (as retiming "
                    "guarantees).\n"
                  : "=> BUG: retiming changed behaviour!\n");
  return mismatches == 0 ? 0 : 1;
}
catch (const std::exception& e) {
  std::fprintf(stderr, "retime_equivalence: %s\n", e.what());
  return 1;
}
