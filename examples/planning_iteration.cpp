// Walkthrough of the paper's planning iteration on one circuit:
//   iteration 1 — plan, compare min-area vs LAC, dump every violating
//                 tile (which block, how much overflow);
//   iteration 2 — expand the congested soft blocks / channels, re-plan,
//                 show the violations disappearing.
//
// Usage: planning_iteration [circuit-name]   (default: y526 — a circuit
// whose violations survive iteration 1, like the paper's three holdouts)
#include <cstdio>
#include <exception>
#include <string>

#include "bench89/suite.h"
#include "planner/interconnect_planner.h"

namespace {

void dump_violations(const lac::planner::PlanResult& res) {
  using namespace lac;
  const auto& grid = *res.grid;
  auto show = [&](const char* tag, const retime::AreaReport& rep) {
    std::printf("  %-8s N_FOA=%-3lld N_F=%-3lld N_FN=%lld\n", tag,
                static_cast<long long>(rep.n_foa),
                static_cast<long long>(rep.n_f),
                static_cast<long long>(rep.n_fn));
    for (int t = 0; t < grid.num_tiles(); ++t) {
      const tile::TileId tid{t};
      const double over = rep.ac[static_cast<std::size_t>(t)] - grid.capacity(tid);
      if (over <= 1e-9) continue;
      const char* kind =
          grid.kind(tid) == tile::TileKind::kSoftBlock   ? "soft block"
          : grid.kind(tid) == tile::TileKind::kHardBlock ? "hard block"
                                                         : "channel";
      std::printf("    tile %-3d (%s %d): AC=%.0f C=%.0f -> overflow %.0f "
                  "um^2\n",
                  t, kind, grid.block(tid).valid() ? grid.block(tid).value() : -1,
                  rep.ac[static_cast<std::size_t>(t)], grid.capacity(tid), over);
    }
  };
  show("min-area", res.min_area.report);
  show("LAC", res.lac.report);
}

}  // namespace

// A bad circuit name or .bench file is reported, not aborted on.
int main(int argc, char** argv) try {
  using namespace lac;
  const std::string name = argc > 1 ? argv[1] : "y526";
  const auto& entry = bench89::entry_by_name(name);
  const auto nl = bench89::load(entry);

  planner::PlannerConfig cfg;
  cfg.run.seed = 7;
  cfg.num_blocks = entry.recommended_blocks;
  planner::InterconnectPlanner planner(cfg);

  // One call runs the whole trajectory: the initial plan plus up to two
  // floorplan-expansion iterations while violations remain.
  const auto iterations =
      planner.plan(nl, planner::PlanOptions{.max_iterations = 3});

  std::printf("=== iteration 1 (%s) ===\n", name.c_str());
  std::printf("  T_init=%.0f ps  T_min=%.0f ps  T_clk=%.0f ps\n",
              iterations.front().t_init_ps, iterations.front().t_min_ps,
              iterations.front().t_clk_ps);
  dump_violations(iterations.front());

  for (std::size_t k = 1; k < iterations.size(); ++k) {
    std::printf("\n=== iteration %zu (expanded floorplan: chip %.2f -> %.2f "
                "mm^2) ===\n",
                k + 1, iterations[k - 1].fp.chip.area() / 1e6,
                iterations[k].fp.chip.area() / 1e6);
    dump_violations(iterations[k]);
  }

  const planner::PlanResult& res = iterations.back();
  std::printf("\nresult: %s\n",
              res.lac.report.fits()
                  ? "all local area constraints met — no further floorplan "
                    "iterations needed"
                  : "violations remain — another floorplan iteration would "
                    "be required (the paper's s1269 case)");
  return res.lac.report.fits() ? 0 : 1;
}
catch (const std::exception& e) {
  std::fprintf(stderr, "planning_iteration: %s\n", e.what());
  return 1;
}
