// Cross-cutting integration checks that exercise the file-level tool flow
// and determinism guarantees the examples and benches rely on.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "base/rng.h"
#include "bench89/suite.h"
#include "floorplan/floorplanner.h"
#include "netlist/bench_io.h"
#include "netlist/simulate.h"
#include "planner/interconnect_planner.h"
#include "retime/apply.h"
#include "retime/constraints.h"
#include "retime/min_area.h"
#include "retime/wd_matrices.h"
#include "route/global_router.h"
#include "tile/tile_grid.h"

namespace lac {
namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_((std::filesystem::temp_directory_path() / name).string()) {}
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(Integration, BenchFileRoundTrip) {
  const auto nl = bench89::s27();
  TempFile f("lac_s27_roundtrip.bench");
  netlist::write_bench_file(nl, f.path());
  const auto nl2 = netlist::parse_bench_file(f.path());
  EXPECT_EQ(nl2.num_cells(), nl.num_cells());
  EXPECT_EQ(nl2.name(), "lac_s27_roundtrip");
}

TEST(Integration, ParseMissingFileThrows) {
  EXPECT_THROW(netlist::parse_bench_file("/nonexistent/zzz.bench"),
               CheckError);
}

TEST(Integration, RetimeWriteReloadResimulate) {
  // Full tool flow: retime s27 to T_min, write, reload, co-simulate.
  const auto nl = bench89::s27();
  const auto lg = retime::build_logic_graph(nl, 10.0);
  const auto wd = retime::WdMatrices::compute(lg.graph);
  std::vector<int> r;
  const double t_min = retime::min_period_retiming(lg.graph, wd, &r);
  const auto cs =
      retime::build_constraints(lg.graph, wd, retime::to_decips(t_min));
  const auto r_area = retime::min_area_retiming(lg.graph, cs);
  const auto retimed = retime::apply_retiming(nl, lg, *r_area);

  TempFile f("lac_s27_retimed.bench");
  netlist::write_bench_file(retimed, f.path());
  const auto reloaded = netlist::parse_bench_file(f.path());

  netlist::Simulator sa(nl), sb(reloaded);
  sa.reset();
  sb.reset();
  Rng rng(5);
  int comparable = 0;
  for (int t = 0; t < 30; ++t) {
    std::vector<netlist::Logic> in(4);
    for (auto& v : in)
      v = rng.bernoulli(0.5) ? netlist::Logic::kOne : netlist::Logic::kZero;
    const auto oa = sa.step(in);
    const auto ob = sb.step(in);
    if (oa[0] != netlist::Logic::kX && ob[0] != netlist::Logic::kX) {
      EXPECT_EQ(oa[0], ob[0]) << "cycle " << t;
      ++comparable;
    }
  }
  EXPECT_GT(comparable, 0);
}

TEST(Integration, RouterDeterministic) {
  floorplan::Floorplan fp;
  fp.chip = Rect{{0, 0}, {2000, 2000}};
  tile::TileGridOptions topt;
  topt.tile_size = 100;
  tile::TileGrid grid_a(fp, {}, topt), grid_b(fp, {}, topt);
  std::vector<route::RouteRequest> nets;
  for (int i = 0; i < 12; ++i)
    nets.push_back({{i, 0}, {{19 - i, 19}, {10, i}}});
  route::GlobalRouter ra(grid_a), rb(grid_b);
  const auto ta = ra.route_all(nets);
  const auto tb = rb.route_all(nets);
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i)
    EXPECT_EQ(ta[i].edges, tb[i].edges) << "net " << i;
}

TEST(Integration, PlannerRerunFromSameConfigIdentical) {
  const auto nl = bench89::load(bench89::entry_by_name("y298"));
  planner::PlannerConfig cfg;
  cfg.run.seed = 42;
  cfg.num_blocks = 6;
  planner::InterconnectPlanner p1(cfg), p2(cfg);
  const auto a = p1.plan(nl, planner::PlanOptions{}).front();
  const auto b = p2.plan(nl, planner::PlanOptions{}).front();
  EXPECT_EQ(a.lac.r, b.lac.r);
  EXPECT_EQ(a.min_area.report.n_foa, b.min_area.report.n_foa);
  EXPECT_EQ(a.routing.total_wirelength_um, b.routing.total_wirelength_um);
}

TEST(Integration, SuiteSmokeAllCircuitsPlanAndVerify) {
  // One light-weight pass over three representative suite circuits.
  for (const char* name : {"y298", "y400", "y641"}) {
    const auto& entry = bench89::entry_by_name(name);
    const auto nl = bench89::load(entry);
    planner::PlannerConfig cfg;
    cfg.run.seed = 7;
    cfg.num_blocks = entry.recommended_blocks;
    cfg.fp_opt.sa_moves_per_block = 150;
    planner::InterconnectPlanner planner(cfg);
    const auto res = planner.plan(nl, planner::PlanOptions{}).front();
    EXPECT_TRUE(res.graph.is_legal_retiming(res.lac.r)) << name;
    EXPECT_LE(res.lac.report.n_foa, res.min_area.report.n_foa) << name;
  }
}

}  // namespace
}  // namespace lac
