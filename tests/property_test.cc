// Cross-module property sweeps: randomized configurations pushed through
// the full planner must satisfy every verifiable invariant (TEST_P grids).
#include <gtest/gtest.h>

#include <cstdint>

#include "netlist/generator.h"
#include "planner/verify.h"
#include "retime/constraints.h"
#include "retime/min_area.h"
#include "retime/wd_matrices.h"
#include "tests/test_util.h"

namespace lac {
namespace {

// gtest names each instance of this sweep after the raw bytes of its
// parameter, so the struct must have no padding: uninitialised padding gave
// the instances different names on every test discovery. `name_bytes`
// fills the old padding slot with fixed values, the bytes the names were
// first recorded with, so every instance keeps its registered name.
struct PlanParam {
  int gates;
  int dffs;
  int blocks;
  std::uint32_t name_bytes;
  std::uint64_t seed;
  double slack_fraction;
  double hard_fraction;
};
static_assert(sizeof(PlanParam) == 40, "PlanParam must stay padding-free");

class PlanSweep : public ::testing::TestWithParam<PlanParam> {};

TEST_P(PlanSweep, PlanVerifiesEndToEnd) {
  const auto p = GetParam();
  netlist::GenSpec spec;
  spec.num_gates = p.gates;
  spec.num_dffs = p.dffs;
  spec.seed = p.seed;
  const auto nl = netlist::generate_netlist(spec);

  planner::PlannerConfig cfg;
  cfg.num_blocks = p.blocks;
  cfg.run.seed = p.seed * 31 + 7;
  cfg.clock_slack_fraction = p.slack_fraction;
  cfg.hard_block_fraction = p.hard_fraction;
  cfg.fp_opt.sa_moves_per_block = 120;
  planner::InterconnectPlanner planner(cfg);
  const auto res = planner.plan(nl, planner::PlanOptions{}).front();

  const auto rep = planner::verify_plan(res, cfg);
  EXPECT_TRUE(rep.ok()) << rep.to_string();

  // Routing sanity: wirelength accounted, interconnect units present iff
  // there was any inter-block wire.
  if (res.routing.total_wirelength_um > 0) {
    EXPECT_GT(res.interconnect_units, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, PlanSweep,
    ::testing::Values(PlanParam{40, 5, 3, 0, 1, 0.2, 0.0},
                      PlanParam{40, 5, 3, 0, 2, 0.0, 0.0},
                      PlanParam{80, 10, 5, 0xFC0AB8, 3, 0.5, 0.0},
                      PlanParam{80, 10, 5, 0x7F55, 4, 1.0, 0.0},
                      PlanParam{80, 10, 7, 0, 5, 0.2, 0.3},
                      PlanParam{120, 20, 6, 0, 6, 0.2, 0.0},
                      PlanParam{120, 3, 4, 0x65745F, 7, 0.3, 0.5},
                      PlanParam{160, 24, 8, 0, 8, 0.2, 0.0},
                      PlanParam{60, 30, 4, 0xE00000, 9, 0.2, 0.0},
                      PlanParam{200, 16, 9, 0x091E03, 10, 0.1, 0.2}));

// Retiming-core property grid: legality and optimal-count monotonicity
// across the whole period band, on random graphs.
struct BandParam {
  int vertices;
  int extra_edges;
  std::uint64_t seed;
};

class PeriodBand : public ::testing::TestWithParam<BandParam> {};

TEST_P(PeriodBand, MinAreaCountMonotoneInPeriod) {
  const auto p = GetParam();
  Rng rng(p.seed);
  auto g = test::random_retiming_graph(rng, p.vertices, p.extra_edges);
  const auto wd = retime::WdMatrices::compute(g);
  const double t_min = retime::min_period_retiming(g, wd);
  const double t_init = wd.t_init_ps();
  double last_count = -1.0;
  for (int step = 0; step <= 4; ++step) {
    const double t = t_min + (t_init - t_min) * step / 4.0;
    const auto cs = retime::build_constraints(g, wd, retime::to_decips(t));
    const auto r = retime::min_area_retiming(g, cs);
    ASSERT_TRUE(r.has_value()) << "t=" << t;
    std::vector<double> ones(static_cast<std::size_t>(g.num_vertices()), 1.0);
    const double count = retime::weighted_ff_area(g, *r, ones);
    // Looser period -> never more registers needed.
    if (last_count >= 0) {
      EXPECT_LE(count, last_count + 1e-9) << "step " << step;
    }
    last_count = count;
  }
}

INSTANTIATE_TEST_SUITE_P(Graphs, PeriodBand,
                         ::testing::Values(BandParam{8, 10, 11},
                                           BandParam{12, 18, 12},
                                           BandParam{16, 24, 13},
                                           BandParam{20, 30, 14},
                                           BandParam{25, 40, 15},
                                           BandParam{30, 50, 16}));

}  // namespace
}  // namespace lac
