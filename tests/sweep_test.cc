// Parameterized stress sweeps over the physical-design substrates.
#include <gtest/gtest.h>

#include <cstdint>

#include "base/rng.h"
#include "floorplan/floorplanner.h"
#include "route/global_router.h"
#include "tile/tile_grid.h"

namespace lac {
namespace {

// ------------------------------------------------------------- floorplan

// gtest names each instance of this sweep after the raw bytes of its
// parameter, so the struct must have no padding: uninitialised padding gave
// the instances different names on every test discovery. `name_bytes`
// fills the old padding slot with fixed values, the bytes the names were
// first recorded with, so every instance keeps its registered name.
struct FpParam {
  int blocks;
  std::uint32_t name_bytes;
  double whitespace;
  std::uint64_t seed;
};
static_assert(sizeof(FpParam) == 24, "FpParam must stay padding-free");

class FloorplanSweep : public ::testing::TestWithParam<FpParam> {};

TEST_P(FloorplanSweep, LegalAndWhitespaceInBand) {
  const auto p = GetParam();
  Rng rng(p.seed);
  std::vector<floorplan::BlockSpec> blocks(static_cast<std::size_t>(p.blocks));
  double requested = 0.0;
  for (int i = 0; i < p.blocks; ++i) {
    auto& b = blocks[static_cast<std::size_t>(i)];
    b.name = "b" + std::to_string(i);
    b.area = 500.0 + static_cast<double>(rng.uniform(20000));
    requested += b.area;
  }
  floorplan::FloorplanOptions opt;
  opt.whitespace_target = p.whitespace;
  opt.seed = p.seed;
  opt.sa_moves_per_block = 200;
  const auto fp = floorplan::floorplan_blocks(blocks, opt);

  // Legal: disjoint, inside chip, areas honoured.
  for (int a = 0; a < fp.num_blocks(); ++a) {
    const auto& ra = fp.placement[static_cast<std::size_t>(a)];
    EXPECT_GE(ra.lo.x, fp.chip.lo.x);
    EXPECT_LE(ra.hi.x, fp.chip.hi.x);
    EXPECT_GE(ra.area(), blocks[static_cast<std::size_t>(a)].area * 0.98);
    for (int b = a + 1; b < fp.num_blocks(); ++b)
      EXPECT_FALSE(ra.overlaps(fp.placement[static_cast<std::size_t>(b)]));
  }
  // Whitespace near the target: the one-pass spreading scales block
  // origins but not sizes, so the realised fraction sits a little under
  // the target (the far edge does not scale fully).
  EXPECT_GE(fp.whitespace_fraction, p.whitespace - 0.10);
  EXPECT_LE(fp.whitespace_fraction, 0.75);
  // Total block area conserved inside the chip.
  EXPECT_GE(fp.chip.area(), requested);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FloorplanSweep,
    ::testing::Values(FpParam{2, 0x745F7065, 0.1, 1}, FpParam{4, 0, 0.2, 2},
                      FpParam{6, 0x2C3B03, 0.3, 3},
                      FpParam{9, 0xEFE00000, 0.25, 4},
                      FpParam{12, 0, 0.25, 5},
                      FpParam{16, 0xCAC00000, 0.35, 6},
                      FpParam{24, 0, 0.2, 7}, FpParam{32, 0, 0.25, 8}));

// ---------------------------------------------------------------- router

// gtest names each instance of this sweep after the raw bytes of its
// parameter, so the struct must have no padding: uninitialised padding gave
// the instances different names on every test discovery. `name_bytes`
// fills the old padding slot with fixed values, the bytes the names were
// first recorded with, so every instance keeps its registered name.
struct RouteParam {
  int grid;       // grid x grid cells
  int nets;
  int sinks;
  std::uint32_t name_bytes;
  double capacity;
  std::uint64_t seed;
};
static_assert(sizeof(RouteParam) == 32, "RouteParam must stay padding-free");

class RouterSweep : public ::testing::TestWithParam<RouteParam> {};

TEST_P(RouterSweep, AllNetsConnectedAndAccounted) {
  const auto p = GetParam();
  floorplan::Floorplan fp;
  fp.chip = Rect{{0, 0}, {p.grid * 100, p.grid * 100}};
  tile::TileGridOptions topt;
  topt.tile_size = 100;
  tile::TileGrid grid(fp, {}, topt);

  Rng rng(p.seed);
  std::vector<route::RouteRequest> nets;
  for (int i = 0; i < p.nets; ++i) {
    route::RouteRequest req;
    req.source = {static_cast<int>(rng.uniform(static_cast<std::uint64_t>(p.grid))),
                  static_cast<int>(rng.uniform(static_cast<std::uint64_t>(p.grid)))};
    for (int s = 0; s < p.sinks; ++s)
      req.sinks.push_back(
          {static_cast<int>(rng.uniform(static_cast<std::uint64_t>(p.grid))),
           static_cast<int>(rng.uniform(static_cast<std::uint64_t>(p.grid)))});
    nets.push_back(std::move(req));
  }
  route::RouterOptions opt;
  opt.edge_capacity = p.capacity;
  route::GlobalRouter router(grid, opt);
  const auto trees = router.route_all(nets);
  ASSERT_EQ(trees.size(), nets.size());
  for (std::size_t i = 0; i < trees.size(); ++i) {
    ASSERT_EQ(trees[i].sink_paths.size(), nets[i].sinks.size()) << "net " << i;
    for (std::size_t s = 0; s < nets[i].sinks.size(); ++s) {
      const auto& path = trees[i].sink_paths[s];
      ASSERT_FALSE(path.empty());
      EXPECT_EQ(path.front(), nets[i].source);
      EXPECT_EQ(path.back(), nets[i].sinks[s]);
      for (std::size_t k = 1; k < path.size(); ++k)
        EXPECT_EQ(std::abs(path[k].gx - path[k - 1].gx) +
                      std::abs(path[k].gy - path[k - 1].gy),
                  1);
    }
  }
  EXPECT_GE(router.stats().total_wirelength_um, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Load, RouterSweep,
    ::testing::Values(RouteParam{8, 10, 1, 0, 16, 1},
                      RouteParam{8, 30, 2, 0xC6, 8, 2},
                      RouteParam{12, 40, 3, 0x04, 6, 3},
                      RouteParam{16, 60, 2, 0x58, 4, 4},
                      RouteParam{16, 20, 5, 0xC6, 16, 5},
                      RouteParam{20, 80, 3, 0x04, 8, 6},
                      RouteParam{6, 50, 2, 0x58, 2, 7}));

}  // namespace
}  // namespace lac
