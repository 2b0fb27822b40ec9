#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <set>
#include <string>
#include <vector>

#include "base/rng.h"
#include "floorplan/floorplanner.h"
#include "route/global_router.h"
#include "tile/tile_grid.h"

namespace lac::route {

// Reaches GlobalRouter's core maze routine and its history field.
struct GlobalRouterPeer {
  static RouteTree route_one(const GlobalRouter& router,
                             const RouteRequest& net, const double* usage,
                             const std::vector<int>* removed_edges) {
    return router.route_one(net, usage, removed_edges);
  }
  static std::vector<double>& history(GlobalRouter& router) {
    return router.history_;
  }
};

namespace {

// All-channel floorplan: an empty chip so routing is unobstructed.
tile::TileGrid open_grid(Coord w = 1000, Coord h = 1000, Coord tile = 100) {
  static floorplan::Floorplan fp;  // static: TileGrid copies what it needs
  fp.chip = Rect{{0, 0}, {w, h}};
  fp.blocks.clear();
  fp.placement.clear();
  tile::TileGridOptions opt;
  opt.tile_size = tile;
  return tile::TileGrid(fp, {}, opt);
}

bool adjacent(const Cell& a, const Cell& b) {
  return std::abs(a.gx - b.gx) + std::abs(a.gy - b.gy) == 1;
}

TEST(Router, TwoPinShortestPath) {
  auto grid = open_grid();
  GlobalRouter router(grid);
  const auto trees = router.route_all({{{0, 0}, {{5, 3}}}});
  ASSERT_EQ(trees.size(), 1u);
  ASSERT_TRUE(trees[0].routed());
  const auto& path = trees[0].sink_paths[0];
  EXPECT_EQ(path.front(), (Cell{0, 0}));
  EXPECT_EQ(path.back(), (Cell{5, 3}));
  // Manhattan-optimal in an empty grid.
  EXPECT_EQ(path.size(), 9u);
  for (std::size_t i = 1; i < path.size(); ++i)
    EXPECT_TRUE(adjacent(path[i - 1], path[i]));
}

TEST(Router, MultiSinkTreeSharesTrunk) {
  auto grid = open_grid();
  GlobalRouter router(grid);
  // Two sinks straight to the right; the further one extends the nearer path.
  const auto trees = router.route_all({{{0, 0}, {{4, 0}, {8, 0}}}});
  ASSERT_TRUE(trees[0].routed());
  EXPECT_EQ(trees[0].edges.size(), 8u);  // no duplication on the trunk
  EXPECT_EQ(trees[0].sink_paths.size(), 2u);
}

TEST(Router, SinkPathsParallelToRequestIncludingColocated) {
  auto grid = open_grid();
  GlobalRouter router(grid);
  const auto trees =
      router.route_all({{{2, 2}, {{2, 2}, {5, 2}, {2, 2}}}});
  ASSERT_TRUE(trees[0].routed());
  ASSERT_EQ(trees[0].sink_paths.size(), 3u);
  EXPECT_EQ(trees[0].sink_paths[0].size(), 1u);  // colocated: trivial path
  EXPECT_EQ(trees[0].sink_paths[2].size(), 1u);
  EXPECT_EQ(trees[0].sink_paths[1].back(), (Cell{5, 2}));
}

TEST(Router, AllSinksColocatedMeansUnrouted) {
  auto grid = open_grid();
  GlobalRouter router(grid);
  const auto trees = router.route_all({{{3, 3}, {{3, 3}}}});
  EXPECT_FALSE(trees[0].routed());
}

TEST(Router, DuplicateSinksRouteOnce) {
  auto grid = open_grid();
  GlobalRouter router(grid);
  const auto trees = router.route_all({{{0, 0}, {{4, 4}, {4, 4}}}});
  ASSERT_TRUE(trees[0].routed());
  EXPECT_EQ(trees[0].sink_paths.size(), 2u);
  EXPECT_EQ(trees[0].sink_paths[0], trees[0].sink_paths[1]);
}

TEST(Router, WirelengthStatMatchesEdges) {
  auto grid = open_grid();
  GlobalRouter router(grid);
  const auto trees = router.route_all(
      {{{0, 0}, {{3, 0}}}, {{0, 1}, {{0, 5}}}});
  double expected = 0.0;
  for (const auto& t : trees)
    expected += static_cast<double>(t.edges.size()) * 100.0;
  EXPECT_DOUBLE_EQ(router.stats().total_wirelength_um, expected);
}

TEST(Router, CongestionSpreadsParallelNets) {
  auto grid = open_grid(1000, 1000, 100);
  RouterOptions opt;
  opt.edge_capacity = 2.0;  // very low: force spreading
  GlobalRouter router(grid, opt);
  // Eight identical horizontal nets across the same row.
  std::vector<RouteRequest> nets;
  for (int i = 0; i < 8; ++i) nets.push_back({{0, 5}, {{9, 5}}});
  const auto trees = router.route_all(nets);
  // Count how many distinct rows are used.
  std::set<int> rows;
  for (const auto& t : trees)
    for (const auto& p : t.sink_paths[0]) rows.insert(p.gy);
  EXPECT_GT(rows.size(), 1u) << "rip-up/re-route should spread congestion";
}

TEST(Router, PathsFollowTreeEdges) {
  auto grid = open_grid();
  GlobalRouter router(grid);
  const auto trees = router.route_all({{{1, 1}, {{8, 1}, {1, 8}, {8, 8}}}});
  ASSERT_TRUE(trees[0].routed());
  std::set<std::pair<int, int>> edge_set(trees[0].edges.begin(),
                                         trees[0].edges.end());
  for (const auto& path : trees[0].sink_paths) {
    for (std::size_t i = 1; i < path.size(); ++i) {
      const int a = path[i - 1].gy * grid.nx() + path[i - 1].gx;
      const int b = path[i].gy * grid.nx() + path[i].gx;
      EXPECT_TRUE(edge_set.count({std::min(a, b), std::max(a, b)}))
          << "path step not a tree edge";
    }
  }
}

TEST(Router, EmptyNetList) {
  auto grid = open_grid();
  GlobalRouter router(grid);
  EXPECT_TRUE(router.route_all({}).empty());
  EXPECT_DOUBLE_EQ(router.stats().total_wirelength_um, 0.0);
}

// A 20x20 grid with capacity 8: 20 long nets leave the top-left corner
// cell, whose two edges carry 16 tracks, so rip-up rounds run; `short_nets`
// random nets in the bottom rows mostly stay in the flat-cost region, where
// an edit to one of them leaves the others' cost fields unchanged.
std::vector<RouteRequest> hotspot_nets(Rng& rng, int short_nets) {
  std::vector<RouteRequest> nets;
  for (int i = 0; i < 20; ++i) nets.push_back({{0, 19}, {{19, 19}}});
  auto low = [&] {
    return Cell{static_cast<int>(rng.uniform(20)),
                static_cast<int>(rng.uniform(8))};
  };
  for (int i = 0; i < short_nets; ++i) {
    RouteRequest r{low(), {low()}};
    if (rng.uniform(2) == 0) r.sinks.push_back(low());
    nets.push_back(std::move(r));
  }
  return nets;
}

TEST(Router, ReplayEqualsColdRouteAtAnyThreadCount) {
  auto grid = open_grid(2000, 2000, 100);
  RouterOptions opt;
  opt.edge_capacity = 8.0;
  // 16 short nets: every unedited net replays, in both phases.  20, with
  // one long net edited too: the hotspot's cost field changes, so replay
  // tests fail in both phases and those nets are routed afresh.
  bool saw_ripup_reuse = false;
  bool saw_failed_replay = false;
  for (const int short_nets : {16, 20}) {
    SCOPED_TRACE(short_nets);
    Rng rng(2024);
    std::vector<RouteRequest> nets = hotspot_nets(rng, short_nets);
    std::vector<long long> keys;
    for (std::size_t i = 0; i < nets.size(); ++i)
      keys.push_back(static_cast<long long>(1000 + i));
    RouteLog first;
    {
      GlobalRouter router(grid, opt);
      (void)router.route_all_incremental(nets, keys, RouteLog{}, &first,
                                         nullptr);
      ASSERT_GT(router.stats().ripup_rounds_used, 0) << "grid not congested";
    }

    // The edit: perturb a few requests, drop one net, add a new one.
    std::vector<std::size_t> edited{21, 25, 29};
    if (short_nets == 20) edited.push_back(5);  // one long net too
    for (const std::size_t i : edited) nets[i].sinks[0].gx ^= 1;
    nets.erase(nets.begin() + 27);
    keys.erase(keys.begin() + 27);
    nets.push_back({{2, 1}, {{12, 4}, {4, 6}}});
    keys.push_back(5000);

    GlobalRouter reference(grid, opt);
    const auto want = reference.route_all(nets);
    RouteLog want_log;
    {
      GlobalRouter fresh(grid, opt);
      (void)fresh.route_all_incremental(nets, keys, RouteLog{}, &want_log,
                                        nullptr);
    }

    for (const int threads : {1, 4}) {
      SCOPED_TRACE(threads);
      RouterOptions topt = opt;
      topt.exec = base::ExecPolicy{.threads = threads};
      GlobalRouter router(grid, topt);
      RouteLog log;
      IncRouteStats inc;
      const auto got =
          router.route_all_incremental(nets, keys, first, &log, &inc);
      EXPECT_EQ(got, want);
      EXPECT_EQ(router.stats(), reference.stats());
      EXPECT_EQ(log, want_log);
      EXPECT_FALSE(inc.full_fallback);
      EXPECT_EQ(inc.invalidated, static_cast<long long>(edited.size()) + 1);
      EXPECT_GT(inc.reused_initial, 0);
      EXPECT_EQ(inc.reused_initial + inc.cold_initial,
                static_cast<long long>(nets.size()));
      EXPECT_EQ(inc.reused_ripup + inc.cold_ripup,
                router.stats().nets_rerouted);
      saw_ripup_reuse |= inc.reused_ripup > 0;
      saw_failed_replay |= inc.cold_initial > inc.invalidated;
    }

    // A log from other grid dims is replayed as empty: nothing is reused.
    auto wide = open_grid(2100, 2000, 100);
    RouteLog wide_log;
    {
      GlobalRouter router(wide, opt);
      (void)router.route_all_incremental(nets, keys, RouteLog{}, &wide_log,
                                         nullptr);
    }
    GlobalRouter router(grid, opt);
    IncRouteStats inc;
    EXPECT_EQ(
        router.route_all_incremental(nets, keys, wide_log, nullptr, &inc),
        want);
    EXPECT_TRUE(inc.full_fallback);
    EXPECT_EQ(inc.reused_initial + inc.reused_ripup, 0);
    EXPECT_EQ(inc.cold_initial, static_cast<long long>(nets.size()));
    EXPECT_EQ(inc.cold_ripup, router.stats().nets_rerouted);
    EXPECT_EQ(inc.invalidated, static_cast<long long>(nets.size()));
  }
  EXPECT_TRUE(saw_ripup_reuse);
  EXPECT_TRUE(saw_failed_replay);
}

// The maze routine as it was written before the per-call cost array:
// every relaxation prices its edge afresh from usage (less one track when
// `removed_edges` lists it, found by binary search) and history.
RouteTree reference_route_one(const tile::TileGrid& grid,
                              const RouterOptions& opt,
                              const std::vector<double>& history,
                              const RouteRequest& net, const double* usage,
                              const std::vector<int>* removed_edges) {
  const int nx = grid.nx();
  const int ny = grid.ny();
  const int n_cells = nx * ny;
  auto idx = [&](const Cell& c) { return c.gy * nx + c.gx; };
  auto edge_index = [&](int cell_a, int cell_b) {
    const int a = std::min(cell_a, cell_b);
    const int b = std::max(cell_a, cell_b);
    if (b == a + 1) return (a / nx) * (nx - 1) + (a % nx);
    return (nx - 1) * ny + a;
  };
  auto edge_cost = [&](int a, int b) {
    const int e = edge_index(a, b);
    double u = usage[static_cast<std::size_t>(e)];
    if (removed_edges != nullptr &&
        std::binary_search(removed_edges->begin(), removed_edges->end(), e))
      u -= 1.0;
    const double cap = opt.edge_capacity;
    double cost = 1.0 + history[static_cast<std::size_t>(e)];
    if (u >= cap) {
      cost += opt.congestion_weight * (1.0 + (u - cap));
    } else if (u > 0.5 * cap) {
      cost += opt.congestion_weight * (u - 0.5 * cap) / (0.5 * cap);
    }
    return cost;
  };

  RouteTree tree;
  std::vector<Cell> sinks;
  for (const Cell& s : net.sinks)
    if (s != net.source &&
        std::find(sinks.begin(), sinks.end(), s) == sinks.end())
      sinks.push_back(s);
  if (sinks.empty()) return tree;
  std::vector<int> parent(static_cast<std::size_t>(n_cells), -2);
  parent[static_cast<std::size_t>(idx(net.source))] = -1;
  std::vector<int> tree_cells{idx(net.source)};
  std::vector<double> dist(static_cast<std::size_t>(n_cells));
  std::vector<int> pred(static_cast<std::size_t>(n_cells));
  std::vector<char> pending(static_cast<std::size_t>(n_cells), 0);
  for (const Cell& s : sinks) pending[static_cast<std::size_t>(idx(s))] = 1;
  for (std::size_t remaining = sinks.size(); remaining > 0; --remaining) {
    std::fill(dist.begin(), dist.end(),
              std::numeric_limits<double>::infinity());
    std::fill(pred.begin(), pred.end(), -1);
    using Item = std::pair<double, int>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
    for (const int c : tree_cells) {
      dist[static_cast<std::size_t>(c)] = 0.0;
      heap.push({0.0, c});
    }
    int found = -1;
    while (!heap.empty()) {
      const auto [d, u] = heap.top();
      heap.pop();
      if (d != dist[static_cast<std::size_t>(u)]) continue;
      if (pending[static_cast<std::size_t>(u)]) {
        found = u;
        break;
      }
      const int ux = u % nx, uy = u / nx;
      const int nbr[4] = {ux > 0 ? u - 1 : -1, ux < nx - 1 ? u + 1 : -1,
                          uy > 0 ? u - nx : -1, uy < ny - 1 ? u + nx : -1};
      for (const int v : nbr) {
        if (v < 0) continue;
        const double nd = d + edge_cost(u, v);
        if (nd < dist[static_cast<std::size_t>(v)]) {
          dist[static_cast<std::size_t>(v)] = nd;
          pred[static_cast<std::size_t>(v)] = u;
          heap.push({nd, v});
        }
      }
    }
    EXPECT_NE(found, -1);
    if (found == -1) return tree;
    for (int v = found; parent[static_cast<std::size_t>(v)] == -2;) {
      const int p = pred[static_cast<std::size_t>(v)];
      parent[static_cast<std::size_t>(v)] = p;
      tree_cells.push_back(v);
      v = p;
    }
    pending[static_cast<std::size_t>(found)] = 0;
  }
  for (const Cell& s : net.sinks) {
    std::vector<Cell> path;
    for (int v = idx(s); v != -1; v = parent[static_cast<std::size_t>(v)])
      path.push_back(Cell{v % nx, v / nx});
    std::reverse(path.begin(), path.end());
    tree.sink_paths.push_back(std::move(path));
  }
  for (const int c : tree_cells) {
    const int p = parent[static_cast<std::size_t>(c)];
    if (p >= 0) tree.edges.emplace_back(std::min(c, p), std::max(c, p));
  }
  std::sort(tree.edges.begin(), tree.edges.end());
  tree.edges.erase(std::unique(tree.edges.begin(), tree.edges.end()),
                   tree.edges.end());
  return tree;
}

// route_one prices each edge once per call; on seeded random usage and
// history fields — spanning the flat, ramp and overflow regions of the cost
// — it routes exactly the trees the per-relaxation reference routes, with
// and without a rip-up overlay removing the net's own tree.
TEST(Router, PricedOnceMatchesPerRelaxationReference) {
  Rng rng(3303);
  int overlays = 0;
  for (int trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const auto grid =
        open_grid(100 * (2 + static_cast<Coord>(rng.uniform(14))),
                  100 * (2 + static_cast<Coord>(rng.uniform(14))), 100);
    const int nx = grid.nx();
    const int ny = grid.ny();
    RouterOptions opt;
    opt.edge_capacity = static_cast<double>(2 + rng.uniform(15));
    GlobalRouter router(grid, opt);
    std::vector<double>& history = GlobalRouterPeer::history(router);
    const std::size_t num_edges = history.size();
    ASSERT_EQ(num_edges,
              static_cast<std::size_t>((nx - 1) * ny + nx * (ny - 1)));
    std::vector<double> usage(num_edges);
    for (std::size_t e = 0; e < num_edges; ++e) {
      // Whole tracks mostly, some fractional, up to 1.6x capacity.
      const double u = 1.6 * opt.edge_capacity * rng.uniform_real();
      usage[e] = rng.uniform(4) == 0 ? u : std::floor(u);
      history[e] = rng.uniform(2) == 0 ? 0.0 : 3.0 * rng.uniform_real();
    }
    auto cell = [&] {
      const auto x = rng.uniform(static_cast<std::uint64_t>(nx));
      const auto y = rng.uniform(static_cast<std::uint64_t>(ny));
      return Cell{static_cast<int>(x), static_cast<int>(y)};
    };
    for (int k = 0; k < 6; ++k) {
      RouteRequest net{cell(), {}};
      for (int s = 0, sinks = 1 + static_cast<int>(rng.uniform(4)); s < sinks;
           ++s)
        net.sinks.push_back(cell());
      const RouteTree got =
          GlobalRouterPeer::route_one(router, net, usage.data(), nullptr);
      ASSERT_EQ(got, reference_route_one(grid, opt, history, net,
                                         usage.data(), nullptr));
      if (got.edges.empty()) continue;
      // Rip-up: the net's own tree is on the usage field and the overlay
      // takes it off again.
      std::vector<int> own;
      for (const auto& [a, b] : got.edges)
        own.push_back(b == a + 1 ? (a / nx) * (nx - 1) + (a % nx)
                                 : (nx - 1) * ny + a);
      std::sort(own.begin(), own.end());
      std::vector<double> with_own = usage;
      for (const int e : own) with_own[static_cast<std::size_t>(e)] += 1.0;
      ASSERT_EQ(
          GlobalRouterPeer::route_one(router, net, with_own.data(), &own),
          reference_route_one(grid, opt, history, net, with_own.data(), &own));
      ++overlays;
    }
  }
  EXPECT_GT(overlays, 100);
}

}  // namespace
}  // namespace lac::route
