#include "repeater/repeater_planner.h"

#include <algorithm>
#include <map>
#include <set>

#include "base/check.h"
#include "obs/metrics.h"

namespace lac::repeater {

namespace {

// Tree adjacency reconstructed from the distinct edge list.
struct Tree {
  std::map<int, std::vector<int>> adj;
};

}  // namespace

RepeaterPlanner::RepeaterPlanner(tile::TileGrid& grid,
                                 const timing::Technology& tech,
                                 RepeaterPlanOptions opt)
    : grid_(grid), tech_(tech), opt_(opt) {
  LAC_CHECK(opt_.units_per_segment >= 1);
  LAC_CHECK(tech_.max_repeater_interval >= static_cast<double>(grid_.tile_size()));
}

BufferedNet RepeaterPlanner::plan(const route::RouteTree& tree,
                                  double driver_res, double sink_cap) {
  BufferedNet out;
  if (!tree.routed()) return out;

  const int nx = grid_.nx();
  auto cell_idx = [&](const route::Cell& c) { return c.gy * nx + c.gx; };
  auto cell_of = [&](int i) { return route::Cell{i % nx, i / nx}; };
  const double step = static_cast<double>(grid_.tile_size());
  const double lmax = tech_.max_repeater_interval;
  auto tile_at = [&](int cell) {
    return grid_.tile_of_cell(cell % nx, cell / nx);
  };
  auto capacity_at = [&](int cell) { return grid_.capacity(tile_at(cell)); };

  Tree t;
  for (const auto& [a, b] : tree.edges) {
    t.adj[a].push_back(b);
    t.adj[b].push_back(a);
  }
  const int root = cell_idx(tree.sink_paths.front().front());

  // DFS with unrepeated-distance tracking.  `chain` holds the cells since
  // the last repeater on the current root path, below the last branch point
  // (the look-back window must not cross a branch: cells above a branch
  // affect other subtrees whose spacing decisions were already taken).
  std::set<int> repeater_at;
  struct Frame {
    int cell;
    int parent;
    double dist;                          // unrepeated length entering cell
    std::vector<std::pair<int, double>> chain;  // look-back candidates
  };
  std::vector<Frame> stack;
  stack.push_back({root, -1, 0.0, {}});
  while (!stack.empty()) {
    Frame f = std::move(stack.back());
    stack.pop_back();

    const auto& nbrs = t.adj[f.cell];
    int degree_down = 0;
    for (const int n : nbrs) degree_down += (n != f.parent);

    for (const int n : nbrs) {
      if (n == f.parent) continue;
      double ndist = f.dist + step;
      auto nchain = degree_down > 1
                        ? std::vector<std::pair<int, double>>{}
                        : f.chain;  // branch point: reset look-back window
      int place_at = -1;
      if (ndist > lmax) {
        // Must place a repeater at some cell on the chain (or the current
        // cell) so the spacing into `n` is legal.
        place_at = f.cell;
        double best_cap = capacity_at(f.cell);
        if (opt_.capacity_aware) {
          for (const auto& [c, d] : nchain) {
            // Placing at c leaves `ndist - d` of wire into n; require legal.
            if (ndist - d > lmax) continue;
            const double cap = capacity_at(c);
            if (cap > best_cap) {
              best_cap = cap;
              place_at = c;
            }
          }
        }
      }
      if (place_at != -1) {
        if (repeater_at.insert(place_at).second) {
          grid_.consume(tile_at(place_at), tech_.repeater_area);
          area_consumed_ += tech_.repeater_area;
          ++repeaters_inserted_;
          obs::count("repeater.inserted");
        }
        // Distance now measured from the repeater.
        double d_at = 0.0;
        for (const auto& [c, d] : nchain)
          if (c == place_at) d_at = d;
        if (place_at == f.cell) d_at = f.dist;
        ndist = ndist - d_at;
        // Truncate the chain after the repeater.
        std::vector<std::pair<int, double>> trimmed;
        bool after = false;
        for (const auto& [c, d] : nchain) {
          if (after) trimmed.emplace_back(c, d - d_at);
          if (c == place_at) after = true;
        }
        if (place_at != f.cell) trimmed.emplace_back(f.cell, f.dist - d_at);
        nchain = std::move(trimmed);
      } else {
        nchain.emplace_back(f.cell, f.dist);
      }
      stack.push_back({n, f.cell, ndist, std::move(nchain)});
    }
  }

  for (const int c : repeater_at) out.repeater_cells.push_back(cell_of(c));

  // Segmentation of each driver->sink path at the repeaters.
  out.sinks.reserve(tree.sink_paths.size());
  for (const auto& path : tree.sink_paths) {
    BufferedSinkPath bsp;
    bsp.length_um = static_cast<double>(path.size() - 1) * step;

    // Stage boundaries: indices into `path` where a stage ends.
    std::vector<std::size_t> cuts;
    for (std::size_t i = 1; i + 1 < path.size(); ++i)
      if (repeater_at.count(cell_idx(path[i]))) cuts.push_back(i);
    cuts.push_back(path.size() - 1);

    std::size_t begin = 0;
    for (std::size_t s = 0; s < cuts.size(); ++s) {
      const std::size_t end = cuts[s];
      const double len = static_cast<double>(end - begin) * step;
      const bool starts_at_repeater = s > 0;
      const bool ends_at_sink = (s + 1 == cuts.size());
      const double rd = starts_at_repeater ? tech_.repeater_out_res : driver_res;
      const double cl = ends_at_sink ? sink_cap : tech_.repeater_in_cap;
      double stage_delay = timing::wire_elmore_delay(tech_, rd, len, cl);
      if (starts_at_repeater) stage_delay += tech_.repeater_intrinsic_delay;

      // Sub-divide the stage into fixed-delay interconnect units.
      const int k = opt_.units_per_segment;
      for (int u = 0; u < k; ++u) {
        // Representative cell: end of this sub-span along the path.
        const std::size_t pos =
            begin + (end - begin) * static_cast<std::size_t>(u + 1) /
                        static_cast<std::size_t>(k);
        InterconnectUnit unit;
        unit.delay_ps = stage_delay / k;
        unit.at = path[pos];
        unit.tile = grid_.tile_of_cell(unit.at.gx, unit.at.gy);
        bsp.units.push_back(unit);
      }
      bsp.total_delay_ps += stage_delay;
      begin = end;
    }
    // Degenerate single-cell path: no wire, no units.
    if (path.size() == 1) {
      bsp.units.clear();
      bsp.total_delay_ps = 0.0;
    }
    out.sinks.push_back(std::move(bsp));
  }
  return out;
}

}  // namespace lac::repeater
