// Test-only references for the W/D index and the clock-constraint sweep.
//
// dense_wd_reference is the dense Leiserson–Saxe W/D builder the library
// used before it computed rows on demand: Johnson's technique on the
// scalarised lexicographic cost
//   cost(e) = w(e) * BIG - d(tail(e)),   BIG > Σ_v d(v),
// which makes (W, -delay) minimisation a single shortest-path problem.
// Costs can be negative (w = 0 edges), but every cycle has w >= 1 in a
// valid sequential circuit, so one Bellman–Ford pass gives potentials for a
// per-source Dijkstra.  It takes 8·V² bytes and is meant for small graphs.
//
// neighbour_scan_constraints is the pruning that read those matrices: a
// violating pair (u,v) is dropped when a tight predecessor x of v has
// D(u,x) > T, or a tight successor y of u has D(y,v) > T.  The library's
// pair-local rule must keep exactly the same pairs, in the same order.
// Both are kept in tests/, like the Bellman–Ford MCF oracle, so the library
// has one W/D implementation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include "base/check.h"
#include "retime/constraints.h"
#include "retime/retiming_graph.h"
#include "retime/wd_matrices.h"

namespace lac::test {

struct DenseWd {
  int n = 0;
  std::vector<std::int32_t> w;  // kUnreachable when no path
  std::vector<std::int32_t> d;  // deci-ps
  std::int32_t t_init = 0;

  [[nodiscard]] std::int32_t w_at(int u, int v) const {
    return w[static_cast<std::size_t>(u) * static_cast<std::size_t>(n) +
             static_cast<std::size_t>(v)];
  }
  [[nodiscard]] std::int32_t d_at(int u, int v) const {
    return d[static_cast<std::size_t>(u) * static_cast<std::size_t>(n) +
             static_cast<std::size_t>(v)];
  }
};

inline DenseWd dense_wd_reference(const retime::RetimingGraph& g) {
  const int n = g.num_vertices();
  const auto sn = static_cast<std::size_t>(n);
  const std::int64_t big = g.total_delay_decips() + 1;
  auto cost = [&](int e) {
    const auto& ed = g.edge(e);
    return static_cast<std::int64_t>(ed.w) * big -
           static_cast<std::int64_t>(g.delay_decips(ed.tail));
  };

  // Bellman–Ford potentials from a virtual source (all vertices at 0).
  std::vector<std::int64_t> h(sn, 0);
  std::vector<int> relax_count(sn, 0);
  std::vector<char> in_queue(sn, 1);
  std::deque<int> queue;
  for (int v = 0; v < n; ++v) queue.push_back(v);
  while (!queue.empty()) {
    const int u = queue.front();
    queue.pop_front();
    in_queue[static_cast<std::size_t>(u)] = 0;
    for (const int e : g.out_edges(u)) {
      const auto v = static_cast<std::size_t>(g.edge(e).head);
      const std::int64_t nd = h[static_cast<std::size_t>(u)] + cost(e);
      if (nd < h[v]) {
        h[v] = nd;
        LAC_CHECK_MSG(++relax_count[v] <= n, "register-free cycle");
        if (!in_queue[v]) {
          in_queue[v] = 1;
          queue.push_back(static_cast<int>(v));
        }
      }
    }
  }

  DenseWd out;
  out.n = n;
  out.w.assign(sn * sn, retime::WdMatrices::kUnreachable);
  out.d.assign(sn * sn, 0);
  constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max() / 4;
  using Item = std::pair<std::int64_t, int>;
  std::vector<std::int64_t> dist(sn);
  for (int u = 0; u < n; ++u) {
    std::fill(dist.begin(), dist.end(), kInf);
    dist[static_cast<std::size_t>(u)] = 0;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
    heap.push({0, u});
    while (!heap.empty()) {
      const auto [dd, x] = heap.top();
      heap.pop();
      if (dd != dist[static_cast<std::size_t>(x)]) continue;
      for (const int e : g.out_edges(x)) {
        const int y = g.edge(e).head;
        const std::int64_t rc = cost(e) + h[static_cast<std::size_t>(x)] -
                                h[static_cast<std::size_t>(y)];
        LAC_CHECK(rc >= 0);
        if (dd + rc < dist[static_cast<std::size_t>(y)]) {
          dist[static_cast<std::size_t>(y)] = dd + rc;
          heap.push({dd + rc, y});
        }
      }
    }
    for (int v = 0; v < n; ++v) {
      if (dist[static_cast<std::size_t>(v)] >= kInf) continue;
      // Undo the reweighting, then decode dist = W*BIG - S, 0 <= S < BIG.
      const std::int64_t true_dist = dist[static_cast<std::size_t>(v)] -
                                     h[static_cast<std::size_t>(u)] +
                                     h[static_cast<std::size_t>(v)];
      const std::int64_t w64 = (true_dist + big - 1) / big;
      const std::int64_t s = w64 * big - true_dist;
      LAC_CHECK(w64 >= 0 && s >= 0 && s < big);
      const auto at = static_cast<std::size_t>(u) * sn + static_cast<std::size_t>(v);
      out.w[at] = static_cast<std::int32_t>(w64);
      out.d[at] = static_cast<std::int32_t>(s + g.delay_decips(v));
      if (w64 == 0) out.t_init = std::max(out.t_init, out.d[at]);
    }
  }
  return out;
}

// max { D(a,b) : a, b I/O, W(a,b) = 0 }, 0 without such a pair.
inline std::int32_t io_path_bound_reference(const retime::RetimingGraph& g,
                                            const DenseWd& wd) {
  std::int32_t bound = 0;
  for (const int a : g.io_vertices())
    for (const int b : g.io_vertices())
      if (wd.w_at(a, b) == 0) bound = std::max(bound, wd.d_at(a, b));
  return bound;
}

// The constraint set of period T with the neighbour-scan pruning.
inline retime::ConstraintSet neighbour_scan_constraints(
    const retime::RetimingGraph& g, const DenseWd& wd,
    std::int32_t period_decips, bool prune) {
  auto violates = [&](int a, int b) {
    return wd.w_at(a, b) != retime::WdMatrices::kUnreachable &&
           wd.d_at(a, b) > period_decips;
  };
  retime::ConstraintSet cs;
  cs.num_vars = g.num_vertices();
  for (const auto& e : g.edges()) cs.edge.push_back({e.tail, e.head, e.w});
  for (const int io : g.io_vertices()) {
    cs.io.push_back({io, g.host(), 0});
    cs.io.push_back({g.host(), io, 0});
  }
  for (int u = 0; u < wd.n; ++u) {
    for (int v = 0; v < wd.n; ++v) {
      if (u == v || !violates(u, v)) continue;
      ++cs.clock_before_pruning;
      bool implied = false;
      // Target side: (u,x) + edge (x -> v) with a tight weight.
      for (const int e : g.in_edges(v)) {
        const auto& ed = g.edge(e);
        if (prune && !implied && ed.tail != v && ed.tail != u &&
            violates(u, ed.tail) &&
            wd.w_at(u, v) == wd.w_at(u, ed.tail) + ed.w)
          implied = true;
      }
      // Source side: edge (u -> y) + (y,v) with a tight weight.
      for (const int e : g.out_edges(u)) {
        const auto& ed = g.edge(e);
        if (prune && !implied && ed.head != u && ed.head != v &&
            violates(ed.head, v) &&
            wd.w_at(u, v) == ed.w + wd.w_at(ed.head, v))
          implied = true;
      }
      if (!implied) cs.clock.push_back({u, v, wd.w_at(u, v) - 1});
    }
  }
  return cs;
}

}  // namespace lac::test
