// Shared helpers for the test suite: small-graph builders, random retiming
// graphs, and brute-force reference implementations used as oracles for the
// flow-based solvers.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <optional>
#include <tuple>
#include <vector>

#include "base/rng.h"
#include "retime/constraints.h"
#include "retime/retiming_graph.h"
#include "retime/wd_matrices.h"

namespace lac::test {

// The classic Leiserson–Saxe correlator example: a cycle of vertices where
// retiming can shorten the critical path.  Delays chosen so that
// T_init > T_min strictly.
//
//   h(host) v1(d=3) v2(d=3) v3(d=3) v4(d=7)
//   edges: v1->v2 w1, v2->v3 w1, v3->v4 w1, v4->v1 w0
inline retime::RetimingGraph correlator_graph() {
  retime::RetimingGraph g;
  const auto t = tile::TileId::invalid();
  const int v1 = g.add_vertex(retime::VertexKind::kFunctional, 3.0, t);
  const int v2 = g.add_vertex(retime::VertexKind::kFunctional, 3.0, t);
  const int v3 = g.add_vertex(retime::VertexKind::kFunctional, 3.0, t);
  const int v4 = g.add_vertex(retime::VertexKind::kFunctional, 7.0, t);
  g.add_edge(v1, v2, 1);
  g.add_edge(v2, v3, 1);
  g.add_edge(v3, v4, 1);
  g.add_edge(v4, v1, 0);
  return g;
}

// Random strongly-sequential graph: every cycle carries a register (we build
// a random DAG and add back-edges with weight >= 1).
inline retime::RetimingGraph random_retiming_graph(Rng& rng, int n_vertices,
                                                   int n_extra_edges,
                                                   int max_w = 2) {
  retime::RetimingGraph g;
  const auto t = tile::TileId::invalid();
  std::vector<int> vs;
  for (int i = 0; i < n_vertices; ++i)
    vs.push_back(g.add_vertex(retime::VertexKind::kFunctional,
                              1.0 + static_cast<double>(rng.uniform(9)), t));
  // Spanning chain keeps everything connected.
  for (int i = 0; i + 1 < n_vertices; ++i)
    g.add_edge(vs[static_cast<std::size_t>(i)], vs[static_cast<std::size_t>(i + 1)],
               static_cast<int>(rng.uniform(static_cast<std::uint64_t>(max_w + 1))));
  for (int k = 0; k < n_extra_edges; ++k) {
    int a = static_cast<int>(rng.uniform(static_cast<std::uint64_t>(n_vertices)));
    int b = static_cast<int>(rng.uniform(static_cast<std::uint64_t>(n_vertices)));
    if (a == b) continue;
    int w = static_cast<int>(rng.uniform(static_cast<std::uint64_t>(max_w + 1)));
    if (a > b && w == 0) w = 1;  // back-edges must carry a register
    g.add_edge(vs[static_cast<std::size_t>(a)], vs[static_cast<std::size_t>(b)], w);
  }
  return g;
}

// Brute-force reference: enumerate all retimings with labels in [-bound,
// bound] (host fixed at 0) and return the minimum weighted FF area subject
// to legality and the clock period.  Only usable for tiny graphs.
inline std::optional<double> brute_force_min_area(
    const retime::RetimingGraph& g, double period_ps,
    const std::vector<double>& area_weight, int bound = 2,
    std::vector<int>* best_r = nullptr) {
  const int n = g.num_vertices();
  std::vector<int> r(static_cast<std::size_t>(n), -bound);
  r[static_cast<std::size_t>(g.host())] = 0;
  std::optional<double> best;
  while (true) {
    bool legal = g.is_legal_retiming(r);
    if (legal) {
      const double p = g.period_after_ps(r);
      if (p <= period_ps + 1e-9) {
        double cost = 0.0;
        for (int e = 0; e < g.num_edges(); ++e)
          cost += static_cast<double>(g.retimed_weight(e, r)) *
                  area_weight[static_cast<std::size_t>(g.edge(e).tail)];
        if (!best || cost < *best - 1e-9) {
          best = cost;
          if (best_r != nullptr) *best_r = r;
        }
      }
    }
    // Odometer increment, skipping the host position.
    int i = 0;
    for (; i < n; ++i) {
      if (i == g.host()) continue;
      if (r[static_cast<std::size_t>(i)] < bound) {
        ++r[static_cast<std::size_t>(i)];
        break;
      }
      r[static_cast<std::size_t>(i)] = -bound;
    }
    if (i == n) break;
  }
  return best;
}

// Brute-force minimum period over retimings with bounded labels.
inline double brute_force_min_period(const retime::RetimingGraph& g,
                                     int bound = 3) {
  const int n = g.num_vertices();
  std::vector<int> r(static_cast<std::size_t>(n), -bound);
  r[static_cast<std::size_t>(g.host())] = 0;
  double best = std::numeric_limits<double>::infinity();
  while (true) {
    if (g.is_legal_retiming(r)) best = std::min(best, g.period_after_ps(r));
    int i = 0;
    for (; i < n; ++i) {
      if (i == g.host()) continue;
      if (r[static_cast<std::size_t>(i)] < bound) {
        ++r[static_cast<std::size_t>(i)];
        break;
      }
      r[static_cast<std::size_t>(i)] = -bound;
    }
    if (i == n) break;
  }
  return best;
}

// Difference constraints x[u] - x[v] <= c as (u, v, c).
using Constraints = std::vector<std::tuple<int, int, std::int64_t>>;

inline Constraints constraint_tuples(const retime::ConstraintSet& cs) {
  Constraints out;
  cs.for_each([&](const retime::Constraint& c) {
    out.emplace_back(c.u, c.v, c.c);
  });
  return out;
}

// Reference difference-constraint solver without parent-graph cycle
// detection: queue-based Bellman–Ford from a virtual source that gives up
// once some vertex has been relaxed n times.  Same answers as
// graph::solve_difference_constraints, but O(VE) to refute an infeasible system.
inline std::optional<std::vector<std::int64_t>> relax_count_reference(
    int n, const Constraints& cons) {
  const auto N = static_cast<std::size_t>(n);
  std::vector<std::vector<std::pair<int, std::int64_t>>> out(N);
  for (const auto& [u, v, c] : cons)
    out[static_cast<std::size_t>(v)].emplace_back(u, c);
  std::vector<std::int64_t> dist(N, 0);
  std::vector<int> count(N, 0);
  std::vector<char> queued(N, 1);
  std::deque<int> queue;
  for (int v = 0; v < n; ++v) queue.push_back(v);
  while (!queue.empty()) {
    const auto v = static_cast<std::size_t>(queue.front());
    queue.pop_front();
    queued[v] = 0;
    for (const auto& [u, c] : out[v]) {
      const auto uu = static_cast<std::size_t>(u);
      if (dist[v] + c >= dist[uu]) continue;
      dist[uu] = dist[v] + c;
      if (++count[uu] > n) return std::nullopt;
      if (!queued[uu]) {
        queued[uu] = 1;
        queue.push_back(u);
      }
    }
  }
  return dist;
}

}  // namespace lac::test
