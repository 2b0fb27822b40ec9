// System-of-difference-constraints solver.
//
// Retiming legality and clock-period feasibility (Leiserson–Saxe constraints
// (1) and (2) of the paper) are systems of the form
//
//     x[u] - x[v] <= c        for each constraint (u, v, c)
//
// which are feasible iff the corresponding constraint graph (arc v -> u with
// weight c ... equivalently arc u -> v, see below) has no negative cycle.
// We use the standard formulation: constraint x[u] - x[v] <= c becomes an
// arc (v -> u) with weight c; single-source shortest paths from a virtual
// source reaching every vertex yield a feasible assignment x = dist.
//
// The solver is Bellman–Ford with a queue (SPFA) and amortised
// negative-cycle detection (Cherkassky & Goldberg, "Negative-cycle detection
// algorithms", Math. Prog. 1999): every relaxation records the vertex's
// parent, and every num_vars relaxations one O(V) walk of the parent graph
// looks for a cycle.  A cycle in the parent graph always has negative
// weight, so an infeasible system is usually refuted after a few walks
// instead of after some vertex has been relaxed num_vars times; that
// relax-count bound stays as a backstop.  The parents are recorded as arcs,
// so the cycle that refutes a system is reported as the constraints it
// sums: a certificate of infeasibility the caller can check and reason
// about (the min-period search bounds its next probe with it).  The solver
// is exact and handles arbitrary integer weights.  A feasible system's answer does not depend on
// the detection: shortest-path distances from the virtual source are unique.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "base/check.h"

namespace lac::graph {

// Solves the system that `for_each_arc` describes: for_each_arc(f) must
// call f(u, v, c) once per constraint x[u] - x[v] <= c, in the same order
// each time (it is called twice), with u and v in [0, num_vars), so
// callers solve their constraints in whatever form they hold them.
// Returns the shortest-path assignment from a virtual source with 0-weight
// arcs to every vertex (all values <= 0; shift by a constant freely), or
// nullopt if the system is infeasible (negative cycle).
// If `relaxations` is non-null the number of successful relaxations is
// added to it; the count depends only on the constraints and their order.
// If `negative_cycle` is non-null it is cleared, and an infeasible system
// fills it with a negative cycle: the indices of its constraints in
// for_each_arc order (0 for the first call of f), ordered so that each
// constraint's v is the previous one's u (and the first's v the last's u).
// Their c sum to less than zero.  It stays empty only when the solver gives
// up at its relax-count backstop with no cycle in its parent graph.
template <typename ForEachArc>
[[nodiscard]] std::optional<std::vector<std::int64_t>>
solve_difference_constraints(int num_vars, ForEachArc&& for_each_arc,
                             std::int64_t* relaxations = nullptr,
                             std::vector<int>* negative_cycle = nullptr);

// The distance of a vertex that no path from the source reaches.
inline constexpr std::int64_t kNoPath =
    std::numeric_limits<std::int64_t>::max() / 4;

// The same solver from a real `source`: the shortest-path distance from
// `source` to every vertex over the arcs v -> u of weight c, kNoPath where
// no path leads, or nullopt if a negative cycle is reachable from it.
// Cycles the source does not reach are not looked for.
template <typename ForEachArc>
[[nodiscard]] std::optional<std::vector<std::int64_t>> shortest_paths_from(
    int num_vars, int source, ForEachArc&& for_each_arc);

namespace detail {

// Relaxation arcs grouped by tail: the arcs leaving v are
// [first[v], first[v + 1]) of `head` / `weight` / `index`, where `index` is
// the arc's constraint index in for_each_arc order.  `tail` maps that
// constraint index back to the arc's tail.
struct ArcLists {
  std::vector<int> first;
  std::vector<int> head;
  std::vector<std::int64_t> weight;
  std::vector<int> index;
  std::vector<int> tail;
};

// SPFA from `source`, or from the virtual source when it is -1.
std::optional<std::vector<std::int64_t>> shortest_paths(
    int num_vars, int source, const ArcLists& arcs, std::int64_t* relaxations,
    std::vector<int>* negative_cycle);

template <typename ForEachArc>
ArcLists arc_lists(int num_vars, ForEachArc&& for_each_arc) {
  // Constraint x[u] - x[v] <= c is relaxation arc v -> u with weight c.
  const auto n = static_cast<std::size_t>(num_vars);
  ArcLists arcs;
  arcs.first.assign(n + 1, 0);
  for_each_arc([&](int u, int v, std::int64_t) {
    LAC_CHECK(u >= 0 && u < num_vars && v >= 0 && v < num_vars);
    ++arcs.first[static_cast<std::size_t>(v) + 1];
    arcs.tail.push_back(v);
  });
  for (std::size_t v = 0; v < n; ++v) arcs.first[v + 1] += arcs.first[v];
  arcs.head.resize(arcs.tail.size());
  arcs.weight.resize(arcs.tail.size());
  arcs.index.resize(arcs.tail.size());
  {
    std::vector<int> fill(arcs.first.begin(), arcs.first.end() - 1);
    int i = 0;
    for_each_arc([&](int u, int v, std::int64_t c) {
      const auto k =
          static_cast<std::size_t>(fill[static_cast<std::size_t>(v)]++);
      arcs.head[k] = u;
      arcs.weight[k] = c;
      arcs.index[k] = i++;
    });
  }
  return arcs;
}

}  // namespace detail

template <typename ForEachArc>
std::optional<std::vector<std::int64_t>> solve_difference_constraints(
    int num_vars, ForEachArc&& for_each_arc, std::int64_t* relaxations,
    std::vector<int>* negative_cycle) {
  return detail::shortest_paths(num_vars, -1,
                                detail::arc_lists(num_vars, for_each_arc),
                                relaxations, negative_cycle);
}

template <typename ForEachArc>
std::optional<std::vector<std::int64_t>> shortest_paths_from(
    int num_vars, int source, ForEachArc&& for_each_arc) {
  LAC_CHECK(source >= 0 && source < num_vars);
  return detail::shortest_paths(num_vars, source,
                                detail::arc_lists(num_vars, for_each_arc),
                                nullptr, nullptr);
}

}  // namespace lac::graph
