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
// relax-count bound stays as a backstop.  The solver is exact and handles
// arbitrary integer weights.  A feasible system's answer does not depend on
// the detection: shortest-path distances from the virtual source are unique.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "base/check.h"

namespace lac::graph {

// Solves the system that `for_each_arc` describes: for_each_arc(f) must
// call f(u, v, c) once per constraint x[u] - x[v] <= c, in the same order
// each time (it is called twice), with u and v in [0, num_vars).  Callers
// that already hold their constraints in another form solve them without
// copying them into a DiffConstraints first.  Returns the shortest-path
// assignment (all values <= 0), or nullopt if the system is infeasible.
// If `relaxations` is non-null the number of successful relaxations is
// added to it; the count depends only on the constraints and their order.
template <typename ForEachArc>
[[nodiscard]] std::optional<std::vector<std::int64_t>>
solve_difference_constraints(int num_vars, ForEachArc&& for_each_arc,
                             std::int64_t* relaxations = nullptr);

class DiffConstraints {
 public:
  explicit DiffConstraints(int num_vars);

  // Add constraint  x[u] - x[v] <= c.
  void add(int u, int v, std::int64_t c);

  [[nodiscard]] int num_vars() const { return num_vars_; }
  [[nodiscard]] std::size_t num_constraints() const { return arcs_.size(); }

  // Returns a feasible assignment, or nullopt if the system is infeasible
  // (negative cycle).  The assignment is the shortest-path tree from a
  // virtual source with 0-weight arcs to all vertices, so all values are
  // <= 0; callers may shift by a constant freely.
  [[nodiscard]] std::optional<std::vector<std::int64_t>> solve() const;

  // Feasibility check only (same cost as solve()).
  [[nodiscard]] bool feasible() const { return solve().has_value(); }

 private:
  struct Arc {
    int u;  // constrained variable (head of shortest-path relaxation)
    int v;  // reference variable
    std::int64_t c;
  };

  int num_vars_;
  std::vector<Arc> arcs_;
};

namespace detail {

// Relaxation arcs grouped by tail: the arcs leaving v are
// [first[v], first[v + 1]) of `head` / `weight`.
struct ArcLists {
  std::vector<int> first;
  std::vector<int> head;
  std::vector<std::int64_t> weight;
};

std::optional<std::vector<std::int64_t>> shortest_paths(
    int num_vars, const ArcLists& arcs, std::int64_t* relaxations);

}  // namespace detail

template <typename ForEachArc>
std::optional<std::vector<std::int64_t>> solve_difference_constraints(
    int num_vars, ForEachArc&& for_each_arc, std::int64_t* relaxations) {
  // Constraint x[u] - x[v] <= c is relaxation arc v -> u with weight c.
  const auto n = static_cast<std::size_t>(num_vars);
  detail::ArcLists arcs;
  arcs.first.assign(n + 1, 0);
  for_each_arc([&](int u, int v, std::int64_t) {
    LAC_CHECK(u >= 0 && u < num_vars && v >= 0 && v < num_vars);
    ++arcs.first[static_cast<std::size_t>(v) + 1];
  });
  for (std::size_t v = 0; v < n; ++v) arcs.first[v + 1] += arcs.first[v];
  arcs.head.resize(static_cast<std::size_t>(arcs.first[n]));
  arcs.weight.resize(arcs.head.size());
  {
    std::vector<int> fill(arcs.first.begin(), arcs.first.end() - 1);
    for_each_arc([&](int u, int v, std::int64_t c) {
      const auto k =
          static_cast<std::size_t>(fill[static_cast<std::size_t>(v)]++);
      arcs.head[k] = u;
      arcs.weight[k] = c;
    });
  }
  return detail::shortest_paths(num_vars, arcs, relaxations);
}

}  // namespace lac::graph
