#include "graph/diff_constraints.h"

#include <algorithm>

namespace lac::graph {

DiffConstraints::DiffConstraints(int num_vars) : num_vars_(num_vars) {
  LAC_CHECK(num_vars >= 0);
}

void DiffConstraints::add(int u, int v, std::int64_t c) {
  LAC_CHECK(u >= 0 && u < num_vars_);
  LAC_CHECK(v >= 0 && v < num_vars_);
  arcs_.push_back({u, v, c});
}

std::optional<std::vector<std::int64_t>> DiffConstraints::solve() const {
  return solve_difference_constraints(num_vars_, [&](const auto& f) {
    for (const Arc& a : arcs_) f(a.u, a.v, a.c);
  });
}

namespace detail {

namespace {

// True when the parent graph holds a cycle.  Each vertex is walked at most
// once: a walk from s stamps the vertices it passes with s + 1 and stops at
// a root (parent -1), at a vertex an earlier walk finished, or — a cycle —
// at a vertex of its own walk.
bool parent_graph_has_cycle(const std::vector<int>& parent,
                            std::vector<int>& stamp) {
  std::fill(stamp.begin(), stamp.end(), 0);
  const int n = static_cast<int>(parent.size());
  for (int s = 0; s < n; ++s) {
    if (stamp[static_cast<std::size_t>(s)] != 0) continue;
    int v = s;
    while (v != -1 && stamp[static_cast<std::size_t>(v)] == 0) {
      stamp[static_cast<std::size_t>(v)] = s + 1;
      v = parent[static_cast<std::size_t>(v)];
    }
    if (v != -1 && stamp[static_cast<std::size_t>(v)] == s + 1) return true;
  }
  return false;
}

}  // namespace

std::optional<std::vector<std::int64_t>> shortest_paths(
    int num_vars, const ArcLists& arcs, std::int64_t* relaxations) {
  const auto n = static_cast<std::size_t>(num_vars);
  // Virtual source = all vertices start at distance 0 and in the queue.
  std::vector<std::int64_t> dist(n, 0);
  std::vector<int> parent(n, -1);
  std::vector<int> relax_count(n, 0);
  std::vector<int> stamp(n, 0);
  std::vector<char> in_queue(n, 1);
  // FIFO ring: a vertex is queued at most once, so n slots suffice.
  std::vector<int> queue(n);
  for (std::size_t v = 0; v < n; ++v) queue[v] = static_cast<int>(v);
  std::size_t q_head = 0;
  std::size_t q_size = n;

  std::int64_t relaxed = 0;
  int since_check = 0;
  auto finish = [&](std::optional<std::vector<std::int64_t>> answer) {
    if (relaxations != nullptr) *relaxations += relaxed;
    return answer;
  };
  while (q_size > 0) {
    const int v = queue[q_head];
    q_head = q_head + 1 == n ? 0 : q_head + 1;
    --q_size;
    in_queue[static_cast<std::size_t>(v)] = 0;
    const std::int64_t dv = dist[static_cast<std::size_t>(v)];
    for (int k = arcs.first[static_cast<std::size_t>(v)];
         k < arcs.first[static_cast<std::size_t>(v) + 1]; ++k) {
      const auto u = static_cast<std::size_t>(
          arcs.head[static_cast<std::size_t>(k)]);
      const std::int64_t du = dv + arcs.weight[static_cast<std::size_t>(k)];
      if (du >= dist[u]) continue;
      dist[u] = du;
      parent[u] = v;
      ++relaxed;
      // Backstop: a vertex relaxed more than num_vars times lies on (or is
      // reachable from) a negative cycle.
      if (++relax_count[u] > num_vars) return finish(std::nullopt);
      // Amortised cycle check: one O(V) walk per num_vars relaxations.
      if (++since_check == num_vars) {
        since_check = 0;
        if (parent_graph_has_cycle(parent, stamp)) return finish(std::nullopt);
      }
      if (!in_queue[u]) {
        in_queue[u] = 1;
        queue[(q_head + q_size) % n] = static_cast<int>(u);
        ++q_size;
      }
    }
  }
  return finish(std::move(dist));
}

}  // namespace detail

}  // namespace lac::graph
