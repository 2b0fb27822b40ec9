#include "graph/diff_constraints.h"

#include <algorithm>

namespace lac::graph {

namespace detail {

namespace {

// A vertex on a cycle of the parent graph, or -1 when it has none.  The
// parent of v is the tail of its parent arc.  Each vertex is walked at most
// once: a walk from s stamps the vertices it passes with s + 1 and stops at
// a root (no parent arc), at a vertex an earlier walk finished, or — a
// cycle — at a vertex of its own walk.
int find_parent_cycle(const ArcLists& arcs, const std::vector<int>& parent_arc,
                      std::vector<int>& stamp) {
  std::fill(stamp.begin(), stamp.end(), 0);
  const int n = static_cast<int>(parent_arc.size());
  for (int s = 0; s < n; ++s) {
    if (stamp[static_cast<std::size_t>(s)] != 0) continue;
    int v = s;
    while (v != -1 && stamp[static_cast<std::size_t>(v)] == 0) {
      stamp[static_cast<std::size_t>(v)] = s + 1;
      const int a = parent_arc[static_cast<std::size_t>(v)];
      v = a == -1 ? -1 : arcs.tail[static_cast<std::size_t>(a)];
    }
    if (v != -1 && stamp[static_cast<std::size_t>(v)] == s + 1) return v;
  }
  return -1;
}

// The parent arcs around the cycle through `on_cycle`, in the order the
// cycle runs (each arc's head is the next arc's tail).
std::vector<int> parent_cycle(const ArcLists& arcs,
                              const std::vector<int>& parent_arc,
                              int on_cycle) {
  std::vector<int> cycle;
  int v = on_cycle;
  do {
    const int a = parent_arc[static_cast<std::size_t>(v)];
    cycle.push_back(a);
    v = arcs.tail[static_cast<std::size_t>(a)];
  } while (v != on_cycle);
  std::reverse(cycle.begin(), cycle.end());
  return cycle;
}

}  // namespace

std::optional<std::vector<std::int64_t>> shortest_paths(
    int num_vars, int source, const ArcLists& arcs, std::int64_t* relaxations,
    std::vector<int>* negative_cycle) {
  const auto n = static_cast<std::size_t>(num_vars);
  if (negative_cycle != nullptr) negative_cycle->clear();
  // Virtual source = all vertices start at distance 0 and in the queue; a
  // real one alone, every other vertex at kNoPath until an arc reaches it.
  const bool virtual_source = source == -1;
  std::vector<std::int64_t> dist(n, virtual_source ? 0 : kNoPath);
  std::vector<int> parent_arc(n, -1);
  std::vector<int> relax_count(n, 0);
  std::vector<int> stamp(n, 0);
  std::vector<char> in_queue(n, virtual_source ? 1 : 0);
  // FIFO ring: a vertex is queued at most once, so n slots suffice.
  std::vector<int> queue(n);
  std::size_t q_head = 0;
  std::size_t q_size = 0;
  if (virtual_source) {
    for (std::size_t v = 0; v < n; ++v) queue[v] = static_cast<int>(v);
    q_size = n;
  } else {
    const auto s = static_cast<std::size_t>(source);
    dist[s] = 0;
    in_queue[s] = 1;
    queue[0] = source;
    q_size = 1;
  }

  std::int64_t relaxed = 0;
  int since_check = 0;
  auto finish = [&](std::optional<std::vector<std::int64_t>> answer) {
    if (relaxations != nullptr) *relaxations += relaxed;
    return answer;
  };
  // Infeasible: report the parent graph's cycle, if it has one.
  auto refute = [&](int on_cycle) {
    if (negative_cycle != nullptr && on_cycle != -1)
      *negative_cycle = parent_cycle(arcs, parent_arc, on_cycle);
    return finish(std::nullopt);
  };
  while (q_size > 0) {
    const int v = queue[q_head];
    q_head = q_head + 1 == n ? 0 : q_head + 1;
    --q_size;
    in_queue[static_cast<std::size_t>(v)] = 0;
    const std::int64_t dv = dist[static_cast<std::size_t>(v)];
    for (int k = arcs.first[static_cast<std::size_t>(v)];
         k < arcs.first[static_cast<std::size_t>(v) + 1]; ++k) {
      const auto sk = static_cast<std::size_t>(k);
      const auto u = static_cast<std::size_t>(arcs.head[sk]);
      const std::int64_t du = dv + arcs.weight[sk];
      if (du >= dist[u]) continue;
      dist[u] = du;
      parent_arc[u] = arcs.index[sk];
      ++relaxed;
      // Backstop: a vertex relaxed more than num_vars times lies on (or is
      // reachable from) a negative cycle.
      if (++relax_count[u] > num_vars)
        return refute(find_parent_cycle(arcs, parent_arc, stamp));
      // Amortised cycle check: one O(V) walk per num_vars relaxations.
      if (++since_check == num_vars) {
        since_check = 0;
        if (const int c = find_parent_cycle(arcs, parent_arc, stamp); c != -1)
          return refute(c);
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
