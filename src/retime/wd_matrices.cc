#include "retime/wd_matrices.h"

#include <algorithm>
#include <deque>
#include <queue>

#include "base/check.h"
#include "base/parallel.h"

namespace lac::retime {

namespace {

// Scalarised edge cost: w*BIG - d(tail).  Negative-cost edges exist
// (w = 0), but every cycle carries at least one register so cycle costs
// are >= BIG - Σd > 0: no negative cycles.
std::int64_t edge_cost(const RetimingGraph& g, std::int64_t big, int e) {
  const auto& ed = g.edge(e);
  return static_cast<std::int64_t>(ed.w) * big -
         static_cast<std::int64_t>(g.delay_decips(ed.tail));
}

// Bellman–Ford potentials from a virtual source (all vertices at 0).
std::vector<std::int64_t> bellman_ford_potentials(const RetimingGraph& g,
                                                  std::int64_t big) {
  const int n = g.num_vertices();
  std::vector<std::int64_t> h(static_cast<std::size_t>(n), 0);
  std::vector<int> relax_count(static_cast<std::size_t>(n), 0);
  std::vector<char> in_queue(static_cast<std::size_t>(n), 1);
  std::deque<int> queue;
  for (int v = 0; v < n; ++v) queue.push_back(v);
  while (!queue.empty()) {
    const int u = queue.front();
    queue.pop_front();
    in_queue[static_cast<std::size_t>(u)] = 0;
    for (const int e : g.out_edges(u)) {
      const int v = g.edge(e).head;
      const std::int64_t nd =
          h[static_cast<std::size_t>(u)] + edge_cost(g, big, e);
      if (nd < h[static_cast<std::size_t>(v)]) {
        h[static_cast<std::size_t>(v)] = nd;
        LAC_CHECK_MSG(++relax_count[static_cast<std::size_t>(v)] <= n,
                      "register-free cycle: not a valid sequential circuit");
        if (!in_queue[static_cast<std::size_t>(v)]) {
          in_queue[static_cast<std::size_t>(v)] = 1;
          queue.push_back(v);
        }
      }
    }
  }
  return h;
}

// One source row of W/D: Dijkstra with reduced costs from u, decoding
// distances into (w, d) entries.  `wrow`/`drow` must be pre-filled with
// kUnreachable / 0; `dist` is caller-provided scratch of size n.  Returns
// the row's contribution to t_init (max d over w == 0 entries).
std::int32_t dijkstra_row(const RetimingGraph& g, std::int64_t big,
                          const std::vector<std::int64_t>& h, int u,
                          std::vector<std::int64_t>& dist, std::int32_t* wrow,
                          std::int32_t* drow) {
  const int n = g.num_vertices();
  constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max() / 4;
  using Item = std::pair<std::int64_t, int>;
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
      const std::int64_t rc = edge_cost(g, big, e) +
                              h[static_cast<std::size_t>(x)] -
                              h[static_cast<std::size_t>(y)];
      LAC_CHECK(rc >= 0);
      const std::int64_t nd = dd + rc;
      if (nd < dist[static_cast<std::size_t>(y)]) {
        dist[static_cast<std::size_t>(y)] = nd;
        heap.push({nd, y});
      }
    }
  }
  std::int32_t t_init = 0;
  for (int v = 0; v < n; ++v) {
    if (dist[static_cast<std::size_t>(v)] >= kInf) continue;
    // Undo the reweighting to recover the true scalar distance.
    const std::int64_t true_dist = dist[static_cast<std::size_t>(v)] -
                                   h[static_cast<std::size_t>(u)] +
                                   h[static_cast<std::size_t>(v)];
    // Decode (W, S): dist = W*BIG - S with 0 <= S < BIG.
    const std::int64_t w64 = (true_dist + big - 1) / big;
    const std::int64_t s = w64 * big - true_dist;
    LAC_CHECK(w64 >= 0 && s >= 0 && s < big);
    const std::int64_t d64 = s + g.delay_decips(v);
    wrow[v] = static_cast<std::int32_t>(w64);
    drow[v] = static_cast<std::int32_t>(d64);
    if (w64 == 0) t_init = std::max(t_init, static_cast<std::int32_t>(d64));
  }
  return t_init;
}

}  // namespace

WdMatrices WdMatrices::compute(const RetimingGraph& g,
                               const base::ExecPolicy& exec) {
  // A cold build is the incremental build from an empty previous matrix:
  // every vertex is new, so every row is affected and runs its Dijkstra.
  return compute_incremental(
      g, exec, RetimingGraph(), WdMatrices(),
      std::vector<int>(static_cast<std::size_t>(g.num_vertices()), -1));
}

WdMatrices WdMatrices::compute_incremental(const RetimingGraph& g,
                                           const base::ExecPolicy& exec,
                                           const RetimingGraph& prev_g,
                                           const WdMatrices& prev,
                                           const std::vector<int>& new_to_old,
                                           std::int64_t* rows_rebuilt) {
  const int n = g.num_vertices();
  // An empty `prev` has no rows to transfer; prev_g is then unused.
  const int pn = prev.n();
  // Dense storage is O(n^2) * 8 bytes; refuse sizes that would silently
  // exhaust memory (50k vertices ~ 20 GB) — callers at that scale should
  // stream constraints per source instead.
  LAC_CHECK_MSG(n <= 40000, "graph too large for dense W/D matrices: " << n);
  LAC_CHECK(pn == 0 || pn == prev_g.num_vertices());
  LAC_CHECK(static_cast<int>(new_to_old.size()) == n);

  // Inverse mapping (old vertex -> new vertex, -1 when removed).  The
  // forward mapping must be injective and in range.
  std::vector<int> old_to_new(static_cast<std::size_t>(pn), -1);
  for (int v = 0; v < n; ++v) {
    const int ov = new_to_old[static_cast<std::size_t>(v)];
    if (ov < 0) continue;
    LAC_CHECK(ov < pn);
    LAC_CHECK_MSG(old_to_new[static_cast<std::size_t>(ov)] < 0,
                  "new_to_old maps two vertices onto old vertex " << ov);
    old_to_new[static_cast<std::size_t>(ov)] = v;
  }

  // A vertex is *changed* when its old row context cannot be trusted: it is
  // new, its delay moved, or its out-edges differ under the mapping.
  std::vector<char> changed(static_cast<std::size_t>(n), 0);
  for (int v = 0; v < n; ++v) {
    const int ov = new_to_old[static_cast<std::size_t>(v)];
    if (ov < 0) {
      changed[static_cast<std::size_t>(v)] = 1;
      continue;
    }
    if (prev_g.delay_decips(ov) != g.delay_decips(v)) {
      changed[static_cast<std::size_t>(v)] = 1;
      continue;
    }
    const auto& ne = g.out_edges(v);
    const auto& oe = prev_g.out_edges(ov);
    if (ne.size() != oe.size()) {
      changed[static_cast<std::size_t>(v)] = 1;
      continue;
    }
    for (std::size_t k = 0; k < ne.size(); ++k) {
      const auto& ned = g.edge(ne[k]);
      const auto& oed = prev_g.edge(oe[k]);
      const int mapped_head =
          old_to_new[static_cast<std::size_t>(oed.head)];
      if (mapped_head != ned.head || oed.w != ned.w) {
        changed[static_cast<std::size_t>(v)] = 1;
        break;
      }
    }
  }

  // Affected sources: everything that can reach a changed vertex in g
  // (reverse BFS).  Any other source sees a subgraph isomorphic — same
  // delays, same weights — to what prev_g showed it, so its row transfers.
  std::vector<char> affected = changed;
  std::deque<int> queue;
  for (int v = 0; v < n; ++v)
    if (changed[static_cast<std::size_t>(v)]) queue.push_back(v);
  while (!queue.empty()) {
    const int v = queue.front();
    queue.pop_front();
    for (const int e : g.in_edges(v)) {
      const int t = g.edge(e).tail;
      if (!affected[static_cast<std::size_t>(t)]) {
        affected[static_cast<std::size_t>(t)] = 1;
        queue.push_back(t);
      }
    }
  }

  WdMatrices out;
  out.n_ = n;
  out.w_.assign(static_cast<std::size_t>(n) * static_cast<std::size_t>(n),
                kUnreachable);
  out.d_.assign(static_cast<std::size_t>(n) * static_cast<std::size_t>(n), 0);

  const std::int64_t big = g.total_delay_decips() + 1;
  const std::vector<std::int64_t> h = bellman_ford_potentials(g, big);

  out.t_init_ = 0;
  out.max_vertex_delay_ = 0;
  for (int v = 0; v < n; ++v)
    out.max_vertex_delay_ =
        std::max(out.max_vertex_delay_, g.delay_decips(v));

  // Per-source Dijkstra with reduced costs for affected rows, a column-
  // permuted copy for the rest.  Each source u writes only its own row of
  // W/D plus its own slot of t_init_row, so sources are independent and
  // run under the caller's ExecPolicy; the t_init max is reduced
  // sequentially afterwards in source order.
  std::vector<std::int32_t> t_init_row(static_cast<std::size_t>(n), 0);
  base::parallel_for_chunked(
      exec, static_cast<std::size_t>(n),
      [&](std::size_t chunk_begin, std::size_t chunk_end) {
        // One scratch buffer per chunk, reused across its sources.
        std::vector<std::int64_t> dist(static_cast<std::size_t>(n));
        for (std::size_t su = chunk_begin; su < chunk_end; ++su) {
          const int u = static_cast<int>(su);
          const std::size_t row =
              static_cast<std::size_t>(u) * static_cast<std::size_t>(n);
          if (affected[su]) {
            t_init_row[su] =
                dijkstra_row(g, big, h, u, dist, &out.w_[row], &out.d_[row]);
            continue;
          }
          // Transfer the old row, permuting columns old -> new.  Columns of
          // removed old vertices are necessarily kUnreachable here (a
          // reachable removed vertex would have marked u affected), and new
          // vertices are unreachable from u for the same reason, so the
          // kUnreachable/0 fill is already correct for them.
          const int ou = new_to_old[su];
          const std::size_t old_row =
              static_cast<std::size_t>(ou) * static_cast<std::size_t>(pn);
          for (int ov = 0; ov < pn; ++ov) {
            const int nv = old_to_new[static_cast<std::size_t>(ov)];
            if (nv < 0) continue;
            const std::int32_t w =
                prev.w_[old_row + static_cast<std::size_t>(ov)];
            if (w == kUnreachable) continue;
            const std::int32_t d =
                prev.d_[old_row + static_cast<std::size_t>(ov)];
            out.w_[row + static_cast<std::size_t>(nv)] = w;
            out.d_[row + static_cast<std::size_t>(nv)] = d;
            if (w == 0) t_init_row[su] = std::max(t_init_row[su], d);
          }
        }
      });
  for (const std::int32_t t : t_init_row)
    out.t_init_ = std::max(out.t_init_, t);

  if (rows_rebuilt != nullptr) {
    std::int64_t rebuilt = 0;
    for (const char a : affected) rebuilt += a;
    *rows_rebuilt = rebuilt;
  }
  return out;
}

}  // namespace lac::retime
