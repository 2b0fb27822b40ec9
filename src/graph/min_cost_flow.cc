#include "graph/min_cost_flow.h"

#include <algorithm>
#include <deque>
#include <queue>

#include "base/check.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace lac::graph {

namespace {
constexpr std::int64_t kInfDist = std::numeric_limits<std::int64_t>::max() / 4;

void check_balanced(const std::vector<std::int64_t>& supply) {
  std::int64_t total = 0;
  for (const std::int64_t s : supply) total += s;
  LAC_CHECK_MSG(total == 0, "supplies must sum to zero, got " << total);
}
}  // namespace

MinCostFlow::MinCostFlow(int num_nodes)
    : n_(num_nodes),
      out_(static_cast<std::size_t>(num_nodes)),
      supply_(static_cast<std::size_t>(num_nodes), 0) {
  LAC_CHECK(num_nodes >= 0);
}

std::int64_t MinCostFlow::bytes_used() const {
  std::size_t bytes = arc_to_.size() * sizeof(int) +
                      arc_cap_.size() * sizeof(std::int64_t) +
                      arc_cost_.size() * sizeof(std::int64_t) +
                      orig_cap_.size() * sizeof(std::int64_t) +
                      supply_.size() * sizeof(std::int64_t) +
                      pi_.size() * sizeof(std::int64_t) +
                      shipped_.size() * sizeof(std::int64_t);
  bytes += out_.size() * sizeof(std::vector<int>);
  for (const std::vector<int>& adj : out_) bytes += adj.size() * sizeof(int);
  return static_cast<std::int64_t>(bytes);
}

int MinCostFlow::add_arc(int from, int to, std::int64_t capacity,
                         std::int64_t cost) {
  LAC_CHECK(from >= 0 && from < n_);
  LAC_CHECK(to >= 0 && to < n_);
  LAC_CHECK(capacity >= 0);
  const int idx = static_cast<int>(arc_to_.size());
  arc_to_.push_back(to);
  arc_cap_.push_back(capacity);
  arc_cost_.push_back(cost);
  orig_cap_.push_back(capacity);
  out_[static_cast<std::size_t>(from)].push_back(idx);
  arc_to_.push_back(from);
  arc_cap_.push_back(0);
  arc_cost_.push_back(-cost);
  orig_cap_.push_back(0);
  out_[static_cast<std::size_t>(to)].push_back(idx + 1);
  warm_valid_ = false;  // the previous optimum does not cover the new arc
  return idx / 2;
}

void MinCostFlow::set_supply(int node, std::int64_t supply) {
  LAC_CHECK(node >= 0 && node < n_);
  supply_[static_cast<std::size_t>(node)] = supply;
}

void MinCostFlow::add_supply(int node, std::int64_t delta) {
  LAC_CHECK(node >= 0 && node < n_);
  supply_[static_cast<std::size_t>(node)] += delta;
}

std::int64_t MinCostFlow::arc_cost(int arc) const {
  LAC_CHECK(arc >= 0 && arc < num_arcs());
  return arc_cost_[static_cast<std::size_t>(2 * arc)];
}

std::optional<std::vector<std::int64_t>> MinCostFlow::initial_potentials() {
  // SPFA from a virtual source connected to every node with 0-cost arcs,
  // over residual arcs that currently have capacity.  More than n
  // relaxations of one node certifies a negative cycle (unbounded LP).
  std::vector<std::int64_t> dist(static_cast<std::size_t>(n_), 0);
  std::vector<int> relax_count(static_cast<std::size_t>(n_), 0);
  std::vector<char> in_queue(static_cast<std::size_t>(n_), 1);
  std::deque<int> queue;
  for (int v = 0; v < n_; ++v) queue.push_back(v);

  while (!queue.empty()) {
    const int u = queue.front();
    queue.pop_front();
    in_queue[static_cast<std::size_t>(u)] = 0;
    for (const int a : out_[static_cast<std::size_t>(u)]) {
      if (arc_cap_[static_cast<std::size_t>(a)] <= 0) continue;
      const int v = arc_to_[static_cast<std::size_t>(a)];
      const std::int64_t nd =
          dist[static_cast<std::size_t>(u)] + arc_cost_[static_cast<std::size_t>(a)];
      if (nd < dist[static_cast<std::size_t>(v)]) {
        dist[static_cast<std::size_t>(v)] = nd;
        ++stats_.spfa_relaxations;
        if (++relax_count[static_cast<std::size_t>(v)] > n_)
          return std::nullopt;
        if (!in_queue[static_cast<std::size_t>(v)]) {
          in_queue[static_cast<std::size_t>(v)] = 1;
          queue.push_back(v);
        }
      }
    }
  }
  return dist;
}

bool MinCostFlow::ship(std::vector<std::int64_t>& excess,
                       std::vector<std::int64_t>& pi) {
  // Primal-dual SSP (see min_cost_flow.h).  Each phase runs one Dijkstra
  // on reduced costs seeded from every node with positive excess, settles
  // nodes until the settled demand covers the outstanding excess and lifts
  // the potentials.  It then ships a maximum flow from the excess nodes to
  // the deficit nodes over the admissible network — residual arcs at zero
  // reduced cost after the lift — as a series of Dinic blocking flows.
  // Pushing along a zero-reduced-cost arc leaves its reverse arc at zero
  // reduced cost too, so reduced-cost optimality is preserved push by push.
  const auto n = static_cast<std::size_t>(n_);
  std::vector<std::int64_t> dist(n);
  std::vector<char> settled(n);
  // Blocking-flow scratch, shared by every phase of this call.
  std::vector<int> level(n);        // BFS level over admissible arcs
  std::vector<std::size_t> cur(n);  // current-arc position in out_[v]
  std::vector<int> queue(n);
  std::vector<int> path;            // DFS stack: arcs from the source
  path.reserve(n);
  std::vector<PhasePush> audit;
  using HeapItem = std::pair<std::int64_t, int>;
  std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap;

  const auto tail_of = [&](int a) {
    return arc_to_[static_cast<std::size_t>(a ^ 1)];
  };
  const auto reduced_cost = [&](int a) {
    return arc_cost_[static_cast<std::size_t>(a)] +
           pi[static_cast<std::size_t>(tail_of(a))] -
           pi[static_cast<std::size_t>(arc_to_[static_cast<std::size_t>(a)])];
  };
  const auto admissible = [&](int a) {
    return arc_cap_[static_cast<std::size_t>(a)] > 0 && reduced_cost(a) == 0;
  };
  const auto level_of_head = [&](int a) {
    return level[static_cast<std::size_t>(
        arc_to_[static_cast<std::size_t>(a)])];
  };

  std::int64_t remaining = 0;  // total positive excess still to ship
  for (int v = 0; v < n_; ++v)
    remaining += std::max<std::int64_t>(excess[static_cast<std::size_t>(v)], 0);

  while (remaining > 0) {
    // --- Dijkstra phase over the whole excess set. ---
    std::fill(dist.begin(), dist.end(), kInfDist);
    std::fill(settled.begin(), settled.end(), 0);
    for (int v = 0; v < n_; ++v) {
      if (excess[static_cast<std::size_t>(v)] <= 0) continue;
      dist[static_cast<std::size_t>(v)] = 0;
      heap.push({0, v});
    }
    std::int64_t settled_demand = 0;
    std::int64_t frontier = 0;  // distance of the last node settled
    while (!heap.empty()) {
      const auto [d, u] = heap.top();
      heap.pop();
      ++stats_.dijkstra_pops;
      if (d != dist[static_cast<std::size_t>(u)] ||
          settled[static_cast<std::size_t>(u)])
        continue;
      settled[static_cast<std::size_t>(u)] = 1;
      frontier = d;
      if (excess[static_cast<std::size_t>(u)] < 0) {
        settled_demand += -excess[static_cast<std::size_t>(u)];
        // Enough settled demand to absorb everything still outstanding:
        // no need to settle (or relax) any further this phase.
        if (settled_demand >= remaining) break;
      }
      for (const int a : out_[static_cast<std::size_t>(u)]) {
        if (arc_cap_[static_cast<std::size_t>(a)] <= 0) continue;
        ++stats_.arcs_relaxed;
        const int v = arc_to_[static_cast<std::size_t>(a)];
        const std::int64_t rc = arc_cost_[static_cast<std::size_t>(a)] +
                                pi[static_cast<std::size_t>(u)] -
                                pi[static_cast<std::size_t>(v)];
        LAC_CHECK_MSG(rc >= 0, "negative reduced cost " << rc);
        const std::int64_t nd = d + rc;
        if (nd < dist[static_cast<std::size_t>(v)]) {
          dist[static_cast<std::size_t>(v)] = nd;
          heap.push({nd, v});
        }
      }
    }
    while (!heap.empty()) heap.pop();

    if (settled_demand == 0) return false;  // no demand reachable
    ++stats_.phases;

    // Lift potentials so reduced costs stay nonnegative: settled nodes by
    // their exact distance, everything else by the settlement frontier
    // (their true distance is at least `frontier`, so validity holds on
    // every residual arc crossing the settled boundary).  Every settled
    // sink is now joined to an excess node by a zero-reduced-cost path.
    for (int v = 0; v < n_; ++v) {
      pi[static_cast<std::size_t>(v)] +=
          settled[static_cast<std::size_t>(v)]
              ? dist[static_cast<std::size_t>(v)]
              : frontier;
    }

    // --- Maximum flow over the admissible network: blocking flows until
    // no excess node reaches a deficit node over admissible arcs.
    for (;;) {
      std::fill(level.begin(), level.end(), -1);
      std::size_t head = 0;
      std::size_t tail = 0;
      for (int v = 0; v < n_; ++v) {
        if (excess[static_cast<std::size_t>(v)] <= 0) continue;
        level[static_cast<std::size_t>(v)] = 0;
        queue[tail++] = v;
      }
      bool reaches_deficit = false;
      while (head < tail) {
        const int u = queue[head++];
        reaches_deficit |= excess[static_cast<std::size_t>(u)] < 0;
        for (const int a : out_[static_cast<std::size_t>(u)]) {
          const auto v =
              static_cast<std::size_t>(arc_to_[static_cast<std::size_t>(a)]);
          if (level[v] >= 0 || !admissible(a)) continue;
          level[v] = level[static_cast<std::size_t>(u)] + 1;
          queue[tail++] = static_cast<int>(v);
        }
      }
      if (!reaches_deficit) break;

      // Blocking flow: an iterative DFS from each excess node along
      // level-increasing admissible arcs, with per-node current-arc
      // pointers so a dead end is never scanned twice in this round.
      std::fill(cur.begin(), cur.end(), 0);
      for (int s = 0; s < n_; ++s) {
        if (level[static_cast<std::size_t>(s)] != 0) continue;
        int u = s;
        path.clear();
        while (excess[static_cast<std::size_t>(s)] > 0) {
          if (excess[static_cast<std::size_t>(u)] < 0) {
            // Reached a deficit node: augment by the bottleneck.
            std::int64_t push = std::min(excess[static_cast<std::size_t>(s)],
                                         -excess[static_cast<std::size_t>(u)]);
            for (const int a : path)
              push = std::min(push, arc_cap_[static_cast<std::size_t>(a)]);
            std::size_t saturated = path.size();
            for (std::size_t k = 0; k < path.size(); ++k) {
              const auto a = static_cast<std::size_t>(path[k]);
              if (phase_audit_)
                audit.push_back({path[k], reduced_cost(path[k])});
              arc_cap_[a] -= push;
              arc_cap_[a ^ 1] += push;
              if (arc_cap_[a] == 0 && saturated == path.size()) saturated = k;
            }
            excess[static_cast<std::size_t>(s)] -= push;
            excess[static_cast<std::size_t>(u)] += push;
            remaining -= push;
            ++stats_.augmentations;
            stats_.flow_shipped += push;
            // Resume from the tail of the first saturated arc; a filled
            // sink with no saturated arc carries on as a transit node.
            if (saturated < path.size()) {
              u = tail_of(path[saturated]);
              path.resize(saturated);
            }
            continue;
          }
          const std::vector<int>& adj = out_[static_cast<std::size_t>(u)];
          std::size_t& i = cur[static_cast<std::size_t>(u)];
          const int next_level = level[static_cast<std::size_t>(u)] + 1;
          while (i < adj.size() &&
                 (level_of_head(adj[i]) != next_level || !admissible(adj[i])))
            ++i;
          if (i < adj.size()) {
            path.push_back(adj[i]);
            u = arc_to_[static_cast<std::size_t>(adj[i])];
            continue;
          }
          if (path.empty()) break;  // s reaches no deficit node this round
          u = tail_of(path.back());  // dead end: retreat past it
          path.pop_back();
          ++cur[static_cast<std::size_t>(u)];
        }
      }
    }
    if (phase_audit_) {
      phase_audit_({stats_.phases, audit, pi, excess, arc_cap_});
      audit.clear();
    }
  }
  return true;
}

std::optional<MinCostFlow::Solution> MinCostFlow::finish_solution(
    std::vector<std::int64_t> pi) {
  Solution sol;
  sol.flow.resize(static_cast<std::size_t>(num_arcs()));
  __int128 total_cost = 0;
  for (int i = 0; i < num_arcs(); ++i) {
    // Flow on forward arc 2i equals residual capacity of its twin 2i+1
    // (backward arcs are constructed with zero capacity).
    const std::int64_t f = arc_cap_[static_cast<std::size_t>(2 * i + 1)];
    sol.flow[static_cast<std::size_t>(i)] = f;
    total_cost +=
        static_cast<__int128>(arc_cost_[static_cast<std::size_t>(2 * i)]) * f;
  }
  LAC_CHECK_MSG(
      total_cost <= static_cast<__int128>(
                        std::numeric_limits<std::int64_t>::max()) &&
          total_cost >= static_cast<__int128>(
                            std::numeric_limits<std::int64_t>::min()),
      "min-cost-flow objective overflows int64");
  sol.total_cost_exact = static_cast<std::int64_t>(total_cost);
  sol.total_cost = static_cast<double>(sol.total_cost_exact);

  // Retain the warm state for the next solve().
  pi_ = pi;
  shipped_ = supply_;
  warm_valid_ = true;

  sol.potential = std::move(pi);
  return sol;
}

void MinCostFlow::close_span(obs::Span& span, bool feasible) const {
  span.annotate("feasible", feasible);
  span.annotate("phases", stats_.phases);
  span.annotate("augmentations", stats_.augmentations);
  span.annotate("dijkstra_pops", stats_.dijkstra_pops);
  span.annotate("arcs_relaxed", stats_.arcs_relaxed);
  span.annotate("spfa_relaxations", stats_.spfa_relaxations);
  span.annotate("flow_shipped", stats_.flow_shipped);
  obs::count("mcf.solves");
  if (!feasible) obs::count("mcf.infeasible_solves");
  obs::count("mcf.phases", stats_.phases);
  obs::count("mcf.augmentations", stats_.augmentations);
  obs::count("mcf.arcs_relaxed", stats_.arcs_relaxed);
  obs::count("mcf.spfa_relaxations", stats_.spfa_relaxations);
  obs::observe("mcf.solve_seconds", span.elapsed_seconds());
}

std::optional<MinCostFlow::Solution> MinCostFlow::solve() {
  obs::Span span("mcf.solve");
  span.annotate("nodes", n_);
  span.annotate("arcs", num_arcs());
  span.annotate("warm", warm_valid_);
  check_balanced(supply_);

  stats_ = {};
  stats_.warm = warm_valid_;
  warm_valid_ = false;  // until this call reaches an optimum
  std::vector<std::int64_t> excess = supply_;
  std::vector<std::int64_t> pi;
  if (stats_.warm) {
    // The previous flow ships `shipped_`; only the supply delta is left.
    for (std::size_t v = 0; v < excess.size(); ++v) excess[v] -= shipped_[v];
    pi = pi_;
  } else {
    arc_cap_ = orig_cap_;  // ship from zero flow, whatever ran before
    auto pot = initial_potentials();
    if (!pot) {
      close_span(span, false);
      return std::nullopt;  // negative cycle: unbounded
    }
    pi = std::move(*pot);
  }

  const bool feasible = ship(excess, pi);
  close_span(span, feasible);
  if (stats_.warm) obs::count("mcf.warm_restarts");
  if (!feasible) return std::nullopt;
  return finish_solution(std::move(pi));
}

std::vector<std::int64_t> MinCostFlow::residual_distances_from(
    int root) const {
  LAC_CHECK(root >= 0 && root < n_);
  LAC_CHECK_MSG(warm_valid_, "residual distances need an up-to-date optimum");
  // Dijkstra on reduced costs (nonnegative by the warm invariant), then
  // translate back to original-cost distances:
  //   d(v) = d^pi(v) − pi(root) + pi(v).
  std::vector<std::int64_t> dist(static_cast<std::size_t>(n_), kInfDist);
  using HeapItem = std::pair<std::int64_t, int>;
  std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap;
  dist[static_cast<std::size_t>(root)] = 0;
  heap.push({0, root});
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d != dist[static_cast<std::size_t>(u)]) continue;
    for (const int a : out_[static_cast<std::size_t>(u)]) {
      const auto sa = static_cast<std::size_t>(a);
      if (arc_cap_[sa] <= 0) continue;
      const int v = arc_to_[sa];
      const std::int64_t rc = arc_cost_[sa] +
                              pi_[static_cast<std::size_t>(u)] -
                              pi_[static_cast<std::size_t>(v)];
      LAC_CHECK_MSG(rc >= 0, "negative reduced cost " << rc);
      const std::int64_t nd = d + rc;
      if (nd < dist[static_cast<std::size_t>(v)]) {
        dist[static_cast<std::size_t>(v)] = nd;
        heap.push({nd, v});
      }
    }
  }
  std::vector<std::int64_t> out(static_cast<std::size_t>(n_), kUnreachable);
  for (int v = 0; v < n_; ++v) {
    const auto sv = static_cast<std::size_t>(v);
    if (dist[sv] >= kInfDist) continue;
    out[sv] = dist[sv] - pi_[static_cast<std::size_t>(root)] + pi_[sv];
  }
  return out;
}

}  // namespace lac::graph
