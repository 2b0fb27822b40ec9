#include "route/global_router.h"

#include <algorithm>
#include <limits>
#include <map>
#include <numeric>
#include <queue>
#include <unordered_map>

#include "base/check.h"
#include "base/parallel.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace lac::route {

GlobalRouter::GlobalRouter(const tile::TileGrid& grid, RouterOptions opt)
    : grid_(grid), opt_(opt) {
  const int nh = (grid_.nx() - 1) * grid_.ny();   // horizontal boundaries
  const int nv = grid_.nx() * (grid_.ny() - 1);   // vertical boundaries
  usage_.assign(static_cast<std::size_t>(nh + nv), 0.0);
  history_.assign(static_cast<std::size_t>(nh + nv), 0.0);
}

int GlobalRouter::edge_index(int cell_a, int cell_b) const {
  const int nx = grid_.nx();
  int a = std::min(cell_a, cell_b);
  int b = std::max(cell_a, cell_b);
  if (b == a + 1) {
    // horizontal edge between (gx, gy) and (gx+1, gy), gx = a % nx
    LAC_CHECK(a % nx != nx - 1);
    return (a / nx) * (nx - 1) + (a % nx);
  }
  LAC_CHECK(b == a + nx);
  return (nx - 1) * grid_.ny() + a;  // vertical edges after all horizontal
}

RouteTree GlobalRouter::route_one(const RouteRequest& net) const {
  return route_one(net, usage_.data(), nullptr);
}

RouteTree GlobalRouter::route_one(
    const RouteRequest& net, const double* usage,
    const std::vector<int>* removed_edges) const {
  const int nx = grid_.nx();
  const int ny = grid_.ny();
  const int n_cells = nx * ny;
  auto idx = [&](const Cell& c) { return c.gy * nx + c.gx; };

  RouteTree tree;
  // Distinct sink cells, excluding the source cell (colocated sinks need no
  // global wire).
  std::vector<Cell> sinks;
  for (const Cell& s : net.sinks)
    if (s != net.source &&
        std::find(sinks.begin(), sinks.end(), s) == sinks.end())
      sinks.push_back(s);
  if (sinks.empty()) return tree;

  // parent[cell] = neighbour one step closer to the source along the tree.
  std::vector<int> parent(static_cast<std::size_t>(n_cells), -2);  // -2: not in tree
  parent[static_cast<std::size_t>(idx(net.source))] = -1;          // root
  std::vector<int> tree_cells{idx(net.source)};

  std::vector<double> dist(static_cast<std::size_t>(n_cells));
  std::vector<int> pred(static_cast<std::size_t>(n_cells));
  std::vector<char> pending_sink(static_cast<std::size_t>(n_cells), 0);
  for (const Cell& s : sinks) pending_sink[static_cast<std::size_t>(idx(s))] = 1;

  // The cost field is fixed for the whole call, so every edge is priced
  // once: cost[e] from its usage (less one track on each removed edge)
  // and its history.
  const std::size_t num_edges = usage_.size();
  const double cap = opt_.edge_capacity;
  auto price = [&](std::size_t e, double u) {
    double cost = 1.0 + history_[e];
    if (u >= cap) {
      cost += opt_.congestion_weight * (1.0 + (u - cap));
    } else if (u > 0.5 * cap) {
      cost += opt_.congestion_weight * (u - 0.5 * cap) / (0.5 * cap);
    }
    return cost;
  };
  std::vector<double> cost(num_edges);
  for (std::size_t e = 0; e < num_edges; ++e) cost[e] = price(e, usage[e]);
  if (removed_edges != nullptr)
    for (const int e : *removed_edges) {
      const auto se = static_cast<std::size_t>(e);
      cost[se] = price(se, usage[se] - 1.0);
    }
  // Edge arrays: the horizontal edge right of cell c is
  // (c / nx)·(nx − 1) + c % nx, the vertical edge below it v_base + c.
  const int v_base = (nx - 1) * ny;

  int remaining = static_cast<int>(sinks.size());
  while (remaining > 0) {
    // Dijkstra from the whole current tree to the nearest pending sink.
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
      if (pending_sink[static_cast<std::size_t>(u)]) {
        found = u;
        break;
      }
      const int ux = u % nx, uy = u / nx;
      const int right = uy * (nx - 1) + ux;  // edge to u + 1
      const int nbr[4] = {ux > 0 ? u - 1 : -1, ux < nx - 1 ? u + 1 : -1,
                          uy > 0 ? u - nx : -1, uy < ny - 1 ? u + nx : -1};
      const int edge[4] = {right - 1, right, v_base + u - nx, v_base + u};
      for (int k = 0; k < 4; ++k) {
        const int v = nbr[k];
        if (v < 0) continue;
        const double nd = d + cost[static_cast<std::size_t>(edge[k])];
        if (nd < dist[static_cast<std::size_t>(v)]) {
          dist[static_cast<std::size_t>(v)] = nd;
          pred[static_cast<std::size_t>(v)] = u;
          heap.push({nd, v});
        }
      }
    }
    LAC_CHECK_MSG(found != -1, "maze router failed to reach a sink");

    // Splice the new path into the tree (stop where it meets the tree).
    int v = found;
    while (parent[static_cast<std::size_t>(v)] == -2) {
      const int p = pred[static_cast<std::size_t>(v)];
      LAC_CHECK(p != -1);
      parent[static_cast<std::size_t>(v)] = p;
      tree_cells.push_back(v);
      v = p;
    }
    pending_sink[static_cast<std::size_t>(found)] = 0;
    --remaining;
  }

  // Emit per-sink source paths (parallel to net.sinks — a sink colocated
  // with the source gets the trivial single-cell path) and the edge set.
  tree.sink_paths.reserve(net.sinks.size());
  for (const Cell& s : net.sinks) {
    std::vector<Cell> path;
    for (int v = idx(s); v != -1; v = parent[static_cast<std::size_t>(v)])
      path.push_back(Cell{v % nx, v / nx});
    std::reverse(path.begin(), path.end());
    LAC_CHECK(path.front() == net.source);
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

void GlobalRouter::add_usage(const RouteTree& t, double delta) {
  for (const auto& [a, b] : t.edges)
    usage_[static_cast<std::size_t>(edge_index(a, b))] += delta;
}

// ---- replay of a logged run ----------------------------------------------
// u_prev/h_prev track the logged run's usage and history exactly, advanced
// event by event in the log's commit order.  `diff` marks the edges whose
// *cost* currently differs between the replayed state and the live state;
// with zero marked edges the two cost fields are identical everywhere, so a
// logged Dijkstra result (including its tie-breaks) is the live result.
struct GlobalRouter::Replay {
  static constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

  Replay(const GlobalRouter& router, const RouteLog& log)
      : r(router),
        prev(log),
        half(0.5 * router.opt_.edge_capacity),
        u_prev(router.usage_.size(), 0.0),
        h_prev(router.usage_.size(), 0.0),
        diff(router.usage_.size(), 0) {
    for (std::size_t q = 0; q < prev.keys.size(); ++q)
      req_of.emplace(prev.keys[q], q);
    for (std::size_t p = 0; p < prev.events.size(); ++p)
      event_at.emplace(
          std::make_pair(prev.events[p].phase, prev.events[p].key), p);
  }

  [[nodiscard]] bool request_unchanged(long long key,
                                       const RouteRequest& net) const {
    const auto it = req_of.find(key);
    return it != req_of.end() && prev.requests[it->second] == net;
  }
  // Position of the unconsumed logged event for (phase, key), or kNone.
  [[nodiscard]] std::size_t event(int phase, long long key) const {
    const auto it = event_at.find({phase, key});
    return it != event_at.end() && it->second >= cursor ? it->second : kNone;
  }
  // Usages a and b give the same congestion cost (flat below half).
  [[nodiscard]] bool cong_eq(double a, double b) const {
    return a == b || (a <= half && b <= half);
  }

  // Re-derives diff[e] after the live or the replayed state of e changed.
  void update_diff(int e) {
    const auto se = static_cast<std::size_t>(e);
    const bool d =
        h_prev[se] != r.history_[se] || !cong_eq(u_prev[se], r.usage_[se]);
    if (d && !diff[se]) {
      diff[se] = 1;
      ++n_diff;
      diff_list.push_back(e);
    } else if (!d && diff[se]) {
      diff[se] = 0;
      --n_diff;
    }
  }
  void update_diff(const RouteTree& t) {
    for (const auto& [a, b] : t.edges) update_diff(r.edge_index(a, b));
  }

  void bump_prev_history() {
    for (std::size_t e = 0; e < u_prev.size(); ++e)
      if (u_prev[e] > r.opt_.edge_capacity) {
        h_prev[e] += r.opt_.history_weight;
        update_diff(static_cast<int>(e));
      }
  }
  void commit_prev(const RouteLog::Event& ev) {
    if (ev.phase >= 1) {
      const auto it = prev_tree_of.find(ev.key);
      LAC_CHECK(it != prev_tree_of.end());
      for (const auto& [a, b] : it->second->edges) {
        const int e = r.edge_index(a, b);
        u_prev[static_cast<std::size_t>(e)] -= 1.0;
        update_diff(e);
      }
    }
    for (const auto& [a, b] : ev.tree.edges) {
      const int e = r.edge_index(a, b);
      u_prev[static_cast<std::size_t>(e)] += 1.0;
      update_diff(e);
    }
    prev_tree_of[ev.key] = &ev.tree;
  }
  // Consumes log events before position `target` and applies the replayed
  // run's round-boundary history bumps up to the target event's phase, so
  // u_prev/h_prev are exactly the logged run's state just before `target`.
  void align_to(std::size_t target) {
    while (cursor < target) {
      const auto& ev = prev.events[cursor];
      while (prev_phase < ev.phase) {
        bump_prev_history();
        ++prev_phase;
      }
      commit_prev(ev);
      ++cursor;
    }
    while (prev_phase < prev.events[target].phase) {
      bump_prev_history();
      ++prev_phase;
    }
  }

  // Initial-pass replay test for `key`: the logged tree is the live result
  // when the request is unchanged and the two cost fields agree everywhere.
  // The logged event is consumed either way.
  bool reuse_initial(long long key, bool unchanged, RouteTree& out) {
    const std::size_t p = event(0, key);
    if (p == kNone) return false;
    align_to(p);
    const auto& ev = prev.events[p];
    const bool ok = unchanged && n_diff == 0;
    if (ok) out = ev.tree;
    commit_prev(ev);
    ++cursor;
    return ok;
  }

  // Rip-up replay test for `key`, whose live tree has the sorted edge
  // indices `own_cur`.  The logged Dijkstra ran with the net's own previous
  // tree subtracted; the live one subtracts own_cur.  Outside the marked
  // diff edges and the own-tree symmetric difference the adjusted costs
  // agree automatically, so only those edges need checking.
  bool reuse_ripup(int phase, long long key, bool unchanged,
                   const std::vector<int>& own_cur, RouteTree& out) {
    const std::size_t p = event(phase, key);
    if (p == kNone || !unchanged) return false;
    align_to(p);
    const auto& ev = prev.events[p];
    const auto pt = prev_tree_of.find(key);
    LAC_CHECK(pt != prev_tree_of.end());
    const std::vector<int> own_prev = r.edge_indices(*pt->second);
    auto adjusted_eq = [&](int e) {
      const auto se = static_cast<std::size_t>(e);
      if (h_prev[se] != r.history_[se]) return false;
      const double ap =
          u_prev[se] -
          (std::binary_search(own_prev.begin(), own_prev.end(), e) ? 1.0
                                                                   : 0.0);
      const double ac =
          r.usage_[se] -
          (std::binary_search(own_cur.begin(), own_cur.end(), e) ? 1.0 : 0.0);
      return cong_eq(ap, ac);
    };
    bool ok = true;
    for (const int e : diff_list) {
      if (!diff[static_cast<std::size_t>(e)]) continue;  // stale entry
      if (!adjusted_eq(e)) {
        ok = false;
        break;
      }
    }
    for (std::size_t a = 0, b = 0;
         ok && (a < own_prev.size() || b < own_cur.size());) {
      int e;
      if (b >= own_cur.size() ||
          (a < own_prev.size() && own_prev[a] < own_cur[b])) {
        e = own_prev[a++];
      } else if (a >= own_prev.size() || own_cur[b] < own_prev[a]) {
        e = own_cur[b++];
      } else {  // present in both: adjustment cancels
        ++a;
        ++b;
        continue;
      }
      if (!adjusted_eq(e)) ok = false;
    }
    if (ok) out = ev.tree;
    commit_prev(ev);
    ++cursor;
    return ok;
  }

  const GlobalRouter& r;
  const RouteLog& prev;
  const double half;
  std::vector<double> u_prev;
  std::vector<double> h_prev;
  std::vector<char> diff;
  std::vector<int> diff_list;  // may hold stale (unmarked) entries
  int n_diff = 0;
  // Latest committed tree per key in the replayed run (needed to rip the
  // net's own previous tree during rip-up replay).
  std::unordered_map<long long, const RouteTree*> prev_tree_of;
  std::unordered_map<long long, std::size_t> req_of;
  // (phase, key) -> event position, for candidate lookup.
  std::map<std::pair<int, long long>, std::size_t> event_at;
  std::size_t cursor = 0;  // first unconsumed log event
  int prev_phase = 0;      // rip-up rounds already entered by the replay
};

std::vector<int> GlobalRouter::edge_indices(const RouteTree& t) const {
  std::vector<int> out;
  out.reserve(t.edges.size());
  for (const auto& [a, b] : t.edges) out.push_back(edge_index(a, b));
  std::sort(out.begin(), out.end());
  return out;
}

void GlobalRouter::route_batch(const std::vector<RouteRequest>& nets,
                               const std::vector<long long>& keys,
                               const std::vector<std::size_t>& batch,
                               int phase, std::vector<RouteTree>& trees,
                               std::vector<char>& dirty, Replay& replay,
                               RouteLog* log, IncRouteStats& inc) {
  const bool ripup = phase > 0;
  // A net whose logged event is still unconsumed and whose request is
  // unchanged may be reused, so it is left to the replay test at commit;
  // every other net gets a speculative candidate.
  std::vector<char> unchanged(batch.size());
  std::vector<char> speculate(batch.size());
  std::vector<std::vector<int>> own(batch.size());
  for (std::size_t k = 0; k < batch.size(); ++k) {
    const std::size_t i = batch[k];
    unchanged[k] = replay.request_unchanged(keys[i], nets[i]);
    speculate[k] =
        !unchanged[k] || replay.event(phase, keys[i]) == Replay::kNone;
    if (ripup) own[k] = edge_indices(trees[i]);
  }
  // Candidates are routed in parallel against a frozen usage snapshot;
  // edge_cost is constant below half capacity, so a candidate stays exact
  // as long as every usage change from earlier commits in this batch kept
  // its edge in the flat-cost region (or didn't change effective usage at
  // all).  That check is done per net at commit time, in batch order.
  const std::vector<double> snapshot = usage_;
  std::vector<RouteTree> candidates(batch.size());
  base::parallel_for(opt_.exec, batch.size(), [&](std::size_t k) {
    if (speculate[k])
      candidates[k] = route_one(nets[batch[k]], snapshot.data(),
                                ripup ? &own[k] : nullptr);
  });

  std::vector<int> dirty_list;
  auto mark = [&](const RouteTree& t) {
    for (const auto& [a, b] : t.edges) {
      const int e = edge_index(a, b);
      if (!dirty[static_cast<std::size_t>(e)]) {
        dirty[static_cast<std::size_t>(e)] = 1;
        dirty_list.push_back(e);
      }
    }
  };
  auto snapshot_valid = [&](std::size_t k) {
    for (const int e : dirty_list) {
      double s = snapshot[static_cast<std::size_t>(e)];
      double c = usage_[static_cast<std::size_t>(e)];
      if (ripup && std::binary_search(own[k].begin(), own[k].end(), e)) {
        s -= 1.0;
        c -= 1.0;
      }
      if (!replay.cong_eq(s, c)) return false;
    }
    return true;
  };
  for (std::size_t k = 0; k < batch.size(); ++k) {
    const std::size_t i = batch[k];
    const long long key = keys[i];
    if (!ripup && !unchanged[k]) ++inc.invalidated;
    // Replay test, then snapshot validity, then live reroute.
    RouteTree next;
    const bool reused =
        ripup ? replay.reuse_ripup(phase, key, unchanged[k], own[k], next)
              : replay.reuse_initial(key, unchanged[k], next);
    const bool valid = !reused && speculate[k] && snapshot_valid(k);
    if (ripup) {
      mark(trees[i]);
      add_usage(trees[i], -1.0);
      for (const int e : own[k]) replay.update_diff(e);
    }
    if (reused)
      trees[i] = std::move(next);
    else if (valid)
      trees[i] = std::move(candidates[k]);
    else
      trees[i] = route_one(nets[i]);  // sequential fallback, current usage
    add_usage(trees[i], 1.0);
    mark(trees[i]);
    replay.update_diff(trees[i]);
    if (log != nullptr) log->events.push_back({key, phase, trees[i]});
    if (ripup)
      ++(reused ? inc.reused_ripup : inc.cold_ripup);
    else
      ++(reused ? inc.reused_initial : inc.cold_initial);
  }
  for (const int e : dirty_list) dirty[static_cast<std::size_t>(e)] = 0;
}

std::vector<RouteTree> GlobalRouter::route_all(
    const std::vector<RouteRequest>& nets) {
  std::vector<long long> keys(nets.size());
  std::iota(keys.begin(), keys.end(), 0LL);
  return route_all_incremental(nets, keys, RouteLog{}, nullptr, nullptr);
}

std::vector<RouteTree> GlobalRouter::route_all_incremental(
    const std::vector<RouteRequest>& nets, const std::vector<long long>& keys,
    const RouteLog& prev, RouteLog* log, IncRouteStats* inc) {
  LAC_CHECK(keys.size() == nets.size());
  // A resized grid renumbers every routing-graph cell, so no logged
  // Dijkstra is comparable: replay such a log as an empty one.
  IncRouteStats local_inc;
  local_inc.full_fallback = prev.nx != grid_.nx() || prev.ny != grid_.ny();
  const RouteLog empty;
  Replay replay(*this, local_inc.full_fallback ? empty : prev);
  if (log != nullptr) {
    log->nx = grid_.nx();
    log->ny = grid_.ny();
    log->requests = nets;
    log->keys = keys;
    log->events.clear();
  }

  stats_ = {};
  obs::Span span("route.route_all");
  span.annotate("nets", nets.size());
  std::vector<RouteTree> trees(nets.size());
  // Fixed-size batches for every thread count: the snapshot-validity check
  // already makes the result independent of how a batch is split, and a
  // worker-independent batch partition keeps every per-batch effect — obs
  // task captures, snapshot/candidate allocations charged to the route
  // span — byte-identical too.
  std::vector<char> dirty(usage_.size(), 0);
  auto route_in_batches = [&](const std::vector<std::size_t>& order,
                              int phase) {
    constexpr std::size_t kBatchSize = 32;
    for (std::size_t begin = 0; begin < order.size(); begin += kBatchSize) {
      const std::size_t end = std::min(order.size(), begin + kBatchSize);
      const std::vector<std::size_t> batch(
          order.begin() + static_cast<std::ptrdiff_t>(begin),
          order.begin() + static_cast<std::ptrdiff_t>(end));
      route_batch(nets, keys, batch, phase, trees, dirty, replay, log,
                  local_inc);
    }
  };

  // Initial routing, long nets first (they have the least flexibility).
  std::vector<std::size_t> order(nets.size());
  for (std::size_t i = 0; i < nets.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    auto span = [&](const RouteRequest& n) {
      Coord s = 0;
      for (const Cell& c : n.sinks)
        s += std::abs(c.gx - n.source.gx) + std::abs(c.gy - n.source.gy);
      return s;
    };
    return span(nets[a]) > span(nets[b]);
  });
  route_in_batches(order, 0);

  // Rip-up & re-route rounds over nets that touch overflowed edges.
  for (int round = 0; round < opt_.ripup_rounds; ++round) {
    std::vector<char> overflowed(usage_.size(), 0);
    int n_over = 0;
    for (std::size_t e = 0; e < usage_.size(); ++e) {
      if (usage_[e] > opt_.edge_capacity) {
        overflowed[e] = 1;
        ++n_over;
        history_[e] += opt_.history_weight;
        replay.update_diff(static_cast<int>(e));
      }
    }
    if (n_over == 0) break;
    obs::Span round_span("route.ripup_round");
    round_span.annotate("round", round + 1);
    round_span.annotate("overflowed_edges", n_over);
    stats_.ripup_rounds_used = round + 1;
    // The reroute set is fixed at round start: every net is tested before
    // it is itself rerouted, and reroutes of other nets don't change it.
    std::vector<std::size_t> to_reroute;
    for (std::size_t i = 0; i < nets.size(); ++i) {
      if (!trees[i].routed()) continue;
      for (const auto& [a, b] : trees[i].edges)
        if (overflowed[static_cast<std::size_t>(edge_index(a, b))]) {
          to_reroute.push_back(i);
          break;
        }
    }
    route_in_batches(to_reroute, round + 1);
    const long long rerouted = static_cast<long long>(to_reroute.size());
    stats_.nets_rerouted += rerouted;
    round_span.annotate("nets_rerouted", rerouted);
  }

  finalize_stats(trees);
  span.annotate("nets_routed", stats_.nets_routed);
  span.annotate("nets_rerouted", stats_.nets_rerouted);
  span.annotate("ripup_rounds_used", stats_.ripup_rounds_used);
  span.annotate("overflowed_edges", stats_.overflowed_edges);
  span.annotate("max_usage", stats_.max_usage);
  span.annotate("total_wirelength_um", stats_.total_wirelength_um);
  if (inc != nullptr) *inc = local_inc;
  return trees;
}

void GlobalRouter::finalize_stats(const std::vector<RouteTree>& trees) {
  stats_.total_wirelength_um = 0.0;
  stats_.overflowed_edges = 0;
  stats_.max_usage = 0.0;
  for (const auto& t : trees) {
    if (t.routed()) ++stats_.nets_routed;
    stats_.total_wirelength_um +=
        static_cast<double>(t.edges.size()) *
        static_cast<double>(grid_.tile_size());
  }
  for (const double u : usage_) {
    stats_.max_usage = std::max(stats_.max_usage, u);
    if (u > opt_.edge_capacity) ++stats_.overflowed_edges;
    if (u <= 0.0) {
      ++stats_.idle_edges;
      continue;
    }
    const double ratio = u / opt_.edge_capacity;
    std::size_t b = 0;
    while (b < RoutingStats::kUsageBucketBounds.size() &&
           ratio > RoutingStats::kUsageBucketBounds[b])
      ++b;
    ++stats_.usage_histogram[b];
  }
  obs::count("route.nets", stats_.nets_routed);
  obs::count("route.nets_rerouted", stats_.nets_rerouted);
  obs::count("route.overflowed_edges", stats_.overflowed_edges);
  obs::observe("route.max_usage", stats_.max_usage);
}

}  // namespace lac::route
