#include "route/global_router.h"

#include <algorithm>
#include <limits>
#include <map>
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

  auto edge_cost = [&](int a, int b) {
    const int e = edge_index(a, b);
    double u = usage[static_cast<std::size_t>(e)];
    if (removed_edges != nullptr &&
        std::binary_search(removed_edges->begin(), removed_edges->end(), e))
      u -= 1.0;
    const double cap = opt_.edge_capacity;
    double cost = 1.0 + history_[static_cast<std::size_t>(e)];
    if (u >= cap) {
      cost += opt_.congestion_weight * (1.0 + (u - cap));
    } else if (u > 0.5 * cap) {
      cost += opt_.congestion_weight * (u - 0.5 * cap) / (0.5 * cap);
    }
    return cost;
  };

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
      const int nbr[4] = {ux > 0 ? u - 1 : -1, ux < nx - 1 ? u + 1 : -1,
                          uy > 0 ? u - nx : -1, uy < ny - 1 ? u + nx : -1};
      for (const int v : nbr) {
        if (v < 0) continue;
        const double nd = d + edge_cost(u, v);
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

void GlobalRouter::route_batch(const std::vector<RouteRequest>& nets,
                               const std::vector<std::size_t>& batch,
                               bool ripup, std::vector<RouteTree>& trees,
                               std::vector<char>& dirty) {
  // Candidates are routed in parallel against a frozen usage snapshot;
  // edge_cost is constant below half capacity, so a candidate stays exact
  // as long as every usage change from earlier commits in this batch kept
  // its edge in the flat-cost region (or didn't change effective usage at
  // all).  That check is done per net at commit time, in batch order.
  const std::vector<double> snapshot = usage_;
  std::vector<RouteTree> candidates(batch.size());
  std::vector<std::vector<int>> own(batch.size());
  if (ripup) {
    for (std::size_t k = 0; k < batch.size(); ++k) {
      for (const auto& [a, b] : trees[batch[k]].edges)
        own[k].push_back(edge_index(a, b));
      std::sort(own[k].begin(), own[k].end());
    }
  }
  base::parallel_for(opt_.exec, batch.size(), [&](std::size_t k) {
    candidates[k] =
        route_one(nets[batch[k]], snapshot.data(), ripup ? &own[k] : nullptr);
  });

  const double half = 0.5 * opt_.edge_capacity;
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
  for (std::size_t k = 0; k < batch.size(); ++k) {
    const std::size_t i = batch[k];
    bool valid = true;
    for (const int e : dirty_list) {
      double s = snapshot[static_cast<std::size_t>(e)];
      double c = usage_[static_cast<std::size_t>(e)];
      if (ripup && std::binary_search(own[k].begin(), own[k].end(), e)) {
        s -= 1.0;
        c -= 1.0;
      }
      if (s != c && !(s <= half && c <= half)) {
        valid = false;
        break;
      }
    }
    if (ripup) {
      mark(trees[i]);
      add_usage(trees[i], -1.0);
    }
    if (valid)
      trees[i] = std::move(candidates[k]);
    else
      trees[i] = route_one(nets[i]);  // sequential fallback, current usage
    add_usage(trees[i], 1.0);
    mark(trees[i]);
    if (log_ != nullptr)
      log_->events.push_back({(*log_keys_)[i], log_phase_, trees[i]});
  }
  for (const int e : dirty_list) dirty[static_cast<std::size_t>(e)] = 0;
}

std::vector<RouteTree> GlobalRouter::route_all(
    const std::vector<RouteRequest>& nets) {
  return route_all_impl(nets, nullptr, nullptr);
}

std::vector<RouteTree> GlobalRouter::route_all_impl(
    const std::vector<RouteRequest>& nets, const std::vector<long long>* keys,
    RouteLog* log) {
  if (log != nullptr) {
    LAC_CHECK(keys != nullptr);
    log->nx = grid_.nx();
    log->ny = grid_.ny();
    log->requests = nets;
    log->keys = *keys;
    log->events.clear();
    log_ = log;
    log_keys_ = keys;
    log_phase_ = 0;
  }
  stats_ = {};
  obs::Span span("route.route_all");
  span.annotate("nets", nets.size());
  std::vector<RouteTree> trees(nets.size());
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
  // One batched path for every thread count, with a fixed batch size: the
  // snapshot-validity check already makes the result independent of how
  // the batch is split, and a worker-independent batch partition keeps
  // every per-batch effect — obs task captures, snapshot/candidate
  // allocations charged to the route span — byte-identical too.
  std::vector<char> dirty(usage_.size(), 0);
  constexpr std::size_t kBatchSize = 32;
  for (std::size_t begin = 0; begin < order.size(); begin += kBatchSize) {
    const std::size_t end = std::min(order.size(), begin + kBatchSize);
    const std::vector<std::size_t> batch(
        order.begin() + static_cast<std::ptrdiff_t>(begin),
        order.begin() + static_cast<std::ptrdiff_t>(end));
    route_batch(nets, batch, /*ripup=*/false, trees, dirty);
  }

  // Rip-up & re-route rounds over nets that touch overflowed edges.
  for (int round = 0; round < opt_.ripup_rounds; ++round) {
    std::vector<char> overflowed(usage_.size(), 0);
    int n_over = 0;
    for (std::size_t e = 0; e < usage_.size(); ++e) {
      if (usage_[e] > opt_.edge_capacity) {
        overflowed[e] = 1;
        ++n_over;
        history_[e] += opt_.history_weight;
      }
    }
    if (n_over == 0) break;
    obs::Span round_span("route.ripup_round");
    round_span.annotate("round", round + 1);
    round_span.annotate("overflowed_edges", n_over);
    stats_.ripup_rounds_used = round + 1;
    log_phase_ = round + 1;
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
    for (std::size_t begin = 0; begin < to_reroute.size();
         begin += kBatchSize) {
      const std::size_t end = std::min(to_reroute.size(), begin + kBatchSize);
      const std::vector<std::size_t> batch(
          to_reroute.begin() + static_cast<std::ptrdiff_t>(begin),
          to_reroute.begin() + static_cast<std::ptrdiff_t>(end));
      route_batch(nets, batch, /*ripup=*/true, trees, dirty);
    }
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
  log_ = nullptr;
  log_keys_ = nullptr;
  log_phase_ = 0;
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

std::vector<RouteTree> GlobalRouter::route_all_incremental(
    const std::vector<RouteRequest>& nets, const std::vector<long long>& keys,
    const RouteLog& prev, RouteLog* log, IncRouteStats* inc) {
  LAC_CHECK(keys.size() == nets.size());
  if (prev.nx != grid_.nx() || prev.ny != grid_.ny()) {
    // A resized grid renumbers every routing-graph cell, so no logged
    // Dijkstra is comparable; re-route everything on the batched path.
    if (inc != nullptr) {
      inc->full_fallback = true;
      inc->cold_initial = static_cast<long long>(nets.size());
      inc->invalidated = static_cast<long long>(nets.size());
    }
    return route_all_impl(nets, &keys, log);
  }

  stats_ = {};
  obs::Span span("route.route_all");
  span.annotate("nets", nets.size());
  std::vector<RouteTree> trees(nets.size());

  // ---- replayed previous-run trajectory -----------------------------------
  // u_prev/h_prev track the logged run's usage and history exactly, advanced
  // event by event in the log's commit order.  `diff` marks the edges whose
  // *cost* currently differs between the replayed state and the live state;
  // with zero marked edges the two cost fields are identical everywhere, so
  // a logged Dijkstra result (including its tie-breaks) is the live result.
  const std::size_t ne = usage_.size();
  std::vector<double> u_prev(ne, 0.0);
  std::vector<double> h_prev(ne, 0.0);
  std::vector<char> diff(ne, 0);
  std::vector<int> diff_list;  // may hold stale (unmarked) entries
  int n_diff = 0;
  const double half = 0.5 * opt_.edge_capacity;
  auto cong_eq = [&](double a, double b) {
    return a == b || (a <= half && b <= half);
  };
  auto update_diff = [&](int e) {
    const auto se = static_cast<std::size_t>(e);
    const bool d =
        h_prev[se] != history_[se] || !cong_eq(u_prev[se], usage_[se]);
    if (d && !diff[se]) {
      diff[se] = 1;
      ++n_diff;
      diff_list.push_back(e);
    } else if (!d && diff[se]) {
      diff[se] = 0;
      --n_diff;
    }
  };
  auto edge_indices_of = [&](const RouteTree& t) {
    std::vector<int> out;
    out.reserve(t.edges.size());
    for (const auto& [a, b] : t.edges) out.push_back(edge_index(a, b));
    std::sort(out.begin(), out.end());
    return out;
  };

  // Latest committed tree per key in the replayed run (needed to rip the
  // net's own previous tree during rip-up replay).
  std::unordered_map<long long, const RouteTree*> prev_tree_of;
  std::unordered_map<long long, std::size_t> prev_req_of;
  for (std::size_t q = 0; q < prev.keys.size(); ++q)
    prev_req_of.emplace(prev.keys[q], q);
  // (phase, key) -> event position, for candidate lookup.
  std::map<std::pair<int, long long>, std::size_t> event_at;
  for (std::size_t p = 0; p < prev.events.size(); ++p)
    event_at.emplace(std::make_pair(prev.events[p].phase, prev.events[p].key),
                     p);

  std::size_t cursor = 0;  // first unconsumed log event
  int prev_phase = 0;      // rip-up rounds already entered by the replay
  auto bump_prev_history = [&]() {
    for (std::size_t e = 0; e < ne; ++e)
      if (u_prev[e] > opt_.edge_capacity) {
        h_prev[e] += opt_.history_weight;
        update_diff(static_cast<int>(e));
      }
  };
  auto commit_prev = [&](const RouteLog::Event& ev) {
    if (ev.phase >= 1) {
      const auto it = prev_tree_of.find(ev.key);
      LAC_CHECK(it != prev_tree_of.end());
      for (const auto& [a, b] : it->second->edges) {
        const int e = edge_index(a, b);
        u_prev[static_cast<std::size_t>(e)] -= 1.0;
        update_diff(e);
      }
    }
    for (const auto& [a, b] : ev.tree.edges) {
      const int e = edge_index(a, b);
      u_prev[static_cast<std::size_t>(e)] += 1.0;
      update_diff(e);
    }
    prev_tree_of[ev.key] = &ev.tree;
  };
  // Consumes log events before position `target` and applies the replayed
  // run's round-boundary history bumps up to the target event's phase, so
  // u_prev/h_prev are exactly the logged run's state just before `target`.
  auto align_to = [&](std::size_t target) {
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
  };

  if (log != nullptr) {
    log->nx = grid_.nx();
    log->ny = grid_.ny();
    log->requests = nets;
    log->keys = keys;
    log->events.clear();
  }
  IncRouteStats local_inc;
  auto record = [&](long long key, int phase, const RouteTree& t) {
    if (log != nullptr) log->events.push_back({key, phase, t});
  };

  // ---- initial pass, identical order to the cold path ---------------------
  std::vector<std::size_t> order(nets.size());
  for (std::size_t i = 0; i < nets.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     auto net_span = [&](const RouteRequest& n) {
                       Coord s = 0;
                       for (const Cell& c : n.sinks)
                         s += std::abs(c.gx - n.source.gx) +
                              std::abs(c.gy - n.source.gy);
                       return s;
                     };
                     return net_span(nets[a]) > net_span(nets[b]);
                   });
  for (const std::size_t i : order) {
    const long long k = keys[i];
    bool reused = false;
    const auto pit = event_at.find({0, k});
    const auto rit = prev_req_of.find(k);
    const bool request_unchanged =
        rit != prev_req_of.end() && prev.requests[rit->second] == nets[i];
    if (!request_unchanged) ++local_inc.invalidated;
    if (pit != event_at.end() && pit->second >= cursor) {
      align_to(pit->second);
      const auto& ev = prev.events[pit->second];
      if (request_unchanged && n_diff == 0) {
        trees[i] = ev.tree;
        reused = true;
      }
      commit_prev(ev);
      ++cursor;
    }
    if (!reused) trees[i] = route_one(nets[i]);
    add_usage(trees[i], 1.0);
    for (const auto& [a, b] : trees[i].edges) update_diff(edge_index(a, b));
    record(k, 0, trees[i]);
    ++(reused ? local_inc.reused_initial : local_inc.cold_initial);
  }

  // ---- rip-up rounds, identical schedule to the cold path -----------------
  for (int round = 0; round < opt_.ripup_rounds; ++round) {
    std::vector<char> overflowed(usage_.size(), 0);
    int n_over = 0;
    for (std::size_t e = 0; e < usage_.size(); ++e) {
      if (usage_[e] > opt_.edge_capacity) {
        overflowed[e] = 1;
        ++n_over;
        history_[e] += opt_.history_weight;
        update_diff(static_cast<int>(e));
      }
    }
    if (n_over == 0) break;
    obs::Span round_span("route.ripup_round");
    round_span.annotate("round", round + 1);
    round_span.annotate("overflowed_edges", n_over);
    stats_.ripup_rounds_used = round + 1;
    std::vector<std::size_t> to_reroute;
    for (std::size_t i = 0; i < nets.size(); ++i) {
      if (!trees[i].routed()) continue;
      for (const auto& [a, b] : trees[i].edges)
        if (overflowed[static_cast<std::size_t>(edge_index(a, b))]) {
          to_reroute.push_back(i);
          break;
        }
    }
    for (const std::size_t i : to_reroute) {
      const long long k = keys[i];
      const std::vector<int> own_cur = edge_indices_of(trees[i]);
      bool reused = false;
      RouteTree next;
      const auto pit = event_at.find({round + 1, k});
      const auto rit = prev_req_of.find(k);
      const bool request_unchanged =
          rit != prev_req_of.end() && prev.requests[rit->second] == nets[i];
      if (pit != event_at.end() && pit->second >= cursor && request_unchanged) {
        align_to(pit->second);
        const auto& ev = prev.events[pit->second];
        // The logged Dijkstra ran with the net's own previous tree
        // subtracted; the live one subtracts own_cur.  Outside the marked
        // diff edges and the own-tree symmetric difference the adjusted
        // costs agree automatically, so only those edges need checking.
        const auto pt = prev_tree_of.find(k);
        LAC_CHECK(pt != prev_tree_of.end());
        const std::vector<int> own_prev = edge_indices_of(*pt->second);
        auto adjusted_eq = [&](int e) {
          const auto se = static_cast<std::size_t>(e);
          if (h_prev[se] != history_[se]) return false;
          const double ap =
              u_prev[se] -
              (std::binary_search(own_prev.begin(), own_prev.end(), e) ? 1.0
                                                                       : 0.0);
          const double ac =
              usage_[se] -
              (std::binary_search(own_cur.begin(), own_cur.end(), e) ? 1.0
                                                                     : 0.0);
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
        if (ok) {
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
        }
        if (ok) {
          next = ev.tree;
          reused = true;
        }
        commit_prev(ev);
        ++cursor;
      }
      // Rip the net's own tree, then (when not reusing) route on the live
      // state with no overlay — exactly the sequential reference semantics.
      add_usage(trees[i], -1.0);
      for (const int e : own_cur) update_diff(e);
      if (!reused) next = route_one(nets[i]);
      trees[i] = std::move(next);
      add_usage(trees[i], 1.0);
      for (const auto& [a, b] : trees[i].edges) update_diff(edge_index(a, b));
      record(k, round + 1, trees[i]);
      ++(reused ? local_inc.reused_ripup : local_inc.cold_ripup);
    }
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

}  // namespace lac::route
