// Congestion-aware global routing over the tile grid (paper §4.1).
//
// Each inter-block net is routed as a rectilinear Steiner tree on the
// physical cell grid: sinks are connected one at a time (nearest first) by
// a Dijkstra wavefront expanded from the *whole* current tree, which is the
// classic iterated closest-component construction (cf. Ho–Vijayan–Wong).
// Edge costs combine wirelength with a congestion penalty, and a few
// rip-up-and-re-route rounds with history costs (negotiated-congestion
// flavour) clean up overflowed edges.  Wirelength first, congestion second
// — exactly the priorities the paper states for this step.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "base/exec_policy.h"
#include "tile/tile_grid.h"

namespace lac::route {

struct Cell {
  int gx = 0;
  int gy = 0;
  friend constexpr auto operator<=>(const Cell&, const Cell&) = default;
};

struct RouteRequest {
  Cell source;
  std::vector<Cell> sinks;
  friend bool operator==(const RouteRequest&, const RouteRequest&) = default;
};

struct RouteTree {
  // sink_paths[i] = cell sequence source .. sinks[i] (inclusive), following
  // tree edges; consecutive cells are 4-neighbours.
  std::vector<std::vector<Cell>> sink_paths;
  // Distinct tree edges, as (cell, cell) with the lower cell index first.
  std::vector<std::pair<int, int>> edges;
  [[nodiscard]] bool routed() const { return !sink_paths.empty(); }
  friend bool operator==(const RouteTree&, const RouteTree&) = default;
};

// Replay log of one routing run: every tree commit, in commit order,
// tagged with a caller-stable net key.  Feeding the log of a previous run
// into route_all_incremental() lets an ECO re-plan skip the Dijkstra for
// nets whose cost field provably matches the logged run (see the exactness
// notes there) while still producing bit-identical results.
struct RouteLog {
  struct Event {
    long long key = 0;  // caller-stable net identity (e.g. driver cell id)
    int phase = 0;      // 0 = initial pass; r >= 1 = rip-up round r
    RouteTree tree;     // the tree committed for `key` at this point
    friend bool operator==(const Event&, const Event&) = default;
  };
  int nx = 0, ny = 0;                  // grid dims the log was recorded on
  std::vector<RouteRequest> requests;  // per net, in input order
  std::vector<long long> keys;         // parallel to requests; unique
  std::vector<Event> events;           // in commit order (phases ascending)
  friend bool operator==(const RouteLog&, const RouteLog&) = default;
};

// Work accounting for route_all_incremental (effort only — the routing
// result and RoutingStats are bit-identical to a cold route_all).  A net
// that is not reused is routed speculatively or on live state; `cold_*`
// counts nets, not Dijkstra runs.
struct IncRouteStats {
  long long reused_initial = 0;  // initial-pass trees reused from the log
  long long cold_initial = 0;    // initial-pass nets not reused
  long long reused_ripup = 0;    // rip-up reroutes reused from the log
  long long cold_ripup = 0;      // rip-up reroutes not reused
  long long invalidated = 0;     // nets with no/changed request in the log
  bool full_fallback = false;    // log grid dims differ: replayed as empty
};

struct RouterOptions {
  double edge_capacity = 16.0;     // global tracks per cell boundary
  double congestion_weight = 2.0;  // cost multiplier once usage nears capacity
  double history_weight = 1.5;     // negotiated-congestion history increment
  int ripup_rounds = 3;
  // Execution policy for speculative parallel net routing (see route_all).
  // Output is bitwise-identical to sequential routing for any thread count.
  base::ExecPolicy exec = base::ExecPolicy::sequential();
};

struct RoutingStats {
  double total_wirelength_um = 0.0;  // sum over nets of tree edge length
  int overflowed_edges = 0;          // edges with usage > capacity (final)
  double max_usage = 0.0;
  int ripup_rounds_used = 0;
  int nets_routed = 0;               // nets with at least one real sink
  long long nets_rerouted = 0;       // rip-up re-routes across all rounds

  // Final distribution of edge usage/capacity: bucket i counts boundary
  // edges with ratio in (kUsageBucketBounds[i-1], kUsageBucketBounds[i]];
  // bucket 0 starts at 0 (exclusive of idle edges counted in idle_edges),
  // the last bucket is unbounded.  Buckets past 1.0 are the overflow
  // histogram.
  static constexpr std::array<double, 7> kUsageBucketBounds{
      0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0};
  std::array<int, 8> usage_histogram{};
  int idle_edges = 0;                // edges with zero usage
  friend bool operator==(const RoutingStats&, const RoutingStats&) = default;
};

class GlobalRouter {
 public:
  GlobalRouter(const tile::TileGrid& grid, RouterOptions opt = {});

  // Routes all nets; result[i] corresponds to nets[i].  Sinks equal to the
  // source are dropped; a net whose sinks all coincide with the source gets
  // an empty tree with routed() == false.  This is route_all_incremental
  // against an empty log.
  [[nodiscard]] std::vector<RouteTree> route_all(
      const std::vector<RouteRequest>& nets);

  // The routing driver: routes `nets` while replaying the log of a previous
  // run.  `keys[i]` is a caller-stable identity for nets[i] (unique).  The
  // result (trees, usage, history, stats()) is bit-identical to
  // route_all(nets) on a fresh router, for any thread count: a logged tree
  // is reused only when the net's request is unchanged AND the replayed
  // cost field of the logged run matches the current cost field everywhere
  // (the edge cost is flat below half capacity, so usage drift inside the
  // flat region keeps costs — and hence Dijkstra results, including
  // tie-breaks — identical); every other net is routed speculatively or on
  // live state (see route_batch).  A log recorded on other grid dims —
  // always the case for an empty log — is replayed as empty, so every net
  // is speculated.  `inc` (optional) receives the work accounting; `log`
  // (optional) records this run for the next increment.
  [[nodiscard]] std::vector<RouteTree> route_all_incremental(
      const std::vector<RouteRequest>& nets, const std::vector<long long>& keys,
      const RouteLog& prev, RouteLog* log, IncRouteStats* inc);

  [[nodiscard]] const RoutingStats& stats() const { return stats_; }

 private:
  // The logged run's usage/history trajectory, advanced alongside the live
  // state (defined in global_router.cc).
  struct Replay;

  // Fills the final-usage part of stats_ and emits the route.* counters.
  void finalize_stats(const std::vector<RouteTree>& trees);
  [[nodiscard]] RouteTree route_one(const RouteRequest& net) const;
  // Core maze routing against an explicit usage array.  `removed_edges`
  // (sorted edge indices, may be null) is an overlay subtracting one track
  // per listed edge — used during rip-up to exclude a net's own tree
  // without mutating shared state.
  [[nodiscard]] RouteTree route_one(
      const RouteRequest& net, const double* usage,
      const std::vector<int>* removed_edges) const;
  // Routes the nets in `batch` (indices into nets/trees) of pass `phase`
  // (0 = initial, r = rip-up round r), committing them sequentially in
  // batch order.  A net the log may supply (unchanged request, unconsumed
  // event) is tested by replay at commit; every other net gets a candidate
  // routed in parallel against a usage snapshot, committed only when every
  // edge whose usage changed since the snapshot still yields the identical
  // cost.  Any net that fails its test is rerouted on the spot, so the
  // result is exactly what the purely sequential algorithm produces.
  // `dirty` is a caller-provided all-zero scratch buffer of edge flags
  // (returned all-zero).
  void route_batch(const std::vector<RouteRequest>& nets,
                   const std::vector<long long>& keys,
                   const std::vector<std::size_t>& batch, int phase,
                   std::vector<RouteTree>& trees, std::vector<char>& dirty,
                   Replay& replay, RouteLog* log, IncRouteStats& inc);
  void add_usage(const RouteTree& t, double delta);
  [[nodiscard]] int edge_index(int cell_a, int cell_b) const;
  // Sorted edge indices of t.
  [[nodiscard]] std::vector<int> edge_indices(const RouteTree& t) const;

  const tile::TileGrid& grid_;
  RouterOptions opt_;
  // Edge arrays: horizontal edges (between (gx,gy)-(gx+1,gy)) then vertical.
  std::vector<double> usage_;
  std::vector<double> history_;
  RoutingStats stats_;
};

}  // namespace lac::route
