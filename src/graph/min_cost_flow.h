// Minimum-cost flow via successive shortest paths with Johnson potentials,
// warm-started from the previous optimum whenever one is retained.
//
// This is the optimisation engine behind (weighted) min-area retiming: the
// retiming LP  min Σ b(v)·r(v)  s.t.  r(u) − r(v) ≤ c(u,v)  is the linear-
// programming dual of a transshipment problem, and the optimal node
// potentials of that flow problem recover an optimal integral retiming
// (see retime/min_area.cc for the exact reduction).
//
// Features required by that use and supported here:
//   * negative arc costs (clock constraints can have cost W(u,v) − 1 = −1
//     or lower) — handled by Bellman–Ford initial potentials;
//   * "infinite" capacities (use MinCostFlow::kInfCap);
//   * node supplies/demands (b-flow), with Σ supply = 0 enforced;
//   * residual shortest distances from a root, from which retiming reads
//     its canonical labels (residual_distances_from);
//   * re-solving after supply edits: solve() warm-starts from the previous
//     optimum — see below.
//
// Shipping kernel (primal-dual blocking flow; Ahuja, Magnanti & Orlin,
// *Network Flows*, §9.8).  Flow is shipped in phases over the excess set.
// Every phase runs one Dijkstra on reduced costs seeded from *all* nodes
// with positive excess at distance 0, settles nodes until the settled
// demand covers the outstanding excess, and lifts the potentials.  After
// the lift every settled demand node is joined to an excess node by a
// path of zero-reduced-cost residual arcs.  The phase then ships a
// *maximum* flow from the excess nodes to the deficit nodes over the
// admissible network (residual arcs with capacity and zero reduced cost):
// Dinic blocking flows, with BFS levels seeded from every excess node and
// an iterative DFS with per-node current-arc pointers, repeated until no
// excess node reaches a deficit node over admissible arcs.  Pushing along
// a zero-reduced-cost arc leaves its reverse arc at zero reduced cost, so
// reduced-cost optimality is preserved push by push.  The next Dijkstra
// runs only when the admissible network is exhausted, so one phase serves
// every sink that any excess node reaches at zero reduced cost, not only
// along the shortest-path tree.  A warm solve() ships its (small)
// supply-imbalance delta in the same phases (docs/INCREMENTAL_MCF.md).
//
// Warm-start contract (docs/INCREMENTAL_MCF.md): after a successful
// solve(), supply edits (set_supply/add_supply) re-ship only Δb; add_arc()
// or an infeasible call makes the next solve() ship from zero.  Supply
// edits keep reduced-cost optimality intact, so the warm call ships the
// imbalance in the same multi-source Dijkstra phases on the warm residual
// network (no Bellman–Ford).  Either way solve() returns an exact optimum,
// and a cold solve is simply an instance's first solve.
//
// Complexity: O(#phases · (E log V + F)), where F is the cost of one
// phase's maximum flow over the admissible network (Dinic: O(V²E) worst
// case, in practice a few O(E) BFS/DFS rounds).  Each phase ships along at
// least one path, so #phases ≤ #augmentations; and a phase leaves no
// zero-reduced-cost path from an excess node to a deficit node, so the
// next phase's shortest excess→deficit distance is strictly positive.  A
// warm solve() pays only for the imbalance actually re-shipped.  Scratch
// is allocated once per call and both searches are iterative, so path
// length is bounded by memory, not by the stack.  Costs/flows are int64;
// the objective is accumulated in __int128 and exposed exactly.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <vector>

namespace lac::obs {
class Span;
}  // namespace lac::obs

namespace lac::graph {

class MinCostFlow {
 public:
  static constexpr std::int64_t kInfCap =
      std::numeric_limits<std::int64_t>::max() / 4;
  // Sentinel distance for nodes unreachable in the residual network
  // (residual_distances_from).
  static constexpr std::int64_t kUnreachable =
      std::numeric_limits<std::int64_t>::max() / 4;

  explicit MinCostFlow(int num_nodes);

  // Adds a directed arc; returns its index for later flow queries.
  // Invalidates any warm state (the next solve() starts from zero flow).
  int add_arc(int from, int to, std::int64_t capacity, std::int64_t cost);

  // Positive supply = net out-flow the node must ship; negative = demand.
  void set_supply(int node, std::int64_t supply);
  void add_supply(int node, std::int64_t delta);

  // Cost of an arc (index as returned by add_arc).
  [[nodiscard]] std::int64_t arc_cost(int arc) const;

  struct Solution {
    // Exact optimum objective Σ cost·flow.  Accumulated in __int128 and
    // checked to fit — never silently narrowed.
    std::int64_t total_cost_exact = 0;
    // The same value as a double, kept for reporting convenience only.
    double total_cost = 0.0;
    // Flow on each arc, indexed by add_arc() return values.  Optimality
    // potentials are residual_distances_from()'s.
    std::vector<std::int64_t> flow;
  };

  // Solves the current instance.  With a retained optimum it reuses that
  // optimum's flow and potentials and ships only the supply delta (the
  // warm-start contract above); otherwise it restores every arc's
  // residual capacity and ships all supplies from zero flow.
  // Either way the result is an exact optimum, and calling solve() again
  // with nothing changed returns the same solution.  Returns nullopt if
  // the instance is infeasible (supplies cannot be routed) or unbounded
  // (negative cycle of infinite-capacity arcs).
  [[nodiscard]] std::optional<Solution> solve();

  // Shortest distances from `root` to every node over the *current*
  // residual network, measured in original arc costs (computed with
  // Dijkstra on reduced costs, so it is cheap).  Only valid after a
  // successful solve() with no add_arc() since.  Unreachable
  // nodes get kUnreachable.
  //
  // For an optimal flow these distances are *canonical*: every optimal
  // flow of the instance yields the same vector (they are the marginal
  // costs of shipping one more unit root→v, a property of the LP, not of
  // the particular optimum found).  The retiming layer derives its labels
  // from them so that cold and warm solves agree bit-for-bit.
  [[nodiscard]] std::vector<std::int64_t> residual_distances_from(
      int root) const;

  // Solver internals of the most recent solve() call — the
  // augmentation and relaxation counts the observability layer reports.
  struct SolveStats {
    int phases = 0;                 // multi-source Dijkstra phases run
    int augmentations = 0;          // blocking-flow paths that shipped flow
    long long dijkstra_pops = 0;    // heap extractions across all phases
    long long arcs_relaxed = 0;     // residual arcs scanned (Dijkstra phase)
    long long spfa_relaxations = 0; // Bellman–Ford (SPFA) phase relaxations
    std::int64_t flow_shipped = 0;  // total units pushed along paths
    bool warm = false;              // this solve reused the previous optimum
  };
  [[nodiscard]] const SolveStats& stats() const { return stats_; }

  // Test/debug hook: called once per phase, after that phase's maximum
  // flow, with the phase's pushes and the solver state they left.
  struct PhasePush {
    int arc = 0;  // residual arc index (forward arcs even, backward odd)
    // The arc's reduced cost recomputed at push time, i.e. after the
    // phase's potential lift (the kernel only pushes where it is zero).
    std::int64_t reduced_cost_after = 0;
  };
  struct PhaseAudit {
    int phase = 0;  // 1-based phase number within the current call
    // One record per residual arc of every path pushed in the phase.
    const std::vector<PhasePush>& pushes;
    const std::vector<std::int64_t>& potential;     // after the lift
    const std::vector<std::int64_t>& excess;        // left to ship, per node
    const std::vector<std::int64_t>& residual_cap;  // per residual arc
  };
  // Unset (the default) costs nothing; setting it is meant for tests.
  using PhaseAuditFn = std::function<void(const PhaseAudit&)>;
  void set_phase_audit(PhaseAuditFn fn) { phase_audit_ = std::move(fn); }

  [[nodiscard]] int num_nodes() const { return n_; }
  [[nodiscard]] int num_arcs() const { return static_cast<int>(arc_to_.size()) / 2; }

  // Logical heap footprint of the residual network and warm state
  // (element counts × element sizes, not allocator capacity) —
  // deterministic for any thread count and identical for warm and cold
  // instances of the same network, reported as mem.mcf_network_bytes.
  [[nodiscard]] std::int64_t bytes_used() const;

 private:
  // Paired-arc residual representation: arc 2i is forward, 2i+1 backward.
  int n_;
  std::vector<int> arc_to_;
  std::vector<std::int64_t> arc_cap_;   // residual capacity
  std::vector<std::int64_t> arc_cost_;
  std::vector<std::int64_t> orig_cap_;  // constructed capacities (reset)
  std::vector<std::vector<int>> out_;   // node -> residual arc indices
  std::vector<std::int64_t> supply_;
  SolveStats stats_;
  PhaseAuditFn phase_audit_;

  // Warm state: valid after a successful solve().  `pi_` keeps
  // reduced costs nonnegative over the residual network left by the flow
  // that ships `shipped_`.
  bool warm_valid_ = false;
  std::vector<std::int64_t> pi_;
  std::vector<std::int64_t> shipped_;

  // Bellman–Ford over residual arcs with cap > 0; nullopt on negative cycle.
  [[nodiscard]] std::optional<std::vector<std::int64_t>> initial_potentials();

  // Shared SSP core: ships `excess` to zero over the current residual
  // network, starting from valid potentials `pi`, in primal-dual phases
  // (see the kernel comment at the top).  Returns false when some excess
  // cannot be routed (infeasible).
  [[nodiscard]] bool ship(std::vector<std::int64_t>& excess,
                          std::vector<std::int64_t>& pi);

  [[nodiscard]] std::optional<Solution> finish_solution(
      std::vector<std::int64_t> pi);

  // Annotates `span` with the call's stats and feeds the mcf.* metrics.
  void close_span(obs::Span& span, bool feasible) const;
};

}  // namespace lac::graph
