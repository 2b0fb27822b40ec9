// Differential test harness for graph::MinCostFlow (the primal-dual kernel:
// each Dijkstra phase ships a blocking flow over the zero-reduced-cost
// arcs): a small, obviously-correct Bellman–Ford successive-shortest-path
// reference implementation is fuzzed against the production solver on
// hundreds of randomized instances — varying sizes, negative costs,
// infinite-capacity arcs and unroutable supplies — and must agree on
//   * feasibility (nullopt vs solution),
//   * the exact optimum objective `total_cost_exact` (unique even though
//     optimal flows are not), and
//   * `residual_distances_from` — the canonical distance vector the
//     retiming layer derives its labels from.  Every optimal flow of an
//     instance yields the same vector, so the production solver and the
//     reference must match element for element even when their flows
//     differ.
// The agreement is checked for an instance's first solve() (from zero
// flow), a repeated solve(), and solve() after random sequences of supply
// edits and add_arc() calls (the reference always re-solves from scratch;
// the production solver warm-starts after a supply edit and ships from
// zero after add_arc()).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "base/rng.h"
#include "graph/min_cost_flow.h"

namespace lac::graph {
namespace {

// ------------------------------------------------------------- reference
//
// Textbook successive shortest paths: repeatedly pick the lowest-index
// node with positive excess, find a shortest path (plain Bellman–Ford over
// the residual network, negative costs allowed) to the nearest demand
// node, and augment by the bottleneck.  No potentials, no Dijkstra, no
// warm state — slow and simple on purpose.
class ReferenceMcf {
 public:
  struct Arc {
    int u = 0, v = 0;
    std::int64_t cap = 0, cost = 0;
  };

  ReferenceMcf(int n, std::vector<Arc> arcs, std::vector<std::int64_t> supply)
      : n_(n), arcs_(std::move(arcs)), supply_(std::move(supply)) {
    for (const Arc& a : arcs_) {
      res_to_.push_back(a.v);
      res_cap_.push_back(a.cap);
      res_cost_.push_back(a.cost);
      res_to_.push_back(a.u);
      res_cap_.push_back(0);
      res_cost_.push_back(-a.cost);
    }
  }

  // Exact optimum objective, or nullopt when the instance is infeasible or
  // has a negative residual cycle at the zero flow (the production solver
  // treats both as "no solution").
  std::optional<std::int64_t> solve() {
    if (has_negative_cycle()) return std::nullopt;
    std::vector<std::int64_t> excess = supply_;
    while (true) {
      int source = -1;
      for (int v = 0; v < n_; ++v)
        if (excess[static_cast<std::size_t>(v)] > 0) {
          source = v;
          break;
        }
      if (source == -1) break;

      std::vector<std::int64_t> dist;
      std::vector<int> parent;
      bellman_ford({source}, dist, parent);
      int sink = -1;
      for (int v = 0; v < n_; ++v) {
        if (excess[static_cast<std::size_t>(v)] >= 0) continue;
        if (dist[static_cast<std::size_t>(v)] >= MinCostFlow::kUnreachable)
          continue;
        if (sink == -1 ||
            dist[static_cast<std::size_t>(v)] <
                dist[static_cast<std::size_t>(sink)])
          sink = v;
      }
      if (sink == -1) return std::nullopt;  // infeasible

      std::int64_t push = std::min(excess[static_cast<std::size_t>(source)],
                                   -excess[static_cast<std::size_t>(sink)]);
      for (int v = sink; v != source;) {
        const int a = parent[static_cast<std::size_t>(v)];
        push = std::min(push, res_cap_[static_cast<std::size_t>(a)]);
        v = res_to_[static_cast<std::size_t>(a ^ 1)];
      }
      for (int v = sink; v != source;) {
        const int a = parent[static_cast<std::size_t>(v)];
        res_cap_[static_cast<std::size_t>(a)] -= push;
        res_cap_[static_cast<std::size_t>(a ^ 1)] += push;
        v = res_to_[static_cast<std::size_t>(a ^ 1)];
      }
      excess[static_cast<std::size_t>(source)] -= push;
      excess[static_cast<std::size_t>(sink)] += push;
    }

    std::int64_t total = 0;
    for (std::size_t i = 0; i < arcs_.size(); ++i)
      total += arcs_[i].cost * res_cap_[2 * i + 1];  // flow = backward cap
    return total;
  }

  // Shortest distances from `root` over the final residual network in
  // original costs — the reference for canonicality.  Only valid after a
  // successful solve().
  std::vector<std::int64_t> residual_distances_from(int root) {
    std::vector<std::int64_t> dist;
    std::vector<int> parent;
    bellman_ford({root}, dist, parent);
    for (std::int64_t& d : dist)
      if (d >= MinCostFlow::kUnreachable) d = MinCostFlow::kUnreachable;
    return dist;
  }

 private:
  // Bellman–Ford over residual arcs with capacity, |V|-1 rounds (the SSP
  // invariant keeps the residual network free of negative cycles after a
  // clean start, so this always converges to true distances).
  void bellman_ford(std::initializer_list<int> roots,
                    std::vector<std::int64_t>& dist,
                    std::vector<int>& parent) const {
    dist.assign(static_cast<std::size_t>(n_), MinCostFlow::kUnreachable);
    parent.assign(static_cast<std::size_t>(n_), -1);
    for (const int r : roots) dist[static_cast<std::size_t>(r)] = 0;
    for (int round = 0; round + 1 < n_; ++round) {
      bool changed = false;
      for (std::size_t a = 0; a < res_to_.size(); ++a) {
        if (res_cap_[a] <= 0) continue;
        const int u = res_to_[a ^ 1];
        const int v = res_to_[a];
        if (dist[static_cast<std::size_t>(u)] >= MinCostFlow::kUnreachable)
          continue;
        const std::int64_t nd = dist[static_cast<std::size_t>(u)] +
                                res_cost_[a];
        if (nd < dist[static_cast<std::size_t>(v)]) {
          dist[static_cast<std::size_t>(v)] = nd;
          parent[static_cast<std::size_t>(v)] = static_cast<int>(a);
          changed = true;
        }
      }
      if (!changed) break;
    }
  }

  bool has_negative_cycle() const {
    // One more Bellman–Ford round from everywhere: any further relaxation
    // after |V| rounds certifies a negative cycle over cap>0 arcs.
    std::vector<std::int64_t> dist(static_cast<std::size_t>(n_), 0);
    for (int round = 0; round < n_; ++round) {
      bool changed = false;
      for (std::size_t a = 0; a < res_to_.size(); ++a) {
        if (res_cap_[a] <= 0) continue;
        const int u = res_to_[a ^ 1];
        const int v = res_to_[a];
        if (dist[static_cast<std::size_t>(u)] + res_cost_[a] <
            dist[static_cast<std::size_t>(v)]) {
          dist[static_cast<std::size_t>(v)] =
              dist[static_cast<std::size_t>(u)] + res_cost_[a];
          changed = true;
        }
      }
      if (!changed) return false;
    }
    return true;
  }

  int n_;
  std::vector<Arc> arcs_;
  std::vector<std::int64_t> supply_;
  // Paired residual arcs, mirroring the production layout.
  std::vector<int> res_to_;
  std::vector<std::int64_t> res_cap_;
  std::vector<std::int64_t> res_cost_;
};

// ------------------------------------------------------------ fuzz input

struct FuzzInstance {
  int n = 0;
  std::vector<ReferenceMcf::Arc> arcs;
  std::vector<std::int64_t> supply;

  // `connected` adds high-cost host arcs through node 0 so the instance
  // is always routable; without them disconnected (infeasible) instances
  // are common.  `min_cost` < 0 admits negative arc costs.
  static FuzzInstance make(Rng& rng, bool connected, std::int64_t min_cost) {
    FuzzInstance ins;
    ins.n = 2 + static_cast<int>(rng.uniform(18));
    const int m = static_cast<int>(rng.uniform(static_cast<std::uint64_t>(
        2 * ins.n + 1)));
    for (int k = 0; k < m; ++k) {
      const int u =
          static_cast<int>(rng.uniform(static_cast<std::uint64_t>(ins.n)));
      const int v =
          static_cast<int>(rng.uniform(static_cast<std::uint64_t>(ins.n)));
      if (u == v) continue;
      const bool inf_cap = rng.uniform(5) == 0;
      ins.arcs.push_back(
          {u, v,
           inf_cap ? MinCostFlow::kInfCap
                   : 1 + static_cast<std::int64_t>(rng.uniform(9)),
           rng.uniform_int(min_cost, 9)});
    }
    if (connected) {
      for (int v = 1; v < ins.n; ++v) {
        ins.arcs.push_back({v, 0, MinCostFlow::kInfCap, 60});
        ins.arcs.push_back({0, v, MinCostFlow::kInfCap, 60});
      }
    }
    ins.supply.assign(static_cast<std::size_t>(ins.n), 0);
    ins.randomize_supplies(rng);
    return ins;
  }

  void randomize_supplies(Rng& rng) {
    std::int64_t total = 0;
    for (int v = 1; v < n; ++v) {
      supply[static_cast<std::size_t>(v)] = rng.uniform_int(-6, 6);
      total += supply[static_cast<std::size_t>(v)];
    }
    supply[0] = -total;
  }

  [[nodiscard]] MinCostFlow build() const {
    MinCostFlow mcf(n);
    for (const auto& a : arcs) mcf.add_arc(a.u, a.v, a.cap, a.cost);
    for (int v = 0; v < n; ++v)
      mcf.set_supply(v, supply[static_cast<std::size_t>(v)]);
    return mcf;
  }

  [[nodiscard]] ReferenceMcf reference() const {
    return ReferenceMcf(n, arcs, supply);
  }
};

// Solve `ins` with the reference and compare against a production
// solution (or infeasibility) plus its canonical residual distances.
void expect_matches_reference(const FuzzInstance& ins, MinCostFlow& mcf,
                              const std::optional<MinCostFlow::Solution>& sol,
                              const char* what) {
  ReferenceMcf ref = ins.reference();
  const auto ref_cost = ref.solve();
  ASSERT_EQ(sol.has_value(), ref_cost.has_value()) << what;
  if (!sol) return;
  EXPECT_EQ(sol->total_cost_exact, *ref_cost) << what;
  // Canonicality: the distance vector over the optimal residual network is
  // a property of the instance, not of the particular optimum, so the
  // production solver (whatever flow it found) must reproduce the
  // reference's vector exactly — unreachable set included.
  const auto d = mcf.residual_distances_from(0);
  const auto ref_d = ref.residual_distances_from(0);
  ASSERT_EQ(d.size(), ref_d.size());
  for (std::size_t v = 0; v < d.size(); ++v)
    EXPECT_EQ(d[v], ref_d[v]) << what << ": residual distance to node " << v;
}

// ------------------------------------------------------------------ tests

// First solve() and a repeated solve() on the same instance, including
// unroutable and negative-cycle instances (both sides must return
// nullopt), negative costs and kInfCap arcs.
TEST(McfReference, ColdSolveMatchesOnRandomInstances) {
  Rng rng(20260806);
  int feasible = 0, infeasible = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const bool connected = trial % 2 == 0;
    const FuzzInstance ins = FuzzInstance::make(rng, connected, -4);
    MinCostFlow mcf = ins.build();
    const auto sol = mcf.solve();
    expect_matches_reference(ins, mcf, sol, "cold solve");
    sol ? ++feasible : ++infeasible;

    // A second solve() with nothing changed (warm after a feasible solve,
    // from zero flow again after an infeasible one) agrees with the first,
    // and therefore with the reference, bit for bit — as does the first
    // solve of a fresh instance with the same arcs and supplies.
    const auto again = mcf.solve();
    ASSERT_EQ(again.has_value(), sol.has_value());
    MinCostFlow fresh = ins.build();
    const auto fresh_sol = fresh.solve();
    ASSERT_EQ(fresh_sol.has_value(), sol.has_value());
    if (sol) {
      EXPECT_EQ(again->total_cost_exact, sol->total_cost_exact);
      EXPECT_EQ(again->flow, sol->flow);
      EXPECT_EQ(fresh_sol->total_cost_exact, sol->total_cost_exact);
      EXPECT_EQ(fresh_sol->flow, sol->flow);
    }
  }
  // The fuzz is vacuous if either side never occurs.
  EXPECT_GT(feasible, 20);
  EXPECT_GT(infeasible, 10);
}

// Warm solve() after random supply edit sequences: the production
// solver re-ships only the imbalance in multi-source phases; the
// reference re-solves the edited instance from scratch.
TEST(McfReference, ResolveAfterSupplyEditsMatches) {
  Rng rng(777);
  int instances = 0;
  while (instances < 40) {
    FuzzInstance ins = FuzzInstance::make(rng, /*connected=*/true, -4);
    MinCostFlow mcf = ins.build();
    if (!mcf.solve()) continue;  // negative cycle at zero flow: skip
    ++instances;
    for (int round = 0; round < 4; ++round) {
      ins.randomize_supplies(rng);
      for (int v = 0; v < ins.n; ++v)
        mcf.set_supply(v, ins.supply[static_cast<std::size_t>(v)]);
      const auto sol = mcf.solve();
      EXPECT_TRUE(mcf.stats().warm);
      expect_matches_reference(ins, mcf, sol, "supply-edit warm solve");
      if (!sol) break;
    }
  }
}

// solve() after mixed sequences of supply edits, add_arc() calls and
// back-to-back no-op solves.  A supply edit or a no-op re-solves warm; a
// new arc drops the retained optimum, so the next solve() ships from zero.
TEST(McfReference, ResolveAfterMixedEditSequencesMatches) {
  Rng rng(31337);
  int instances = 0, added_arcs = 0, back_to_back_noops = 0;
  while (instances < 40) {
    FuzzInstance ins = FuzzInstance::make(rng, /*connected=*/true, 0);
    MinCostFlow mcf = ins.build();
    if (!mcf.solve()) continue;
    ++instances;
    bool last_noop = false;
    for (int round = 0; round < 5; ++round) {
      const auto kind = rng.uniform(3);
      if (kind == 0) {  // supply edit
        ins.randomize_supplies(rng);
        for (int v = 0; v < ins.n; ++v)
          mcf.set_supply(v, ins.supply[static_cast<std::size_t>(v)]);
      } else if (kind == 1) {  // a new finite arc
        const int u =
            static_cast<int>(rng.uniform(static_cast<std::uint64_t>(ins.n)));
        const int v = (u + 1) % ins.n;
        ins.arcs.push_back({u, v, 1 + static_cast<std::int64_t>(rng.uniform(9)),
                            rng.uniform_int(0, 9)});
        const auto& a = ins.arcs.back();
        mcf.add_arc(a.u, a.v, a.cap, a.cost);
        ++added_arcs;
      } else if (last_noop) {  // no-op round: solve again, nothing changed
        ++back_to_back_noops;
      }
      const auto sol = mcf.solve();
      EXPECT_EQ(mcf.stats().warm, kind != 1);
      if (kind == 2) {
        EXPECT_EQ(mcf.stats().augmentations, 0)
            << "a no-op solve must ship nothing";
      }
      last_noop = kind == 2;
      expect_matches_reference(ins, mcf, sol, "mixed-edit solve");
      if (!sol) break;
    }
  }
  // Every kind of round, and no-op rounds back to back, must have run.
  EXPECT_GT(added_arcs, 10);
  EXPECT_GT(back_to_back_noops, 0);
}

}  // namespace
}  // namespace lac::graph
