// Property tests for the warm-started weighted min-area solver session
// (retime/weighted_min_area_solver.h): on random retiming graphs with
// randomized per-round weight sequences, every round of a session must
// reproduce — bit for bit — what a fresh cold solve of the same weighted
// instance returns.  This is the equivalence contract that lets the LAC
// loop run every round on one warm session.
//
// Every round's labels must also be an optimal dual: Σ_v supply_v · r_v
// equals the exact flow cost, cold and warm.
//
// The second half stresses the MinCostFlow warm-start contract directly
// with mixed-edit adversarial sessions — supply edits, add_arc() and
// back-to-back no-op solves in one session — and checks that add_arc()
// after an optimum makes the next solve() ship from zero, after which a
// supply edit runs warm again.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "base/rng.h"
#include "graph/min_cost_flow.h"
#include "obs/analyze.h"
#include "obs/obs.h"
#include "obs/report.h"
#include "obs/span.h"
#include "retime/constraints.h"
#include "retime/min_area.h"
#include "retime/wd_matrices.h"
#include "retime/weighted_min_area_solver.h"
#include "tests/test_util.h"

namespace lac::retime {
namespace {

std::vector<double> random_weights(Rng& rng, int n) {
  std::vector<double> w(static_cast<std::size_t>(n));
  for (double& x : w)
    x = 0.05 + 0.1 * static_cast<double>(rng.uniform(2000));  // [0.05, 200)
  return w;
}

TEST(IncrementalSolver, SessionMatchesColdSolveEveryRound) {
  Rng rng(4242);
  int warm_rounds_seen = 0;
  for (int trial = 0; trial < 12; ++trial) {
    const int n = 8 + static_cast<int>(rng.uniform(20));
    const auto g = test::random_retiming_graph(rng, n, 2 * n, 2);
    const auto wd = WdMatrices::compute(g);
    // A mid-range feasible period keeps the constraint system non-trivial.
    const auto t =
        (wd.max_vertex_delay_decips() + to_decips(wd.t_init_ps())) / 2;
    const auto cs = build_constraints(g, wd, t);

    WeightedMinAreaSolver session(g, cs);
    for (int round = 0; round < 6; ++round) {
      const auto weights = random_weights(rng, g.num_vertices());

      MinAreaStats warm_stats;
      const auto warm = session.solve(weights, &warm_stats);
      MinAreaStats cold_stats;
      WeightedMinAreaSolver fresh(g, cs);
      const auto cold = fresh.solve(weights, &cold_stats);

      ASSERT_EQ(warm.has_value(), cold.has_value());
      if (!warm) continue;
      EXPECT_EQ(*warm, *cold) << "trial " << trial << " round " << round;
      EXPECT_EQ(warm_stats.flow_cost_exact, cold_stats.flow_cost_exact)
          << "trial " << trial << " round " << round;
      EXPECT_DOUBLE_EQ(warm_stats.objective, cold_stats.objective);
      EXPECT_FALSE(cold_stats.warm);
      if (round > 0) {
        EXPECT_TRUE(warm_stats.warm);
        ++warm_rounds_seen;
      }
    }
  }
  // The property above is vacuous if the warm path never engaged.
  EXPECT_GT(warm_rounds_seen, 0);
}

// Σ_v supply_v · r_v for the transshipment instance a weighted solve
// builds: weights quantised onto the solver's 2^14 grid, and
// supply(v) = fo(v) − fi(v) (see retime/min_area.h).  Rebuilt here from
// the graph and the weights, independently of the solver.
__int128 dual_objective(const RetimingGraph& g,
                        const std::vector<double>& weights,
                        const std::vector<int>& r) {
  double max_w = 0.0;
  for (int v = 0; v < g.num_vertices(); ++v)
    if (v != g.host())
      max_w = std::max(max_w, weights[static_cast<std::size_t>(v)]);
  __int128 total = 0;
  for (const auto& e : g.edges()) {
    const std::int64_t a =
        e.tail == g.host()
            ? 0
            : std::max<std::int64_t>(
                  1, std::llround(weights[static_cast<std::size_t>(e.tail)] /
                                  max_w * (1 << 14)));
    total += static_cast<__int128>(a) *
             (r[static_cast<std::size_t>(e.tail)] -
              r[static_cast<std::size_t>(e.head)]);
  }
  return total;
}

// Strong duality on every round: the returned labels price the supplies
// at exactly the optimal flow cost, for cold solves and for every warm
// round of a session.
TEST(IncrementalSolver, LabelsCloseTheDualityGapColdAndWarm) {
  Rng rng(8086);
  int cold_checked = 0;
  int warm_checked = 0;
  for (int trial = 0; trial < 10; ++trial) {
    const int n = 8 + static_cast<int>(rng.uniform(24));
    const auto g = test::random_retiming_graph(rng, n, 2 * n, 3);
    const auto wd = WdMatrices::compute(g);
    const auto t =
        (wd.max_vertex_delay_decips() + to_decips(wd.t_init_ps())) / 2;
    const auto cs = build_constraints(g, wd, t);

    WeightedMinAreaSolver session(g, cs);
    for (int round = 0; round < 5; ++round) {
      const auto weights = random_weights(rng, g.num_vertices());
      MinAreaStats warm_stats;
      const auto warm = session.solve(weights, &warm_stats);
      MinAreaStats cold_stats;
      WeightedMinAreaSolver fresh(g, cs);
      const auto cold = fresh.solve(weights, &cold_stats);
      ASSERT_EQ(warm.has_value(), cold.has_value());
      if (!warm) continue;
      EXPECT_TRUE(dual_objective(g, weights, *cold) ==
                  cold_stats.flow_cost_exact)
          << "trial " << trial << " round " << round;
      ++cold_checked;
      EXPECT_TRUE(dual_objective(g, weights, *warm) ==
                  warm_stats.flow_cost_exact)
          << "trial " << trial << " round " << round;
      if (warm_stats.warm) ++warm_checked;
    }
  }
  EXPECT_GT(cold_checked, 20);
  EXPECT_GT(warm_checked, 10);
}

// Repeating the exact same weights must be a no-op round: the warm solve
// re-ships nothing and returns the identical retiming.
TEST(IncrementalSolver, RepeatedWeightsAreStable) {
  Rng rng(99);
  const auto g = test::random_retiming_graph(rng, 16, 32, 2);
  const auto wd = WdMatrices::compute(g);
  const auto t =
      (wd.max_vertex_delay_decips() + to_decips(wd.t_init_ps())) / 2;
  const auto cs = build_constraints(g, wd, t);

  WeightedMinAreaSolver session(g, cs);
  const auto weights = random_weights(rng, g.num_vertices());
  const auto first = session.solve(weights);
  ASSERT_TRUE(first.has_value());
  for (int round = 0; round < 3; ++round) {
    MinAreaStats stats;
    const auto again = session.solve(weights, &stats);
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(*again, *first);
    EXPECT_TRUE(stats.warm);
    EXPECT_EQ(stats.augmentations, 0) << "identical supplies re-shipped";
  }
}

// Tiny graphs against the brute-force reference, solved through a session
// with several weight vectors: the optimum objective must match brute
// force every round (not just equal the cold solver's answer).
TEST(IncrementalSolver, SessionMatchesBruteForceOnTinyGraphs) {
  Rng rng(7);
  for (int trial = 0; trial < 6; ++trial) {
    const auto g = test::random_retiming_graph(rng, 5, 6, 2);
    const auto wd = WdMatrices::compute(g);
    const auto t =
        (wd.max_vertex_delay_decips() + to_decips(wd.t_init_ps())) / 2;
    const auto cs = build_constraints(g, wd, t);

    WeightedMinAreaSolver session(g, cs);
    for (int round = 0; round < 3; ++round) {
      std::vector<double> weights(
          static_cast<std::size_t>(g.num_vertices()));
      for (double& x : weights)
        x = 1.0 + static_cast<double>(rng.uniform(5));
      const auto r = session.solve(weights);
      const auto ref = test::brute_force_min_area(
          g, from_decips(t), weights, /*bound=*/3);
      ASSERT_EQ(r.has_value(), ref.has_value());
      if (!r) continue;
      EXPECT_NEAR(weighted_ff_area(g, *r, weights), *ref, 1e-9)
          << "trial " << trial << " round " << round;
    }
  }
}

// ------------------------------------------ MinCostFlow warm-start contract

// add_arc() after an optimum drops the retained optimum: the next solve()
// ships from zero flow (one mcf.solve span, warm false, no nested span)
// and reaches the optimum the new arc allows.  That optimum is retained,
// so a further supply edit re-solves warm and ships only the delta.
TEST(IncrementalMcf, ColdFallbackThenFurtherWarmRound) {
  using graph::MinCostFlow;
  MinCostFlow mcf(2);
  const int finite = mcf.add_arc(0, 1, 3, 0);  // carries the flow
  mcf.set_supply(0, 3);
  mcf.set_supply(1, -3);
  const auto first = mcf.solve();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->flow[static_cast<std::size_t>(finite)], 3);
  EXPECT_EQ(first->total_cost_exact, 0);

  // A cheaper parallel arc the retained optimum does not cover.
  const int cheap = mcf.add_arc(0, 1, MinCostFlow::kInfCap, -2);
  obs::ScopedEnable on(true);
  obs::reset();
  const auto cold = mcf.solve();
  ASSERT_TRUE(cold.has_value());
  EXPECT_FALSE(mcf.stats().warm);
  const auto roots = obs::trace_from_report(obs::build_report("mcf"));
  ASSERT_EQ(roots.size(), 1u);
  const obs::SpanNode& span = roots.front();
  EXPECT_EQ(span.name, "mcf.solve");
  EXPECT_TRUE(span.children.empty());
  for (const char* key : {"warm", "feasible", "phases", "augmentations",
                          "flow_shipped"})
    EXPECT_NE(span.find_annotation(key), nullptr) << key;
  if (const auto* warm = span.find_annotation("warm")) {
    EXPECT_FALSE(warm->b);
  }
  if (const auto* feasible = span.find_annotation("feasible")) {
    EXPECT_TRUE(feasible->b);
  }
  if (const auto* phases = span.find_annotation("phases")) {
    EXPECT_EQ(phases->i, mcf.stats().phases);
  }
  EXPECT_EQ(cold->total_cost_exact, -6);
  EXPECT_EQ(cold->flow[static_cast<std::size_t>(cheap)], 3);

  // The cold solve left an optimum behind: a supply edit re-solves warm,
  // shipping only the two-unit delta back through the residual network.
  mcf.set_supply(0, 1);
  mcf.set_supply(1, -1);
  const auto warm = mcf.solve();
  ASSERT_TRUE(warm.has_value());
  EXPECT_TRUE(mcf.stats().warm);
  EXPECT_EQ(mcf.stats().spfa_relaxations, 0);
  EXPECT_GT(mcf.stats().augmentations, 0);
  EXPECT_EQ(warm->total_cost_exact, -2);
  EXPECT_EQ(warm->flow[static_cast<std::size_t>(cheap)], 1);
}

// Mixed-edit adversarial sessions: random interleavings of supply edits,
// add_arc() calls and back-to-back no-op solves in one session, each
// round checked against a cold solve of an identically edited fresh
// instance.
TEST(IncrementalMcf, MixedEditAdversarialSessionsMatchColdSolve) {
  using graph::MinCostFlow;
  Rng rng(271828);
  struct Arc {
    int u, v;
    std::int64_t cap, cost;
  };
  int noop_rounds = 0, back_to_back_noops = 0, added_arcs = 0;
  for (int trial = 0; trial < 25; ++trial) {
    const int n = 3 + static_cast<int>(rng.uniform(6));
    std::vector<Arc> arcs;
    const auto random_arc = [&] {
      const int u = static_cast<int>(rng.uniform(static_cast<std::uint64_t>(n)));
      const int v = (u + 1 + static_cast<int>(rng.uniform(
                                 static_cast<std::uint64_t>(n - 1)))) % n;
      return Arc{u, v, 1 + static_cast<std::int64_t>(rng.uniform(9)),
                 rng.uniform_int(0, 9)};
    };
    for (int k = 0; k < 3 * n; ++k) arcs.push_back(random_arc());
    for (int v = 1; v < n; ++v) {
      arcs.push_back({v, 0, MinCostFlow::kInfCap, 50});
      arcs.push_back({0, v, MinCostFlow::kInfCap, 50});
    }
    std::vector<std::int64_t> supply(static_cast<std::size_t>(n), 0);
    const auto randomize_supplies = [&] {
      std::int64_t total = 0;
      for (int v = 1; v < n; ++v) {
        supply[static_cast<std::size_t>(v)] = rng.uniform_int(-5, 5);
        total += supply[static_cast<std::size_t>(v)];
      }
      supply[0] = -total;
    };
    const auto build = [&] {
      MinCostFlow m(n);
      for (const Arc& a : arcs) m.add_arc(a.u, a.v, a.cap, a.cost);
      for (int v = 0; v < n; ++v)
        m.set_supply(v, supply[static_cast<std::size_t>(v)]);
      return m;
    };
    randomize_supplies();
    MinCostFlow warm = build();
    ASSERT_TRUE(warm.solve().has_value());

    bool last_noop = false;
    for (int round = 0; round < 6; ++round) {
      const auto kind = rng.uniform(4);
      if (kind == 0) {  // supply edit
        randomize_supplies();
        for (int v = 0; v < n; ++v)
          warm.set_supply(v, supply[static_cast<std::size_t>(v)]);
      } else if (kind == 1) {  // a new arc: the next solve ships from zero
        arcs.push_back(random_arc());
        warm.add_arc(arcs.back().u, arcs.back().v, arcs.back().cap,
                     arcs.back().cost);
        ++added_arcs;
      } else {  // no-op round (possibly repeated back to back)
        ++noop_rounds;
        if (last_noop) ++back_to_back_noops;
      }
      last_noop = kind >= 2;
      const auto ws = warm.solve();
      ASSERT_TRUE(ws.has_value());
      EXPECT_EQ(warm.stats().warm, kind != 1);
      if (kind >= 2) {
        EXPECT_EQ(warm.stats().augmentations, 0)
            << "a no-op solve must ship nothing";
        EXPECT_EQ(warm.stats().phases, 0);
      }

      MinCostFlow cold = build();
      const auto cs = cold.solve();
      ASSERT_TRUE(cs.has_value());
      EXPECT_EQ(ws->total_cost_exact, cs->total_cost_exact)
          << "trial " << trial << " round " << round;
    }
  }
  EXPECT_GT(noop_rounds, 10);
  EXPECT_GT(back_to_back_noops, 0);
  EXPECT_GT(added_arcs, 10);
}

}  // namespace
}  // namespace lac::retime
