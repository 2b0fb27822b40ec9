#include <gtest/gtest.h>

#include <map>
#include <string>

#include "bench89/suite.h"
#include "graph/diff_constraints.h"
#include "planner/interconnect_planner.h"
#include "retime/constraints.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "retime/wd_matrices.h"
#include "tests/test_util.h"

namespace lac::retime {
namespace {

TEST(Constraints, EdgeConstraintsOnePerEdge) {
  const auto g = test::correlator_graph();
  const auto wd = WdMatrices::compute(g);
  const auto cs = build_constraints(g, wd, to_decips(100.0));
  EXPECT_EQ(cs.edge.size(), static_cast<std::size_t>(g.num_edges()));
  EXPECT_TRUE(cs.clock.empty());  // period is huge
}

TEST(Constraints, ClockConstraintsAppearBelowTInit) {
  const auto g = test::correlator_graph();
  const auto wd = WdMatrices::compute(g);
  const auto cs = build_constraints(g, wd, to_decips(9.0));
  EXPECT_GT(cs.clock.size(), 0u);
  for (const auto& c : cs.clock) {
    EXPECT_GT(wd.d_ps(c.u, c.v), 9.0);
    EXPECT_EQ(c.c, wd.w(c.u, c.v) - 1);
  }
}

TEST(Constraints, IoPinningPairs) {
  RetimingGraph g;
  const auto t = tile::TileId::invalid();
  const int a = g.add_vertex(VertexKind::kFunctional, 1.0, t);
  const int b = g.add_vertex(VertexKind::kFunctional, 1.0, t);
  g.add_edge(a, b, 1);
  g.mark_io(a);
  g.mark_io(b);
  const auto wd = WdMatrices::compute(g);
  const auto cs = build_constraints(g, wd, to_decips(10.0));
  EXPECT_EQ(cs.io.size(), 4u);  // two inequalities per pinned vertex
}

TEST(Constraints, PruningPreservesFeasibilityExactly) {
  Rng rng(41);
  for (int trial = 0; trial < 20; ++trial) {
    auto g = test::random_retiming_graph(rng, 5 + static_cast<int>(rng.uniform(6)),
                                         static_cast<int>(rng.uniform(12)));
    const auto wd = WdMatrices::compute(g);
    const auto lo = wd.max_vertex_delay_decips();
    const auto hi = to_decips(wd.t_init_ps());
    for (std::int32_t T : {lo, (lo + hi) / 2, hi}) {
      const auto pruned = build_constraints(g, wd, T, {.prune = true});
      const auto full = build_constraints(g, wd, T, {.prune = false});
      EXPECT_LE(pruned.clock.size(), full.clock.size());
      graph::DiffConstraints dp(pruned.num_vars);
      pruned.for_each([&](const Constraint& c) { dp.add(c.u, c.v, c.c); });
      graph::DiffConstraints df(full.num_vars);
      full.for_each([&](const Constraint& c) { df.add(c.u, c.v, c.c); });
      EXPECT_EQ(dp.feasible(), df.feasible()) << "T=" << T;
      // Stronger: any solution of the pruned system satisfies the full one.
      const auto sol = dp.solve();
      if (sol) {
        for (const auto& c : full.clock)
          EXPECT_LE((*sol)[static_cast<std::size_t>(c.u)] -
                        (*sol)[static_cast<std::size_t>(c.v)],
                    c.c)
              << "pruning dropped a non-redundant constraint";
      }
    }
  }
}

TEST(Constraints, PruningShrinksLargeSystems) {
  Rng rng(4242);
  auto g = test::random_retiming_graph(rng, 40, 60);
  const auto wd = WdMatrices::compute(g);
  const auto mid = (wd.max_vertex_delay_decips() + to_decips(wd.t_init_ps())) / 2;
  const auto cs = build_constraints(g, wd, mid);
  EXPECT_LT(cs.clock.size(), cs.clock_before_pruning);
}

TEST(MinPeriod, CorrelatorOptimum) {
  const auto g = test::correlator_graph();
  const auto wd = WdMatrices::compute(g);
  std::vector<int> r;
  const double t = min_period_retiming(g, wd, &r);
  EXPECT_DOUBLE_EQ(t, 7.0);  // the big vertex alone
  EXPECT_TRUE(g.is_legal_retiming(r));
  EXPECT_LE(g.period_after_ps(r), 7.0 + 1e-9);
}

TEST(MinPeriod, NeverAboveTInitNorBelowMaxDelay) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    auto g = test::random_retiming_graph(rng, 4 + static_cast<int>(rng.uniform(6)),
                                         static_cast<int>(rng.uniform(10)));
    const auto wd = WdMatrices::compute(g);
    std::vector<int> r;
    const double t = min_period_retiming(g, wd, &r);
    EXPECT_LE(t, wd.t_init_ps() + 1e-9);
    EXPECT_GE(t, from_decips(wd.max_vertex_delay_decips()) - 1e-9);
    EXPECT_LE(g.period_after_ps(r), t + 1e-9);
  }
}

TEST(MinPeriod, MatchesBruteForceOnTinyGraphs) {
  Rng rng(21);
  for (int trial = 0; trial < 12; ++trial) {
    auto g = test::random_retiming_graph(rng, 4, 4, /*max_w=*/1);
    const auto wd = WdMatrices::compute(g);
    const double flow_t = min_period_retiming(g, wd);
    const double brute_t = test::brute_force_min_period(g, /*bound=*/3);
    EXPECT_NEAR(flow_t, brute_t, 0.11) << "trial " << trial;
  }
}

TEST(MinPeriod, FeasibilityMonotoneInT) {
  Rng rng(100);
  auto g = test::random_retiming_graph(rng, 8, 12);
  const auto wd = WdMatrices::compute(g);
  const double tmin = min_period_retiming(g, wd);
  EXPECT_FALSE(period_feasible(g, wd, to_decips(tmin) - 1));
  EXPECT_TRUE(period_feasible(g, wd, to_decips(tmin)));
  EXPECT_TRUE(period_feasible(g, wd, to_decips(tmin) + 37));
}

// Retiming graphs, W/D matrices and timing landmarks of planned Table-1
// circuits, planned once per test binary.
struct Planned {
  RetimingGraph g;
  WdMatrices wd;
  double t_min_ps = 0.0;
  double t_clk_ps = 0.0;
};

const Planned& planned(const std::string& circuit) {
  static std::map<std::string, Planned> cache;
  auto it = cache.find(circuit);
  if (it == cache.end()) {
    const auto& entry = bench89::entry_by_name(circuit);
    planner::PlannerConfig cfg;
    cfg.run.seed = 7;
    cfg.num_blocks = entry.recommended_blocks;
    auto res = planner::InterconnectPlanner(cfg)
                   .plan(bench89::load(entry), planner::PlanOptions{})
                   .front();
    auto wd = WdMatrices::compute(res.graph);
    it = cache
             .emplace(circuit, Planned{std::move(res.graph), std::move(wd),
                                       res.t_min_ps, res.t_clk_ps})
             .first;
  }
  return it->second;
}

// Every probe of the min-period binary search on a planner-derived system
// gets the same feasibility answer from the cycle-detecting solver as from
// a relax-count-only reference, and the search lands where the planner's
// did.
TEST(MinPeriod, ProbesAgreeWithRelaxCountReference) {
  for (const char* circuit : {"y298", "y386", "y400"}) {
    SCOPED_TRACE(circuit);
    const Planned& p = planned(circuit);
    std::int32_t lo = p.wd.max_vertex_delay_decips();
    std::int32_t hi = to_decips(p.wd.t_init_ps());
    int probes = 0;
    int infeasible = 0;
    auto probe = [&](std::int32_t period) {
      const auto cs = build_constraints(p.g, p.wd, period);
      const bool ref =
          test::relax_count_reference(cs.num_vars, test::constraint_tuples(cs))
              .has_value();
      EXPECT_EQ(period_feasible(p.g, p.wd, period), ref) << "T=" << period;
      ++probes;
      infeasible += ref ? 0 : 1;
      return ref;
    };
    EXPECT_TRUE(probe(hi));
    while (lo < hi) {
      const std::int32_t mid = lo + (hi - lo) / 2;
      if (probe(mid))
        hi = mid;
      else
        lo = mid + 1;
    }
    EXPECT_GT(infeasible, 0);
    EXPECT_EQ(min_period_retiming(p.g, p.wd), from_decips(hi));
    EXPECT_EQ(from_decips(hi), p.t_min_ps);

    obs::ScopedEnable on(true);
    obs::Metrics::instance().reset();
    (void)min_period_retiming(p.g, p.wd);
    EXPECT_EQ(obs::Metrics::instance().counter("timing.period_probes"),
              probes);
    EXPECT_GT(obs::Metrics::instance().counter("timing.spfa_relaxations"), 0);
  }
}

// The row scan's output is the same set, in the same order, at any thread
// count: at T_min, at T_clk and at an infeasible period, pruned or not.
TEST(Constraints, ParallelScanIsIdenticalAcrossThreadCounts) {
  const base::ExecPolicy one = base::ExecPolicy::sequential();
  const base::ExecPolicy four{.threads = 4};
  for (const char* circuit : {"y298", "y386", "y400", "y526"}) {
    SCOPED_TRACE(circuit);
    const Planned& p = planned(circuit);
    const std::int32_t t_min = to_decips(p.t_min_ps);
    std::vector<std::int32_t> periods{t_min, to_decips(p.t_clk_ps)};
    if (t_min - 1 >= p.wd.max_vertex_delay_decips()) {
      periods.push_back(t_min - 1);
      EXPECT_FALSE(period_feasible(p.g, p.wd, t_min - 1));
    }
    for (const std::int32_t period : periods) {
      for (const bool prune : {true, false}) {
        const auto seq = build_constraints(p.g, p.wd, period, {prune}, one);
        const auto par = build_constraints(p.g, p.wd, period, {prune}, four);
        EXPECT_EQ(seq, par) << "T=" << period << " prune=" << prune;
        EXPECT_EQ(seq, build_constraints(p.g, p.wd, period, {prune}))
            << "T=" << period << " prune=" << prune;
        EXPECT_GT(seq.clock_before_pruning, 0u);
      }
    }
    std::vector<int> r_one;
    std::vector<int> r_four;
    const double t_one = min_period_retiming(p.g, p.wd, &r_one, one);
    const double t_four = min_period_retiming(p.g, p.wd, &r_four, four);
    EXPECT_EQ(t_one, p.t_min_ps);
    EXPECT_EQ(t_one, t_four);
    EXPECT_EQ(r_one, r_four);
  }
}

}  // namespace
}  // namespace lac::retime
