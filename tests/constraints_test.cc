#include <gtest/gtest.h>

#include <map>
#include <string>

#include "bench89/suite.h"
#include "graph/diff_constraints.h"
#include "planner/interconnect_planner.h"
#include "retime/constraints.h"
#include "obs/report.h"
#include "obs/obs.h"
#include "retime/wd_matrices.h"
#include "tests/min_period_reference.h"
#include "tests/test_util.h"
#include "tests/wd_reference.h"

namespace lac::retime {
namespace {

// Feasibility of a clock period: probe_period's verdict, and false below
// the largest unit delay.
bool period_feasible(const RetimingGraph& g, const WdMatrices& wd,
                     std::int32_t period_decips) {
  return period_decips >= wd.max_vertex_delay_decips() &&
         probe_period(g, wd, period_decips).feasible;
}

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
  const auto ref = test::dense_wd_reference(g);
  const auto cs = build_constraints(g, wd, to_decips(9.0));
  EXPECT_GT(cs.clock.size(), 0u);
  for (const auto& c : cs.clock) {
    EXPECT_GT(ref.d_at(c.u, c.v), to_decips(9.0));
    EXPECT_EQ(c.c, ref.w_at(c.u, c.v) - 1);
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
      const auto solve = [](const ConstraintSet& cs) {
        return graph::solve_difference_constraints(
            cs.num_vars, [&](const auto& f) {
              cs.for_each([&](const Constraint& c) { f(c.u, c.v, c.c); });
            });
      };
      const auto sol = solve(pruned);
      EXPECT_EQ(sol.has_value(), solve(full).has_value()) << "T=" << T;
      // Stronger: any solution of the pruned system satisfies the full one.
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

// Timing counters of one min_period_retiming call.
struct SearchCounters {
  double probes = 0;
  double relaxations = 0;
};

SearchCounters count_search(const RetimingGraph& g, const WdMatrices& wd) {
  obs::ScopedEnable on(true);
  obs::reset();
  (void)min_period_retiming(g, wd);
  const obs::json::Value report = obs::build_report("constraints_test");
  return {report.at_path({"metrics", "counters", "timing.period_probes"})->num,
          report.at_path({"metrics", "counters", "timing.spfa_relaxations"})
              ->num};
}

// Every midpoint of a plain bisection on a planner-derived system gets the
// same feasibility answer from the cycle-detecting solver as from a
// relax-count-only reference; the certificate search lands where the
// bisection and the planner did, and counts the probes of its replay.
TEST(MinPeriod, ProbesAgreeWithRelaxCountReference) {
  for (const char* circuit : {"y298", "y386", "y400"}) {
    SCOPED_TRACE(circuit);
    const Planned& p = planned(circuit);
    std::vector<test::BisectionProbe> midpoints;
    const std::int32_t t_min =
        test::bisection_min_period_decips(p.g, p.wd, &midpoints);
    int infeasible = 0;
    for (const test::BisectionProbe& m : midpoints) {
      EXPECT_EQ(period_feasible(p.g, p.wd, m.period_decips), m.feasible)
          << "T=" << m.period_decips;
      infeasible += m.feasible ? 0 : 1;
    }
    EXPECT_GT(infeasible, 0);
    MinPeriodProof proof;
    EXPECT_EQ(min_period_retiming(p.g, p.wd, nullptr,
                                  base::ExecPolicy::sequential(), &proof),
              from_decips(t_min));
    EXPECT_EQ(from_decips(t_min), p.t_min_ps);

    const auto replay =
        test::replay_certificate_search(p.g, p.wd, proof.io_bound_decips);
    EXPECT_LT(replay.size(), midpoints.size());
    const SearchCounters counted = count_search(p.g, p.wd);
    EXPECT_EQ(counted.probes, static_cast<double>(replay.size()));
    EXPECT_EQ(counted.relaxations > 0, !replay.empty());
  }
}

// Marks `count` distinct random non-host vertices of g as I/O.
void mark_random_io(Rng& rng, RetimingGraph& g, int count) {
  std::vector<int> candidates;
  for (int v = 1; v < g.num_vertices(); ++v) candidates.push_back(v);
  for (int k = 0; k < count && !candidates.empty(); ++k) {
    const auto i = static_cast<std::size_t>(
        rng.uniform(static_cast<std::uint64_t>(candidates.size())));
    g.mark_io(candidates[i]);
    candidates.erase(candidates.begin() + static_cast<std::ptrdiff_t>(i));
  }
}

// A random graph of 3-32 vertices with register weights up to 1-3; every
// other one has 1-4 I/O vertices.
RetimingGraph random_search_graph(Rng& rng, int trial) {
  const int n = 3 + static_cast<int>(rng.uniform(30));
  const int extra = static_cast<int>(
      rng.uniform(static_cast<std::uint64_t>(2 * n)));
  const int max_w = 1 + static_cast<int>(rng.uniform(3));
  RetimingGraph g = test::random_retiming_graph(rng, n, extra, max_w);
  if (trial % 2 == 1)
    mark_random_io(rng, g, 1 + static_cast<int>(rng.uniform(4)));
  return g;
}

// The certificate search lands on the bisection's T_min on random graphs,
// with and without I/O vertices, and on planned circuits, and each of its
// three lower-bound certificates decides some of the random ones.
TEST(MinPeriod, MatchesBisectionReference) {
  Rng rng(2803);
  std::map<std::string, int> proofs;
  for (int trial = 0; trial < 240; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const RetimingGraph g = random_search_graph(rng, trial);
    const auto wd = WdMatrices::compute(g);
    std::vector<int> r;
    MinPeriodProof proof;
    const double t = min_period_retiming(
        g, wd, &r, base::ExecPolicy::sequential(), &proof);
    EXPECT_EQ(to_decips(t), test::bisection_min_period_decips(g, wd));
    EXPECT_TRUE(g.is_legal_retiming(r));
    EXPECT_LE(g.period_after_ps(r), t);
    ++proofs[std::string(proof.t_min_proof)];
  }
  for (const char* kind : {"unit_delay", "io_path", "cycle"})
    EXPECT_GT(proofs[kind], 0) << kind;

  for (const char* circuit : {"y298", "y386", "y400", "y526"}) {
    SCOPED_TRACE(circuit);
    const Planned& p = planned(circuit);
    EXPECT_EQ(to_decips(min_period_retiming(p.g, p.wd)),
              test::bisection_min_period_decips(p.g, p.wd));
  }
}

// A probe's bound is a certificate: a feasible probe's is an achieved,
// feasible period at most T; an infeasible probe's exceeds T, and the
// period just below it is infeasible.  Feasibility is the relax-count
// reference's.
void expect_certificate(const RetimingGraph& g, const WdMatrices& wd,
                        std::int32_t period, const PeriodProbe& probe) {
  SCOPED_TRACE("T=" + std::to_string(period));
  EXPECT_EQ(probe.feasible, test::reference_feasible(g, wd, period));
  if (probe.feasible) {
    EXPECT_LE(probe.bound_decips, period);
    EXPECT_TRUE(test::reference_feasible(g, wd, probe.bound_decips));
    EXPECT_TRUE(g.is_legal_retiming(probe.r));
    EXPECT_EQ(to_decips(g.period_after_ps(probe.r)), probe.bound_decips);
  } else {
    EXPECT_GT(probe.bound_decips, period);
    EXPECT_FALSE(test::reference_feasible(g, wd, probe.bound_decips - 1));
  }
}

// Every probe of the search and every bisection midpoint, on random graphs
// and planned circuits.
TEST(MinPeriod, ProbeBoundsAreCertificates) {
  auto check = [](const RetimingGraph& g, const WdMatrices& wd) {
    MinPeriodProof proof;
    (void)min_period_retiming(g, wd, nullptr, base::ExecPolicy::sequential(),
                              &proof);
    for (const test::SearchProbe& s :
         test::replay_certificate_search(g, wd, proof.io_bound_decips))
      expect_certificate(g, wd, s.period_decips, s.probe);
    std::vector<test::BisectionProbe> midpoints;
    (void)test::bisection_min_period_decips(g, wd, &midpoints);
    for (const test::BisectionProbe& m : midpoints)
      expect_certificate(g, wd, m.period_decips,
                         probe_period(g, wd, m.period_decips));
  };
  Rng rng(2804);
  for (int trial = 0; trial < 80; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const RetimingGraph g = random_search_graph(rng, trial);
    check(g, WdMatrices::compute(g));
  }
  for (const char* circuit : {"y298", "y386", "y400", "y526"}) {
    SCOPED_TRACE(circuit);
    const Planned& p = planned(circuit);
    check(p.g, p.wd);
  }
}

// I/O a(2) -> x(5) -> b(3) without a register: no legal retiming moves a
// register onto it, so T_min is 10 ps and the search's first probe, at that
// bound, settles it.  With the ring c(4) -> d(4) -> e(4) -> c holding three
// registers on its back edge, T_init is 12 ps and that probe is the one;
// without the ring, T_init is 10 ps and the search probes nothing.
TEST(MinPeriod, IoPathSetsTMin) {
  for (const bool ring : {true, false}) {
    SCOPED_TRACE(ring ? "with ring" : "without ring");
    RetimingGraph g;
    const auto t = tile::TileId::invalid();
    const int a = g.add_vertex(VertexKind::kFunctional, 2.0, t);
    const int x = g.add_vertex(VertexKind::kFunctional, 5.0, t);
    const int b = g.add_vertex(VertexKind::kFunctional, 3.0, t);
    g.add_edge(a, x, 0);
    g.add_edge(x, b, 0);
    g.mark_io(a);
    g.mark_io(b);
    if (ring) {
      const int c = g.add_vertex(VertexKind::kFunctional, 4.0, t);
      const int d = g.add_vertex(VertexKind::kFunctional, 4.0, t);
      const int e = g.add_vertex(VertexKind::kFunctional, 4.0, t);
      g.add_edge(c, d, 0);
      g.add_edge(d, e, 0);
      g.add_edge(e, c, 3);
    }
    const auto wd = WdMatrices::compute(g);
    EXPECT_DOUBLE_EQ(wd.t_init_ps(), ring ? 12.0 : 10.0);
    std::vector<int> r;
    MinPeriodProof proof;
    EXPECT_DOUBLE_EQ(min_period_retiming(g, wd, &r,
                                         base::ExecPolicy::sequential(),
                                         &proof),
                     10.0);
    EXPECT_EQ(proof.io_bound_decips, to_decips(10.0));
    EXPECT_EQ(proof.t_min_proof, "io_path");
    EXPECT_LE(g.period_after_ps(r), 10.0);
    EXPECT_EQ(test::bisection_min_period_decips(g, wd), to_decips(10.0));
    EXPECT_EQ(count_search(g, wd).probes, ring ? 1 : 0);
  }
}

// The ring v1 -> v2 -> v3 -> v4 -> v1 (5 ps each) holds both registers on
// v1 -> v2, so T_init is 20 ps; spread one per pair it runs at 10 ps.  The
// I/O path a(1) -> b(2) bounds T_min by 3 ps only, so a negative cycle of
// an infeasible probe proves the minimum.
TEST(MinPeriod, IoBoundBelowTMin) {
  RetimingGraph g;
  const auto t = tile::TileId::invalid();
  std::vector<int> ring;
  for (int i = 0; i < 4; ++i)
    ring.push_back(g.add_vertex(VertexKind::kFunctional, 5.0, t));
  for (std::size_t i = 0; i < 4; ++i)
    g.add_edge(ring[i], ring[(i + 1) % 4], i == 0 ? 2 : 0);
  const int a = g.add_vertex(VertexKind::kFunctional, 1.0, t);
  const int b = g.add_vertex(VertexKind::kFunctional, 2.0, t);
  g.add_edge(a, b, 0);
  g.mark_io(a);
  g.mark_io(b);
  const auto wd = WdMatrices::compute(g);
  EXPECT_DOUBLE_EQ(wd.t_init_ps(), 20.0);
  std::vector<int> r;
  MinPeriodProof proof;
  EXPECT_DOUBLE_EQ(min_period_retiming(g, wd, &r,
                                       base::ExecPolicy::sequential(), &proof),
                   10.0);
  EXPECT_EQ(proof.io_bound_decips, to_decips(3.0));
  EXPECT_EQ(proof.t_min_proof, "cycle");
  EXPECT_LE(g.period_after_ps(r), 10.0);
  EXPECT_EQ(test::bisection_min_period_decips(g, wd), to_decips(10.0));
  EXPECT_GE(count_search(g, wd).probes, 2);
}

// Every distinct D(u,v) in (lo, hi], and lo, as T — or, with `stride` k,
// every k-th of them in ascending order: the set the pair-local rule keeps,
// pruned or not, is the neighbour-scan reference's, in the same order and
// with the same unpruned count.
void expect_pair_local_rule_matches(const RetimingGraph& g, std::int32_t lo,
                                    std::int32_t hi, std::size_t stride = 1) {
  const auto wd = WdMatrices::compute(g);
  const auto ref = test::dense_wd_reference(g);
  std::vector<std::int32_t> ds;
  for (std::size_t k = 0; k < ref.d.size(); ++k)
    if (ref.w[k] != WdMatrices::kUnreachable && ref.d[k] > lo &&
        ref.d[k] <= hi)
      ds.push_back(ref.d[k]);
  std::sort(ds.begin(), ds.end());
  ds.erase(std::unique(ds.begin(), ds.end()), ds.end());
  std::vector<std::int32_t> periods{lo};
  for (std::size_t k = 0; k < ds.size(); k += stride) periods.push_back(ds[k]);
  for (const std::int32_t period : periods) {
    for (const bool prune : {true, false}) {
      ASSERT_EQ(build_constraints(g, wd, period, {prune}),
                test::neighbour_scan_constraints(g, ref, period, prune))
          << "T=" << period << " prune=" << prune;
    }
  }
}

// Random graphs at every period from the largest unit delay up; planned
// circuits at T_min - 1 (when allowed), T_clk and every 16th distinct D up to
// T_init, which covers T_clk's neighbourhood and every probe's range.
TEST(Constraints, PairLocalRuleMatchesNeighbourScan) {
  Rng rng(3030);
  for (int trial = 0; trial < 60; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const RetimingGraph g = random_search_graph(rng, trial);
    expect_pair_local_rule_matches(
        g, WdMatrices::compute(g).max_vertex_delay_decips(),
        WdMatrices::kUnreachable);
  }
  for (const char* circuit : {"y298", "y386", "y400", "y526"}) {
    SCOPED_TRACE(circuit);
    const Planned& p = planned(circuit);
    const std::int32_t t_clk = to_decips(p.t_clk_ps);
    expect_pair_local_rule_matches(p.g, t_clk, t_clk);
    expect_pair_local_rule_matches(
        p.g,
        std::max(to_decips(p.t_min_ps) - 1, p.wd.max_vertex_delay_decips()),
        to_decips(p.wd.t_init_ps()), 16);
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
