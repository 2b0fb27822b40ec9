#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "bench89/suite.h"
#include "graph/diff_constraints.h"
#include "netlist/generator.h"
#include "planner/interconnect_planner.h"
#include "retime/constraints.h"
#include "retime/min_area.h"
#include "retime/weighted_min_area_solver.h"
#include "retime/wd_matrices.h"
#include "tests/flow_network_reference.h"
#include "tests/lac_reference.h"
#include "tests/test_util.h"

namespace lac::retime {
namespace {

std::vector<double> uniform_weights(const RetimingGraph& g) {
  return std::vector<double>(static_cast<std::size_t>(g.num_vertices()), 1.0);
}

TEST(MinArea, CorrelatorAtTightPeriod) {
  const auto g = test::correlator_graph();
  const auto wd = WdMatrices::compute(g);
  const auto cs = build_constraints(g, wd, to_decips(7.0));
  const auto r = min_area_retiming(g, cs);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(g.is_legal_retiming(*r));
  EXPECT_LE(g.period_after_ps(*r), 7.0 + 1e-9);
  // Total registers: min possible at T=7 is 3 (cycle weight invariant).
  std::int64_t total = 0;
  for (int e = 0; e < g.num_edges(); ++e) total += g.retimed_weight(e, *r);
  EXPECT_EQ(total, 3);
}

TEST(MinArea, InfeasiblePeriodReturnsNullopt) {
  // Register-free pinned pipeline: pi -> a(5) -> b(5) -> po.  Any period
  // below 10 needs a register that I/O pinning forbids creating.
  RetimingGraph g;
  const auto t = tile::TileId::invalid();
  const int pi = g.add_vertex(VertexKind::kFunctional, 0.0, t);
  const int a = g.add_vertex(VertexKind::kFunctional, 5.0, t);
  const int b = g.add_vertex(VertexKind::kFunctional, 5.0, t);
  const int po = g.add_vertex(VertexKind::kFunctional, 0.0, t);
  g.add_edge(pi, a, 0);
  g.add_edge(a, b, 0);
  g.add_edge(b, po, 0);
  g.mark_io(pi);
  g.mark_io(po);
  const auto wd = WdMatrices::compute(g);
  const auto cs = build_constraints(g, wd, to_decips(6.0));
  EXPECT_FALSE(min_area_retiming(g, cs).has_value());
}

TEST(MinArea, MatchesBruteForceUniform) {
  Rng rng(55);
  int compared = 0;
  for (int trial = 0; trial < 30; ++trial) {
    auto g = test::random_retiming_graph(rng, 4, 4, /*max_w=*/1);
    const auto wd = WdMatrices::compute(g);
    // A period halfway between min and init keeps the instance non-trivial.
    const double t =
        (from_decips(wd.max_vertex_delay_decips()) + wd.t_init_ps()) / 2.0;
    const auto cs = build_constraints(g, wd, to_decips(t));
    const auto weights = uniform_weights(g);
    WeightedMinAreaSolver solver(g, cs);
    const auto r = solver.solve(weights);
    const auto brute = test::brute_force_min_area(g, from_decips(to_decips(t)),
                                                  weights, /*bound=*/3);
    if (!r.has_value()) {
      EXPECT_FALSE(brute.has_value()) << "flow infeasible but brute found one";
      continue;
    }
    ASSERT_TRUE(brute.has_value());
    const double flow_cost = weighted_ff_area(g, *r, weights);
    EXPECT_NEAR(flow_cost, *brute, 1e-6) << "trial " << trial;
    ++compared;
  }
  EXPECT_GT(compared, 10);  // most instances must be feasible
}

TEST(MinArea, MatchesBruteForceWeighted) {
  Rng rng(66);
  int compared = 0;
  for (int trial = 0; trial < 30; ++trial) {
    auto g = test::random_retiming_graph(rng, 4, 3, /*max_w=*/1);
    const auto wd = WdMatrices::compute(g);
    const double t =
        (from_decips(wd.max_vertex_delay_decips()) + wd.t_init_ps()) / 2.0;
    const auto cs = build_constraints(g, wd, to_decips(t));
    std::vector<double> weights(static_cast<std::size_t>(g.num_vertices()));
    for (auto& w : weights) w = 0.25 + rng.uniform_real() * 4.0;
    WeightedMinAreaSolver solver(g, cs);
    const auto r = solver.solve(weights);
    const auto brute = test::brute_force_min_area(g, from_decips(to_decips(t)),
                                                  weights, /*bound=*/3);
    if (!r.has_value()) {
      EXPECT_FALSE(brute.has_value());
      continue;
    }
    ASSERT_TRUE(brute.has_value());
    // Quantisation of weights can perturb tie-breaking; the flow optimum
    // must still be within a hair of the true optimum.
    const double flow_cost = weighted_ff_area(g, *r, weights);
    EXPECT_LE(flow_cost, *brute * 1.001 + 1e-6) << "trial " << trial;
    EXPECT_GE(flow_cost, *brute - 1e-6) << "trial " << trial;
    ++compared;
  }
  EXPECT_GT(compared, 10);
}

TEST(MinArea, RespectsClockConstraintsAcrossSweep) {
  Rng rng(77);
  auto g = test::random_retiming_graph(rng, 12, 16);
  const auto wd = WdMatrices::compute(g);
  const auto lo = wd.max_vertex_delay_decips();
  const auto hi = to_decips(wd.t_init_ps());
  for (int step = 0; step <= 4; ++step) {
    const std::int32_t T = lo + (hi - lo) * step / 4;
    const auto cs = build_constraints(g, wd, T);
    const auto r = min_area_retiming(g, cs);
    if (!r.has_value()) continue;  // below T_min
    EXPECT_TRUE(g.is_legal_retiming(*r));
    EXPECT_LE(g.period_after_ps(*r), from_decips(T) + 1e-9);
  }
}

TEST(MinArea, NeverWorseThanIdentityAtTInit) {
  Rng rng(88);
  for (int trial = 0; trial < 10; ++trial) {
    auto g = test::random_retiming_graph(rng, 8, 10);
    const auto wd = WdMatrices::compute(g);
    const auto cs = build_constraints(g, wd, to_decips(wd.t_init_ps()));
    const auto r = min_area_retiming(g, cs);
    ASSERT_TRUE(r.has_value());
    std::int64_t after = 0;
    for (int e = 0; e < g.num_edges(); ++e) after += g.retimed_weight(e, *r);
    EXPECT_LE(after, g.total_weight());
  }
}

TEST(MinArea, HostLabelIsZero) {
  const auto g = test::correlator_graph();
  const auto wd = WdMatrices::compute(g);
  const auto cs = build_constraints(g, wd, to_decips(8.0));
  const auto r = min_area_retiming(g, cs);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ((*r)[static_cast<std::size_t>(g.host())], 0);
}

TEST(MinArea, RejectsNonPositiveWeights) {
  const auto g = test::correlator_graph();
  const auto wd = WdMatrices::compute(g);
  const auto cs = build_constraints(g, wd, to_decips(10.0));
  std::vector<double> weights(static_cast<std::size_t>(g.num_vertices()), 1.0);
  weights[2] = 0.0;
  WeightedMinAreaSolver solver(g, cs);
  EXPECT_THROW(solver.solve(weights), CheckError);
}

TEST(MinArea, IoPinningRespected) {
  RetimingGraph g;
  const auto t = tile::TileId::invalid();
  const int pi = g.add_vertex(VertexKind::kFunctional, 0.0, t);
  const int a = g.add_vertex(VertexKind::kFunctional, 5.0, t);
  const int po = g.add_vertex(VertexKind::kFunctional, 0.0, t);
  g.add_edge(pi, a, 1);
  g.add_edge(a, po, 1);
  g.mark_io(pi);
  g.mark_io(po);
  const auto wd = WdMatrices::compute(g);
  const auto cs = build_constraints(g, wd, to_decips(5.0));
  const auto r = min_area_retiming(g, cs);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ((*r)[static_cast<std::size_t>(pi)], 0);
  EXPECT_EQ((*r)[static_cast<std::size_t>(po)], 0);
}

// ---------------------------------------------------------------------------
// The bounded network against the unreduced one (flow_network_reference.h).
// Both describe one polytope, so every round of a session must return the
// reference's retiming and exact flow cost.

// One round of `session`, checked against the unreduced reference.
std::optional<std::vector<int>> solve_checked(
    WeightedMinAreaSolver& session, const RetimingGraph& g,
    const ConstraintSet& cs, const std::vector<double>& weights,
    MinAreaStats* stats = nullptr) {
  MinAreaStats st;
  auto r = session.solve(weights, &st);
  const auto ref = test::unreduced_min_area(g, cs, weights);
  EXPECT_EQ(r.has_value(), ref.has_value());
  if (r && ref) {
    EXPECT_EQ(*r, ref->r);
    EXPECT_EQ(st.flow_cost_exact, ref->flow_cost_exact);
  }
  if (stats != nullptr) *stats = st;
  return r;
}

// A label with no path bounding it keeps the host arc of cost K, with K
// taken from the full set: the same cost as the unreduced network's arc.
void expect_unbounded_labels_cost_k(const ConstraintSet& cs, int host) {
  const auto net = retiming_flow_network(cs, host);
  const auto ref = test::unreduced_flow_network(cs, host);
  const int total = static_cast<int>(cs.total());
  ASSERT_EQ(net.mcf.num_arcs() - net.kept_constraints,
            ref.num_arcs() - total);
  for (int v = 0, k = 0; v < cs.num_vars; ++v) {
    if (v == host) continue;
    const auto sv = static_cast<std::size_t>(v);
    if (net.r_max[sv] == graph::kNoPath) {
      EXPECT_EQ(net.mcf.arc_cost(net.kept_constraints + k),
                ref.arc_cost(total + k))
          << "v -> host of " << v;
    }
    if (net.r_min[sv] == -graph::kNoPath) {
      EXPECT_EQ(net.mcf.arc_cost(net.kept_constraints + k + 1),
                ref.arc_cost(total + k + 1))
          << "host -> v of " << v;
    }
    k += 2;
  }
}

TEST(BoundedNetwork, MatchesUnreducedOnRandomGraphs) {
  Rng rng(31);
  std::size_t kept = 0;
  std::size_t total = 0;
  int fixed = 0;
  int rounds = 0;
  for (int trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    auto g = test::random_retiming_graph(rng, 6 + trial % 15, 8 + trial % 11,
                                         /*max_w=*/3);
    // Three in four graphs pin some I/O to the host; the rest leave every
    // label without a bounding path.
    if (trial % 4 != 3) {
      const int n = g.num_vertices() - 1;
      g.mark_io(1);
      for (int k = 0; k < 2; ++k)
        g.mark_io(
            1 + static_cast<int>(rng.uniform(static_cast<std::uint64_t>(n))));
    }
    const auto wd = WdMatrices::compute(g);
    for (const std::int32_t period :
         {to_decips(min_period_retiming(g, wd)),
          (wd.max_vertex_delay_decips() + to_decips(wd.t_init_ps())) / 2}) {
      const auto cs = build_constraints(g, wd, period);
      const auto net = retiming_flow_network(cs, g.host());
      kept += static_cast<std::size_t>(net.kept_constraints);
      total += cs.total();
      fixed += net.fixed_labels;
      expect_unbounded_labels_cost_k(cs, g.host());
      WeightedMinAreaSolver session(g, cs);
      std::vector<double> weights(static_cast<std::size_t>(g.num_vertices()),
                                  1.0);
      for (int round = 0; round < 5; ++round) {
        SCOPED_TRACE("period " + std::to_string(period) + " round " +
                     std::to_string(round));
        if (round > 0)
          for (double& w : weights)
            w = 0.25 + static_cast<double>(rng.uniform(64)) / 16.0;
        if (solve_checked(session, g, cs, weights).has_value()) ++rounds;
      }
    }
  }
  // The reduction is exercised: it drops constraints and fixes labels.
  EXPECT_LT(kept, total);
  EXPECT_GT(fixed, 0);
  EXPECT_GT(rounds, 300);
}

// Every LAC round of a planned circuit, on the session the LAC loop uses,
// against the unreduced reference.  Returns the number of rounds.
int expect_lac_rounds_match_unreduced(const netlist::Netlist& nl,
                                       planner::PlannerConfig cfg) {
  cfg.run.seed = 7;
  const planner::InterconnectPlanner planner(cfg);
  const auto res = planner.plan(nl, planner::PlanOptions{}).front();
  const auto wd = WdMatrices::compute(res.graph);
  const auto cs = build_constraints(res.graph, wd, to_decips(res.t_clk_ps));
  const auto net = retiming_flow_network(cs, res.graph.host());
  EXPECT_LT(static_cast<std::size_t>(net.kept_constraints), cs.total());
  WeightedMinAreaSolver session(res.graph, cs);
  const LacResult lac = test::lac_reference_with(
      res.graph, *res.grid, planner.config().lac_opt,
      [&](const std::vector<double>& w, MinAreaStats* st) {
        SCOPED_TRACE("round " + std::to_string(session.rounds() + 1));
        return solve_checked(session, res.graph, cs, w, st);
      });
  EXPECT_EQ(lac.r, res.lac.r);
  EXPECT_EQ(lac.n_wr, res.lac.n_wr);
  return lac.n_wr;
}

class BoundedNetworkOnTable1 : public ::testing::TestWithParam<const char*> {};

TEST_P(BoundedNetworkOnTable1, MatchesUnreducedEveryLacRound) {
  const auto& entry = bench89::entry_by_name(GetParam());
  planner::PlannerConfig cfg;
  cfg.num_blocks = entry.recommended_blocks;
  (void)expect_lac_rounds_match_unreduced(bench89::load(entry), cfg);
}

INSTANTIATE_TEST_SUITE_P(Circuits, BoundedNetworkOnTable1,
                         ::testing::Values("y298", "y386", "y400", "y526"));

// Generator circuits drawn as the LAC-heavy benchmark draws them (a size
// point's spec, seed × 1000 + k, tight register provisioning), chosen so
// that a label read off raw potentials instead of residual distances
// differs from the canonical one: at round 1 of y526_g15 and round 23 of
// y400_g5.
TEST(BoundedNetwork, MatchesUnreducedOnTightlyProvisionedCircuits) {
  for (const auto& [point, k] : {std::pair{"y400", 5}, std::pair{"y526", 15}}) {
    SCOPED_TRACE(std::string(point) + "_g" + std::to_string(k));
    const auto& entry = bench89::entry_by_name(point);
    netlist::GenSpec spec = entry.spec;
    spec.seed = entry.spec.seed * 1000 + static_cast<std::uint64_t>(k);
    spec.name += "_g" + std::to_string(k);
    planner::PlannerConfig cfg;
    cfg.num_blocks = entry.recommended_blocks;
    cfg.dff_provision_factor = 0.4;
    const int rounds =
        expect_lac_rounds_match_unreduced(netlist::generate_netlist(spec), cfg);
    if (k == 5) {
      EXPECT_GE(rounds, 23);
    }
  }
}

TEST(BoundedNetwork, InfeasibleSetsReturnNullopt) {
  const auto t = tile::TileId::invalid();
  // A register-free pinned pipeline below its period: the negative cycle
  // runs through the host, so the bounds stay unknown and nothing drops.
  {
    RetimingGraph g;
    const int pi = g.add_vertex(VertexKind::kFunctional, 0.0, t);
    const int a = g.add_vertex(VertexKind::kFunctional, 5.0, t);
    const int b = g.add_vertex(VertexKind::kFunctional, 5.0, t);
    const int po = g.add_vertex(VertexKind::kFunctional, 0.0, t);
    g.add_edge(pi, a, 0);
    g.add_edge(a, b, 0);
    g.add_edge(b, po, 0);
    g.mark_io(pi);
    g.mark_io(po);
    const auto cs = build_constraints(g, WdMatrices::compute(g), to_decips(6.0));
    const auto net = retiming_flow_network(cs, g.host());
    EXPECT_EQ(static_cast<std::size_t>(net.kept_constraints), cs.total());
    EXPECT_EQ(net.fixed_labels, 0);
    WeightedMinAreaSolver session(g, cs);
    EXPECT_FALSE(solve_checked(session, g, cs, uniform_weights(g)));
  }
  // A one-register ring that needs two registers, away from the host: the
  // bound passes do not reach its cycle, which keeps every arc.
  {
    RetimingGraph g;
    const int a = g.add_vertex(VertexKind::kFunctional, 5.0, t);
    const int b = g.add_vertex(VertexKind::kFunctional, 5.0, t);
    g.add_edge(a, b, 1);
    g.add_edge(b, a, 0);
    const auto cs = build_constraints(g, WdMatrices::compute(g), to_decips(6.0));
    ASSERT_FALSE(cs.clock.empty());
    EXPECT_EQ(static_cast<std::size_t>(
                  retiming_flow_network(cs, g.host()).kept_constraints),
              cs.total());
    WeightedMinAreaSolver session(g, cs);
    EXPECT_FALSE(solve_checked(session, g, cs, uniform_weights(g)));
  }
}

TEST(BoundedNetwork, LabelWithoutHostPathKeepsCostK) {
  // pi -(6)-> po, both pinned: the edge constraint carries the set's
  // largest constant and the bounds imply it.  The ring x <-> y has no
  // path to or from the host, so its host arcs keep the full set's K.
  RetimingGraph g;
  const auto t = tile::TileId::invalid();
  const int pi = g.add_vertex(VertexKind::kFunctional, 0.0, t);
  const int po = g.add_vertex(VertexKind::kFunctional, 0.0, t);
  const int x = g.add_vertex(VertexKind::kFunctional, 3.0, t);
  const int y = g.add_vertex(VertexKind::kFunctional, 3.0, t);
  g.add_edge(pi, po, 6);
  g.add_edge(x, y, 1);
  g.add_edge(y, x, 0);
  g.mark_io(pi);
  g.mark_io(po);
  const auto cs = build_constraints(g, WdMatrices::compute(g), to_decips(10.0));
  const auto net = retiming_flow_network(cs, g.host());
  EXPECT_EQ(net.r_max[static_cast<std::size_t>(x)], graph::kNoPath);
  EXPECT_EQ(net.r_min[static_cast<std::size_t>(y)], -graph::kNoPath);
  EXPECT_EQ(net.fixed_labels, 2);  // pi and po
  EXPECT_EQ(net.kept_constraints, 2);  // the ring's edges
  expect_unbounded_labels_cost_k(cs, g.host());
  WeightedMinAreaSolver session(g, cs);
  std::vector<double> weights = uniform_weights(g);
  for (const double wy : {1.0, 3.0, 0.5}) {
    weights[static_cast<std::size_t>(y)] = wy;
    EXPECT_TRUE(solve_checked(session, g, cs, weights).has_value());
  }
}

}  // namespace
}  // namespace lac::retime
