#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "retime/constraints.h"
#include "retime/min_area.h"
#include "retime/sharing.h"
#include "retime/wd_matrices.h"
#include "tests/flow_network_reference.h"
#include "tests/test_util.h"

namespace lac::retime {
namespace {

// Brute-force reference for the SHARED objective.
std::optional<double> brute_force_shared(const RetimingGraph& g,
                                         double period_ps,
                                         const std::vector<double>& weights,
                                         int bound = 3) {
  const int n = g.num_vertices();
  std::vector<int> r(static_cast<std::size_t>(n), -bound);
  r[static_cast<std::size_t>(g.host())] = 0;
  std::optional<double> best;
  while (true) {
    if (g.is_legal_retiming(r) && g.period_after_ps(r) <= period_ps + 1e-9) {
      const double cost = shared_ff_area(g, r, weights);
      if (!best || cost < *best) best = cost;
    }
    int i = 0;
    for (; i < n; ++i) {
      if (i == g.host()) continue;
      if (r[static_cast<std::size_t>(i)] < bound) {
        ++r[static_cast<std::size_t>(i)];
        break;
      }
      r[static_cast<std::size_t>(i)] = -bound;
    }
    if (i == n) break;
  }
  return best;
}

// The mirror-vertex LP of sharing.h rebuilt independently and solved over
// the unreduced transshipment network (tests/flow_network_reference.h):
// every fanout edge and mirror edge an objective arc of breadth A(v)/k,
// the original graph's constraints plus non-negativity of every mirror
// edge, and the canonical labels r(v) = −d(host → v) of the optimal
// residual network, restricted to the original vertices.
std::optional<std::vector<int>> unreduced_shared(
    const RetimingGraph& g, const WdMatrices& wd, std::int32_t period_decips,
    const std::vector<double>& area_weight) {
  const int n = g.num_vertices();
  struct Arc {
    int u, v;
    double beta;
  };
  std::vector<Arc> objective;
  ConstraintSet cs = build_constraints(g, wd, period_decips);
  for (int v = 0; v < n; ++v) {
    const auto& fo = g.out_edges(v);
    if (v == g.host() || fo.empty()) continue;
    const double a = area_weight[static_cast<std::size_t>(v)];
    if (fo.size() == 1) {
      objective.push_back({v, g.edge(fo.front()).head, a});
      continue;
    }
    int w_max = 0;
    for (const int ei : fo) w_max = std::max(w_max, g.edge(ei).w);
    const int mirror = cs.num_vars++;
    const double beta = a / static_cast<double>(fo.size());
    for (const int ei : fo) {
      const auto& e = g.edge(ei);
      objective.push_back({v, e.head, beta});
      objective.push_back({e.head, mirror, beta});
      cs.edge.push_back({e.head, mirror, w_max - e.w});
    }
  }
  double max_beta = 0.0;
  for (const Arc& a : objective) max_beta = std::max(max_beta, a.beta);
  std::vector<std::int64_t> supply(static_cast<std::size_t>(cs.num_vars), 0);
  for (const Arc& a : objective) {
    const std::int64_t b = quantise_weight(a.beta, max_beta);
    supply[static_cast<std::size_t>(a.u)] += b;
    supply[static_cast<std::size_t>(a.v)] -= b;
  }
  graph::MinCostFlow mcf = test::unreduced_flow_network(cs, g.host());
  for (int v = 0; v < cs.num_vars; ++v)
    mcf.set_supply(v, supply[static_cast<std::size_t>(v)]);
  if (!mcf.solve()) return std::nullopt;
  const auto dist = mcf.residual_distances_from(g.host());
  std::vector<int> r(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v)
    r[static_cast<std::size_t>(v)] =
        static_cast<int>(-dist[static_cast<std::size_t>(v)]);
  return r;
}

std::vector<double> ones(const RetimingGraph& g) {
  return std::vector<double>(static_cast<std::size_t>(g.num_vertices()), 1.0);
}

// A vertex with two registered fanouts: per-edge cost 2, shared cost 1.
RetimingGraph fanout_pair() {
  RetimingGraph g;
  const auto t = tile::TileId::invalid();
  const int a = g.add_vertex(VertexKind::kFunctional, 1.0, t);
  const int b = g.add_vertex(VertexKind::kFunctional, 1.0, t);
  const int c = g.add_vertex(VertexKind::kFunctional, 1.0, t);
  g.add_edge(a, b, 1);
  g.add_edge(a, c, 1);
  g.add_edge(b, a, 1);
  g.add_edge(c, a, 1);
  return g;
}

TEST(Sharing, SharedAreaCountsMaxPerVertex) {
  const auto g = fanout_pair();
  std::vector<int> zero(static_cast<std::size_t>(g.num_vertices()), 0);
  // Per-edge: 4 registers.  Shared: a contributes max(1,1)=1; b,c 1 each.
  EXPECT_DOUBLE_EQ(weighted_ff_area(g, zero, ones(g)), 4.0);
  EXPECT_DOUBLE_EQ(shared_ff_area(g, zero, ones(g)), 3.0);
}

TEST(Sharing, OptimumNeverExceedsPerEdgeOptimum) {
  Rng rng(19);
  for (int trial = 0; trial < 15; ++trial) {
    auto g = test::random_retiming_graph(rng, 6, 8);
    const auto wd = WdMatrices::compute(g);
    const auto t = to_decips(wd.t_init_ps());
    const auto cs = build_constraints(g, wd, t);
    const auto r_edge = min_area_retiming(g, cs);
    const auto r_shared = min_area_retiming_shared(g, wd, t, ones(g));
    ASSERT_TRUE(r_edge.has_value());
    ASSERT_TRUE(r_shared.has_value());
    EXPECT_LE(shared_ff_area(g, *r_shared, ones(g)),
              shared_ff_area(g, *r_edge, ones(g)) + 1e-9);
  }
}

TEST(Sharing, MatchesBruteForceOnTinyGraphs) {
  Rng rng(23);
  int compared = 0;
  for (int trial = 0; trial < 25; ++trial) {
    auto g = test::random_retiming_graph(rng, 4, 4, /*max_w=*/1);
    const auto wd = WdMatrices::compute(g);
    const double t =
        (from_decips(wd.max_vertex_delay_decips()) + wd.t_init_ps()) / 2.0;
    const auto weights = ones(g);
    const auto r = min_area_retiming_shared(g, wd, to_decips(t), weights);
    const auto brute =
        brute_force_shared(g, from_decips(to_decips(t)), weights);
    if (!r.has_value()) {
      EXPECT_FALSE(brute.has_value());
      continue;
    }
    ASSERT_TRUE(brute.has_value());
    const double flow = shared_ff_area(g, *r, weights);
    EXPECT_NEAR(flow, *brute, 1e-6) << "trial " << trial;
    ++compared;
  }
  EXPECT_GT(compared, 8);
}

TEST(Sharing, RespectsClockPeriod) {
  const auto g = test::correlator_graph();
  const auto wd = WdMatrices::compute(g);
  const auto r = min_area_retiming_shared(g, wd, to_decips(7.0), ones(g));
  ASSERT_TRUE(r.has_value());
  EXPECT_LE(g.period_after_ps(*r), 7.0 + 1e-9);
}

TEST(Sharing, InfeasiblePeriodReturnsNullopt) {
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
  EXPECT_FALSE(
      min_area_retiming_shared(g, wd, to_decips(6.0), ones(g)).has_value());
}

TEST(Sharing, SharedBeatsPerEdgeOnFanoutHeavyGraph) {
  const auto g = fanout_pair();
  const auto wd = WdMatrices::compute(g);
  const auto t = to_decips(wd.t_init_ps());
  const auto cs = build_constraints(g, wd, t);
  const auto r_edge = min_area_retiming(g, cs);
  const auto r_shared = min_area_retiming_shared(g, wd, t, ones(g));
  ASSERT_TRUE(r_edge && r_shared);
  // Cycle invariants pin per-edge count at >= 4 but shared at 3.
  EXPECT_DOUBLE_EQ(shared_ff_area(g, *r_shared, ones(g)), 3.0);
}

// min_area_retiming_shared returns the canonical labels of its mirror-
// vertex LP, not one optimum the flow happened to reach: on random graphs
// at a mid-range period and at T_init it must equal the canonical read of
// the same LP over the unreduced network, whose arc set and augmentation
// history differ.  Even trials leave the host unconnected, so every label
// may shift; odd trials pin the chain's ends to the host as I/O, so only
// the choice among optima is left.
TEST(Sharing, ReturnsCanonicalLabelsOfTheMirrorLp) {
  Rng rng(20031);
  int compared = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const int n = 5 + static_cast<int>(rng.uniform(12));
    auto g = test::random_retiming_graph(rng, n, n, 2);
    if (trial % 2 == 1) {
      g.mark_io(1);
      g.mark_io(n);
    }
    const auto wd = WdMatrices::compute(g);
    const auto t_init = to_decips(wd.t_init_ps());
    for (const std::int32_t t :
         {(wd.max_vertex_delay_decips() + t_init) / 2, t_init}) {
      const auto r = min_area_retiming_shared(g, wd, t, ones(g));
      const auto ref = unreduced_shared(g, wd, t, ones(g));
      ASSERT_EQ(r.has_value(), ref.has_value()) << "trial " << trial;
      if (!r) continue;
      EXPECT_EQ(*r, *ref) << "trial " << trial << " T = " << t;
      ++compared;
    }
  }
  EXPECT_GT(compared, 400);
}

}  // namespace
}  // namespace lac::retime
