#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "base/rng.h"
#include "retime/constraints.h"
#include "retime/wd_matrices.h"
#include "tests/test_util.h"
#include "tests/wd_reference.h"

namespace lac::retime {
namespace {

// Floyd–Warshall reference on lexicographic (W, -delaySum) pairs.
struct RefWd {
  std::vector<std::vector<std::int64_t>> w, s;  // s = delay sum excl. head
};

RefWd reference_wd(const RetimingGraph& g) {
  const int n = g.num_vertices();
  constexpr std::int64_t inf = std::numeric_limits<std::int64_t>::max() / 4;
  RefWd ref;
  ref.w.assign(static_cast<std::size_t>(n),
               std::vector<std::int64_t>(static_cast<std::size_t>(n), inf));
  ref.s.assign(static_cast<std::size_t>(n),
               std::vector<std::int64_t>(static_cast<std::size_t>(n), 0));
  for (int v = 0; v < n; ++v) {
    ref.w[static_cast<std::size_t>(v)][static_cast<std::size_t>(v)] = 0;
    ref.s[static_cast<std::size_t>(v)][static_cast<std::size_t>(v)] = 0;
  }
  auto better = [](std::int64_t w1, std::int64_t s1, std::int64_t w2,
                   std::int64_t s2) {
    return w1 < w2 || (w1 == w2 && s1 > s2);  // min W, then max delay
  };
  for (int e = 0; e < g.num_edges(); ++e) {
    const auto& ed = g.edge(e);
    const std::int64_t w = ed.w;
    const std::int64_t s = g.delay_decips(ed.tail);
    auto& cw = ref.w[static_cast<std::size_t>(ed.tail)][static_cast<std::size_t>(ed.head)];
    auto& cs = ref.s[static_cast<std::size_t>(ed.tail)][static_cast<std::size_t>(ed.head)];
    if (ed.tail == ed.head) continue;
    if (better(w, s, cw, cs)) {
      cw = w;
      cs = s;
    }
  }
  const int nn = n;
  for (int k = 0; k < nn; ++k)
    for (int i = 0; i < nn; ++i) {
      if (ref.w[static_cast<std::size_t>(i)][static_cast<std::size_t>(k)] >= inf) continue;
      for (int j = 0; j < nn; ++j) {
        if (ref.w[static_cast<std::size_t>(k)][static_cast<std::size_t>(j)] >= inf) continue;
        const std::int64_t w =
            ref.w[static_cast<std::size_t>(i)][static_cast<std::size_t>(k)] +
            ref.w[static_cast<std::size_t>(k)][static_cast<std::size_t>(j)];
        const std::int64_t s =
            ref.s[static_cast<std::size_t>(i)][static_cast<std::size_t>(k)] +
            ref.s[static_cast<std::size_t>(k)][static_cast<std::size_t>(j)];
        if (better(w, s,
                   ref.w[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)],
                   ref.s[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)])) {
          ref.w[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = w;
          ref.s[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = s;
        }
      }
    }
  return ref;
}

TEST(Wd, CorrelatorKnownValues) {
  const auto g = test::correlator_graph();
  const auto wd = WdMatrices::compute(g);
  WdMatrices::Row scratch;
  auto row = [&](int u) -> const WdMatrices::Row& {
    wd.row(u, scratch);
    return scratch;
  };
  // v1=1, v2=2, v3=3, v4=4 (vertex 0 is host, unreachable).
  EXPECT_EQ(row(1).w(2), 1);
  EXPECT_EQ(row(1).w(4), 3);
  EXPECT_EQ(row(4).w(1), 0);
  EXPECT_EQ(row(2).w(1), 2);  // v2->v3->v4->v1: w = 1+1+0
  EXPECT_EQ(row(4).d_decips(1), to_decips(10.0));  // v4(7)+v1(3), zero-weight path
  EXPECT_EQ(row(1).d_decips(2), to_decips(6.0));   // v1+v2 along the single path
  EXPECT_EQ(row(1).d_decips(1), to_decips(3.0));   // empty path: own delay
  EXPECT_DOUBLE_EQ(wd.t_init_ps(), 10.0);
  EXPECT_EQ(row(0).w(1), WdMatrices::kUnreachable);  // host is edge-less
}

TEST(Wd, MatchesFloydWarshallOnRandomGraphs) {
  Rng rng(99);
  WdMatrices::Row row;
  for (int trial = 0; trial < 25; ++trial) {
    auto g = test::random_retiming_graph(rng, 4 + static_cast<int>(rng.uniform(8)),
                                         static_cast<int>(rng.uniform(14)));
    const auto wd = WdMatrices::compute(g);
    const auto ref = reference_wd(g);
    constexpr std::int64_t inf = std::numeric_limits<std::int64_t>::max() / 4;
    for (int u = 0; u < g.num_vertices(); ++u) {
      wd.row(u, row);
      for (int v = 0; v < g.num_vertices(); ++v) {
        if (ref.w[static_cast<std::size_t>(u)][static_cast<std::size_t>(v)] >= inf) {
          EXPECT_EQ(row.w(v), WdMatrices::kUnreachable) << u << "->" << v;
          continue;
        }
        ASSERT_NE(row.w(v), WdMatrices::kUnreachable) << u << "->" << v;
        EXPECT_EQ(row.w(v),
                  ref.w[static_cast<std::size_t>(u)][static_cast<std::size_t>(v)])
            << u << "->" << v;
        EXPECT_EQ(row.d_decips(v),
                  ref.s[static_cast<std::size_t>(u)][static_cast<std::size_t>(v)] +
                      g.delay_decips(v))
            << u << "->" << v;
      }
    }
  }
}

TEST(Wd, TInitIsMaxZeroWeightD) {
  Rng rng(12);
  WdMatrices::Row row;
  for (int trial = 0; trial < 10; ++trial) {
    auto g = test::random_retiming_graph(rng, 7, 9);
    const auto wd = WdMatrices::compute(g);
    std::int64_t expect = 0;
    for (int u = 0; u < g.num_vertices(); ++u) {
      wd.row(u, row);
      row.for_each_reached([&](int, std::int32_t w, std::int32_t d) {
        if (w == 0) expect = std::max<std::int64_t>(expect, d);
      });
    }
    EXPECT_DOUBLE_EQ(wd.t_init_ps(), from_decips(expect));
    // And it must equal the graph's own register-free longest path.
    EXPECT_NEAR(wd.t_init_ps(), g.period_as_is_ps(), 0.11);
  }
}

TEST(Wd, RegisterFreeCycleRejected) {
  RetimingGraph g;
  const auto t = tile::TileId::invalid();
  const int a = g.add_vertex(VertexKind::kFunctional, 1.0, t);
  const int b = g.add_vertex(VertexKind::kFunctional, 1.0, t);
  g.add_edge(a, b, 0);
  g.add_edge(b, a, 0);
  EXPECT_THROW(WdMatrices::compute(g), CheckError);
}

TEST(Wd, MaxVertexDelayTracked) {
  const auto g = test::correlator_graph();
  const auto wd = WdMatrices::compute(g);
  EXPECT_EQ(wd.max_vertex_delay_decips(), to_decips(7.0));
}

// Every row of `wd` equals the dense reference's, and each row lists its
// reachable vertices once, in ascending W; the landmarks match too.  `row`
// is the caller's scratch, possibly left over from another graph.
void expect_rows_match_reference(const RetimingGraph& g, const WdMatrices& wd,
                                 WdMatrices::Row& row) {
  const test::DenseWd ref = test::dense_wd_reference(g);
  ASSERT_EQ(wd.n(), ref.n);
  EXPECT_EQ(to_decips(wd.t_init_ps()), ref.t_init);
  EXPECT_EQ(wd.io_path_bound_decips(), test::io_path_bound_reference(g, ref));
  for (int u = 0; u < ref.n; ++u) {
    wd.row(u, row);
    int reachable = 0;
    for (int v = 0; v < ref.n; ++v) {
      ASSERT_EQ(row.w(v), ref.w_at(u, v)) << u << "->" << v;
      if (ref.w_at(u, v) == WdMatrices::kUnreachable) continue;
      ++reachable;
      ASSERT_EQ(row.d_decips(v), ref.d_at(u, v)) << u << "->" << v;
    }
    std::vector<char> seen(static_cast<std::size_t>(ref.n), 0);
    std::int32_t last_w = 0;
    int listed = 0;
    row.for_each_reached([&](int v, std::int32_t w, std::int32_t d) {
      EXPECT_FALSE(seen[static_cast<std::size_t>(v)]) << u << "->" << v;
      seen[static_cast<std::size_t>(v)] = 1;
      EXPECT_GE(w, last_w) << u << "->" << v;
      last_w = w;
      EXPECT_EQ(w, ref.w_at(u, v)) << u << "->" << v;
      EXPECT_EQ(d, ref.d_at(u, v)) << u << "->" << v;
      ++listed;
    });
    EXPECT_EQ(listed, reachable) << "row " << u;
  }
}

// A random graph with register-free chains, cycles through registers, a few
// I/O vertices and edges of weight up to 5, so that a row's W levels wrap
// around the bitmap ring several times.
RetimingGraph random_row_graph(Rng& rng) {
  const int n = 2 + static_cast<int>(rng.uniform(40));
  const int max_w = 3 + static_cast<int>(rng.uniform(3));
  RetimingGraph g = test::random_retiming_graph(
      rng, n, static_cast<int>(rng.uniform(static_cast<std::uint64_t>(3 * n))),
      max_w);
  const int io = static_cast<int>(rng.uniform(4));
  for (int k = 0; k < io; ++k)
    g.mark_io(1 + static_cast<int>(rng.uniform(
                      static_cast<std::uint64_t>(g.num_vertices() - 1))));
  return g;
}

TEST(Wd, RowsMatchReferenceOnRandomGraphs) {
  Rng rng(2026);
  WdMatrices::Row row;  // shared across graphs of different sizes
  for (int trial = 0; trial < 150; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const RetimingGraph g = random_row_graph(rng);
    const auto wd = WdMatrices::compute(g);
    expect_rows_match_reference(g, wd, row);
    if (HasFatalFailure()) return;
  }
}

// One random edit of `g`: change a delay, add an edge, add a vertex,
// remove one, or add a register to an edge (kinds 0-4).
RetimingGraph random_edit(const RetimingGraph& g, Rng& rng) {
  const int n = g.num_vertices();
  const int kind = static_cast<int>(rng.uniform(5));
  // A non-host vertex: the one whose delay changes, or the removed one.
  const int pick = 1 + static_cast<int>(rng.uniform(
                           static_cast<std::uint64_t>(n - 1)));
  RetimingGraph out;
  std::vector<int> old_to_new(static_cast<std::size_t>(n), -1);
  old_to_new[static_cast<std::size_t>(g.host())] = out.host();
  for (int v = 1; v < n; ++v) {
    if (kind == 3 && v == pick) continue;
    const double d = g.delay_ps(v) + (kind == 0 && v == pick ? 2.0 : 0.0);
    old_to_new[static_cast<std::size_t>(v)] =
        out.add_vertex(g.kind(v), d, g.tile(v));
  }
  const int bumped = static_cast<int>(
      rng.uniform(static_cast<std::uint64_t>(std::max(g.num_edges(), 1))));
  for (int e = 0; e < g.num_edges(); ++e) {
    const auto& ed = g.edge(e);
    const int t = old_to_new[static_cast<std::size_t>(ed.tail)];
    const int h = old_to_new[static_cast<std::size_t>(ed.head)];
    if (t >= 0 && h >= 0)
      out.add_edge(t, h, ed.w + (kind == 4 && e == bumped ? 1 : 0));
  }
  auto any_vertex = [&] {
    return 1 + static_cast<int>(rng.uniform(
                   static_cast<std::uint64_t>(out.num_vertices() - 1)));
  };
  if (kind == 1) {
    // A registered edge can never close a register-free cycle.
    out.add_edge(any_vertex(), any_vertex(), 1);
  } else if (kind == 2) {
    const int a = any_vertex();
    const int b = any_vertex();
    const int v = out.add_vertex(VertexKind::kFunctional, 4.0,
                                 tile::TileId::invalid());
    out.add_edge(a, v, 0);
    out.add_edge(v, b, 1);
  }
  return out;
}

// The ECO edits a re-plan sees (delay, edge, vertex and register changes),
// chained: after each, the rebuilt index's rows match the dense reference.
TEST(Wd, IncrementalMatchesComputeAcrossRandomEdits) {
  Rng rng(31);
  WdMatrices::Row row;
  for (int trial = 0; trial < 20; ++trial) {
    RetimingGraph g = test::random_retiming_graph(
        rng, 6 + static_cast<int>(rng.uniform(10)),
        static_cast<int>(rng.uniform(16)));
    for (int step = 0; step < 4; ++step) {
      g = random_edit(g, rng);
      SCOPED_TRACE("trial " + std::to_string(trial) + " step " +
                   std::to_string(step));
      expect_rows_match_reference(g, WdMatrices::compute(g), row);
      if (HasFatalFailure()) return;
    }
  }
}

// 12,000 disjoint rings of four 5 ps units, two registers on each back
// edge: 48,001 vertices with the host, more than a dense W/D could hold in
// a few GB.  The index stays linear in V+E, and at T = 10 ps the sweep
// finds, per ring, the 8 pairs whose path spans 3 or 4 units and keeps the
// 4 of 3 units (D = 15 ps, so D - min(d(u), d(v)) = 10 ps <= T).
TEST(Wd, IndexAndSweepStayLinearPastFortyThousandVertices) {
  RetimingGraph g;
  const auto t = tile::TileId::invalid();
  constexpr std::size_t kRings = 12000;
  for (std::size_t k = 0; k < kRings; ++k) {
    const int first = g.add_vertex(VertexKind::kFunctional, 5.0, t);
    int prev = first;
    for (int i = 1; i < 4; ++i) {
      const int v = g.add_vertex(VertexKind::kFunctional, 5.0, t);
      g.add_edge(prev, v, 0);
      prev = v;
    }
    g.add_edge(prev, first, 2);
  }
  ASSERT_GT(g.num_vertices(), 40000);
  const auto wd = WdMatrices::compute(g);
  EXPECT_LE(wd.bytes_used(),
            32 * (static_cast<std::int64_t>(g.num_vertices()) + g.num_edges()));
  EXPECT_DOUBLE_EQ(wd.t_init_ps(), 20.0);
  const ConstraintSet cs = build_constraints(
      g, wd, to_decips(10.0), {}, base::ExecPolicy{.threads = 4});
  EXPECT_EQ(cs.edge.size(), static_cast<std::size_t>(g.num_edges()));
  EXPECT_EQ(cs.clock_before_pruning, 8 * kRings);
  ASSERT_EQ(cs.clock.size(), 4 * kRings);
  // Within a ring the kept pairs run forward (W = 0, c = -1) or across
  // the back edge (W = 2, c = 1).
  for (const Constraint& c : cs.clock)
    EXPECT_EQ(c.c, c.u < c.v ? -1 : 1) << c.u << "->" << c.v;
}
}  // namespace
}  // namespace lac::retime
