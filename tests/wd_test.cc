#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "base/rng.h"
#include "retime/wd_matrices.h"
#include "tests/test_util.h"

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
  // v1=1, v2=2, v3=3, v4=4 (vertex 0 is host, unreachable).
  EXPECT_EQ(wd.w(1, 2), 1);
  EXPECT_EQ(wd.w(1, 4), 3);
  EXPECT_EQ(wd.w(4, 1), 0);
  EXPECT_EQ(wd.w(2, 1), 2);  // v2->v3->v4->v1: w = 1+1+0
  EXPECT_DOUBLE_EQ(wd.d_ps(4, 1), 10.0);  // v4(7)+v1(3), zero-weight path
  EXPECT_DOUBLE_EQ(wd.d_ps(1, 2), 6.0);   // v1+v2 along the single path
  EXPECT_DOUBLE_EQ(wd.d_ps(1, 1), 3.0);   // empty path: own delay
  EXPECT_DOUBLE_EQ(wd.t_init_ps(), 10.0);
  EXPECT_EQ(wd.w(0, 1), WdMatrices::kUnreachable);  // host is edge-less
}

TEST(Wd, MatchesFloydWarshallOnRandomGraphs) {
  Rng rng(99);
  for (int trial = 0; trial < 25; ++trial) {
    auto g = test::random_retiming_graph(rng, 4 + static_cast<int>(rng.uniform(8)),
                                         static_cast<int>(rng.uniform(14)));
    const auto wd = WdMatrices::compute(g);
    const auto ref = reference_wd(g);
    constexpr std::int64_t inf = std::numeric_limits<std::int64_t>::max() / 4;
    for (int u = 0; u < g.num_vertices(); ++u)
      for (int v = 0; v < g.num_vertices(); ++v) {
        if (ref.w[static_cast<std::size_t>(u)][static_cast<std::size_t>(v)] >= inf) {
          EXPECT_EQ(wd.w(u, v), WdMatrices::kUnreachable) << u << "->" << v;
          continue;
        }
        ASSERT_NE(wd.w(u, v), WdMatrices::kUnreachable) << u << "->" << v;
        EXPECT_EQ(wd.w(u, v),
                  ref.w[static_cast<std::size_t>(u)][static_cast<std::size_t>(v)])
            << u << "->" << v;
        EXPECT_EQ(wd.d_decips(u, v),
                  ref.s[static_cast<std::size_t>(u)][static_cast<std::size_t>(v)] +
                      g.delay_decips(v))
            << u << "->" << v;
      }
  }
}

TEST(Wd, TInitIsMaxZeroWeightD) {
  Rng rng(12);
  for (int trial = 0; trial < 10; ++trial) {
    auto g = test::random_retiming_graph(rng, 7, 9);
    const auto wd = WdMatrices::compute(g);
    std::int64_t expect = 0;
    for (int u = 0; u < g.num_vertices(); ++u)
      for (int v = 0; v < g.num_vertices(); ++v)
        if (wd.w(u, v) == 0) expect = std::max<std::int64_t>(expect, wd.d_decips(u, v));
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

// One random edit of `g`, as a rebuilt graph plus its new_to_old map:
// change a delay, add an edge, add a vertex, remove one, or add a register
// to an edge (kinds 0-4).
struct Edited {
  RetimingGraph g;
  std::vector<int> new_to_old;
};

Edited random_edit(const RetimingGraph& g, Rng& rng) {
  const int n = g.num_vertices();
  const int kind = static_cast<int>(rng.uniform(5));
  // A non-host vertex: the one whose delay changes, or the removed one.
  const int pick = 1 + static_cast<int>(rng.uniform(
                           static_cast<std::uint64_t>(n - 1)));
  Edited out;
  out.new_to_old.push_back(out.g.host());
  std::vector<int> old_to_new(static_cast<std::size_t>(n), -1);
  old_to_new[static_cast<std::size_t>(g.host())] = out.g.host();
  for (int v = 1; v < n; ++v) {
    if (kind == 3 && v == pick) continue;
    const double d = g.delay_ps(v) + (kind == 0 && v == pick ? 2.0 : 0.0);
    old_to_new[static_cast<std::size_t>(v)] =
        out.g.add_vertex(g.kind(v), d, g.tile(v));
    out.new_to_old.push_back(v);
  }
  const int bumped = static_cast<int>(
      rng.uniform(static_cast<std::uint64_t>(std::max(g.num_edges(), 1))));
  for (int e = 0; e < g.num_edges(); ++e) {
    const auto& ed = g.edge(e);
    const int t = old_to_new[static_cast<std::size_t>(ed.tail)];
    const int h = old_to_new[static_cast<std::size_t>(ed.head)];
    if (t >= 0 && h >= 0)
      out.g.add_edge(t, h, ed.w + (kind == 4 && e == bumped ? 1 : 0));
  }
  auto any_vertex = [&] {
    return 1 + static_cast<int>(rng.uniform(
                   static_cast<std::uint64_t>(out.g.num_vertices() - 1)));
  };
  if (kind == 1) {
    // A registered edge can never close a register-free cycle.
    out.g.add_edge(any_vertex(), any_vertex(), 1);
  } else if (kind == 2) {
    const int a = any_vertex();
    const int b = any_vertex();
    const int v = out.g.add_vertex(VertexKind::kFunctional, 4.0,
                                   tile::TileId::invalid());
    out.new_to_old.push_back(-1);
    out.g.add_edge(a, v, 0);
    out.g.add_edge(v, b, 1);
  }
  return out;
}

void expect_same_wd(const WdMatrices& got, const WdMatrices& want) {
  ASSERT_EQ(got.n(), want.n());
  EXPECT_EQ(got.t_init_ps(), want.t_init_ps());
  EXPECT_EQ(got.max_vertex_delay_decips(), want.max_vertex_delay_decips());
  EXPECT_EQ(got.bytes_used(), want.bytes_used());
  for (int u = 0; u < want.n(); ++u)
    for (int v = 0; v < want.n(); ++v) {
      ASSERT_EQ(got.w(u, v), want.w(u, v)) << u << "->" << v;
      ASSERT_EQ(got.d_decips(u, v), want.d_decips(u, v)) << u << "->" << v;
    }
}

TEST(Wd, IncrementalMatchesComputeAcrossRandomEdits) {
  Rng rng(31);
  const base::ExecPolicy exec{.threads = 4};
  for (int trial = 0; trial < 20; ++trial) {
    RetimingGraph g = test::random_retiming_graph(
        rng, 6 + static_cast<int>(rng.uniform(10)),
        static_cast<int>(rng.uniform(16)));
    WdMatrices wd = WdMatrices::compute(g);
    // A chain of edits, each replayed against the previous result.
    for (int step = 0; step < 4; ++step) {
      Edited next = random_edit(g, rng);
      std::int64_t rebuilt = -1;
      WdMatrices inc = WdMatrices::compute_incremental(
          next.g, exec, g, wd, next.new_to_old, &rebuilt);
      expect_same_wd(inc, WdMatrices::compute(next.g));
      EXPECT_GE(rebuilt, 0);
      EXPECT_LE(rebuilt, next.g.num_vertices());
      g = std::move(next.g);
      wd = std::move(inc);
    }
  }
}

TEST(Wd, EmptyPreviousRebuildsEveryRow) {
  Rng rng(5);
  const auto g = test::random_retiming_graph(rng, 12, 10);
  std::int64_t rebuilt = -1;
  const auto wd = WdMatrices::compute_incremental(
      g, base::ExecPolicy::sequential(), RetimingGraph(), WdMatrices(),
      std::vector<int>(static_cast<std::size_t>(g.num_vertices()), -1),
      &rebuilt);
  EXPECT_EQ(rebuilt, g.num_vertices());
  expect_same_wd(wd, WdMatrices::compute(g));
}

TEST(Wd, NonInjectiveMappingRejected) {
  const auto g = test::correlator_graph();
  const auto wd = WdMatrices::compute(g);
  std::vector<int> new_to_old{0, 1, 2, 3, 4};
  new_to_old[2] = 1;  // two vertices onto old vertex 1
  EXPECT_THROW((void)WdMatrices::compute_incremental(
                   g, base::ExecPolicy::sequential(), g, wd, new_to_old),
               CheckError);
}

}  // namespace
}  // namespace lac::retime
