#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <tuple>

#include "base/check.h"
#include "base/rng.h"
#include "graph/dag.h"
#include "graph/diff_constraints.h"
#include "graph/min_cost_flow.h"
#include "tests/test_util.h"

namespace lac::graph {
namespace {

// ---------------------------------------------------------------- topo/DAG

TEST(Dag, TopoOrderOfChain) {
  const auto order = topo_order(3, {{0, 1}, {1, 2}});
  ASSERT_TRUE(order.has_value());
  EXPECT_EQ(*order, (std::vector<int>{0, 1, 2}));
}

TEST(Dag, DetectsCycle) {
  EXPECT_FALSE(topo_order(3, {{0, 1}, {1, 2}, {2, 0}}).has_value());
  EXPECT_FALSE(topo_order(1, {{0, 0}}).has_value());
}

TEST(Dag, TopoOrderRespectsAllArcs) {
  const std::vector<std::pair<int, int>> arcs{{0, 2}, {1, 2}, {2, 3}, {1, 3}};
  const auto order = topo_order(4, arcs);
  ASSERT_TRUE(order.has_value());
  std::vector<int> pos(4);
  for (int i = 0; i < 4; ++i) pos[static_cast<std::size_t>((*order)[static_cast<std::size_t>(i)])] = i;
  for (const auto& [a, b] : arcs) EXPECT_LT(pos[static_cast<std::size_t>(a)], pos[static_cast<std::size_t>(b)]);
}

TEST(Dag, LongestPathVertexWeights) {
  // 0 -> 1 -> 3, 0 -> 2 -> 3 with delays 1, 5, 2, 1.
  const auto lp = longest_path_to(4, {{0, 1}, {1, 3}, {0, 2}, {2, 3}},
                                  {1.0, 5.0, 2.0, 1.0});
  EXPECT_DOUBLE_EQ(lp[0], 1.0);
  EXPECT_DOUBLE_EQ(lp[1], 6.0);
  EXPECT_DOUBLE_EQ(lp[2], 3.0);
  EXPECT_DOUBLE_EQ(lp[3], 7.0);
}

TEST(Dag, LongestPathIsolatedVertex) {
  const auto lp = longest_path_to(2, {}, {4.0, 2.0});
  EXPECT_DOUBLE_EQ(lp[0], 4.0);
  EXPECT_DOUBLE_EQ(lp[1], 2.0);
}

TEST(Dag, LongestPathThrowsOnCycle) {
  EXPECT_THROW(longest_path_to(2, {{0, 1}, {1, 0}}, {1.0, 1.0}),
               lac::CheckError);
}

// ------------------------------------------------------ difference systems

using Cons = test::Constraints;
using test::relax_count_reference;

std::optional<std::vector<std::int64_t>> solve(int n, const Cons& cons) {
  return solve_difference_constraints(n, [&](const auto& f) {
    for (const auto& [u, v, c] : cons) f(u, v, c);
  });
}

TEST(DiffConstraints, SimpleFeasible) {
  // x0 - x1 <= 3 and x1 - x0 <= -1, i.e. x0 >= x1 + 1.
  const auto sol = solve(2, {{0, 1, 3}, {1, 0, -1}});
  ASSERT_TRUE(sol.has_value());
  EXPECT_LE((*sol)[0] - (*sol)[1], 3);
  EXPECT_LE((*sol)[1] - (*sol)[0], -1);
}

TEST(DiffConstraints, InfeasibleCycle) {
  EXPECT_FALSE(solve(2, {{0, 1, -1}, {1, 0, -1}}).has_value());  // x0 < x1 < x0
}

TEST(DiffConstraints, EqualityViaTwoInequalities) {
  // x0 == x1 and x2 <= x0 - 5.
  const auto sol = solve(3, {{0, 1, 0}, {1, 0, 0}, {2, 0, -5}});
  ASSERT_TRUE(sol.has_value());
  EXPECT_EQ((*sol)[0], (*sol)[1]);
  EXPECT_LE((*sol)[2], (*sol)[0] - 5);
}

TEST(DiffConstraints, NoConstraintsTriviallyFeasible) {
  ASSERT_TRUE(solve(4, {}).has_value());
}

// Independent oracle: Floyd–Warshall over the relaxation arcs (v -> u,
// weight c); the system is infeasible iff some diagonal entry goes negative.
bool floyd_warshall_feasible(int n, const Cons& cons) {
  constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max() / 4;
  const auto N = static_cast<std::size_t>(n);
  std::vector<std::int64_t> d(N * N, kInf);
  for (std::size_t i = 0; i < N; ++i) d[i * N + i] = 0;
  for (const auto& [u, v, c] : cons) {
    auto& e = d[static_cast<std::size_t>(v) * N + static_cast<std::size_t>(u)];
    e = std::min(e, c);
  }
  for (std::size_t k = 0; k < N; ++k)
    for (std::size_t i = 0; i < N; ++i)
      for (std::size_t j = 0; j < N; ++j)
        if (d[i * N + k] < kInf && d[k * N + j] < kInf)
          d[i * N + j] = std::min(d[i * N + j], d[i * N + k] + d[k * N + j]);
  for (std::size_t i = 0; i < N; ++i)
    if (d[i * N + i] < 0) return false;
  return true;
}

// The reported negative cycle of an infeasible system is a certificate:
// its constraints chain (each one's v is the previous one's u, and the
// first's v the last's u) and their bounds sum below zero.
void expect_negative_cycle(const Cons& cons, const std::vector<int>& cycle,
                           const std::string& what) {
  ASSERT_FALSE(cycle.empty()) << what;
  std::int64_t weight = 0;
  for (std::size_t k = 0; k < cycle.size(); ++k) {
    ASSERT_GE(cycle[k], 0) << what;
    ASSERT_LT(static_cast<std::size_t>(cycle[k]), cons.size()) << what;
    const auto& [u, v, c] = cons[static_cast<std::size_t>(cycle[k])];
    const auto& prev = cons[static_cast<std::size_t>(
        cycle[(k + cycle.size() - 1) % cycle.size()])];
    EXPECT_EQ(v, std::get<0>(prev)) << what << " constraint " << k;
    weight += c;
  }
  EXPECT_LT(weight, 0) << what;
}

// Checks one system against both oracles: feasibility against
// Floyd–Warshall, the assignment against the constraints and against the
// reference solver (shortest-path distances are unique), and an infeasible
// system's reported cycle.
void expect_matches_oracles(int n, const Cons& cons, const std::string& what) {
  std::vector<int> cycle{-1};
  const auto sol = solve_difference_constraints(
      n,
      [&](const auto& f) {
        for (const auto& [u, v, c] : cons) f(u, v, c);
      },
      nullptr, &cycle);
  EXPECT_EQ(sol.has_value(), floyd_warshall_feasible(n, cons)) << what;
  if (sol) {
    EXPECT_TRUE(cycle.empty()) << what;
  } else {
    expect_negative_cycle(cons, cycle, what);
  }
  const auto ref = relax_count_reference(n, cons);
  EXPECT_EQ(sol.has_value(), ref.has_value()) << what;
  if (!sol || !ref) return;
  EXPECT_EQ(*sol, *ref) << what;
  for (const auto& [u, v, c] : cons)
    EXPECT_LE((*sol)[static_cast<std::size_t>(u)] -
                  (*sol)[static_cast<std::size_t>(v)],
              c)
        << what;
}

TEST(DiffConstraints, RandomisedAgainstSatisfactionCheck) {
  Rng rng(77);
  int infeasible = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const int n = 2 + static_cast<int>(rng.uniform(9));
    Cons cons;
    for (int k = 0; k < n * 2; ++k) {
      const int u = static_cast<int>(rng.uniform(static_cast<std::uint64_t>(n)));
      const int v = static_cast<int>(rng.uniform(static_cast<std::uint64_t>(n)));
      if (u == v) continue;
      cons.emplace_back(u, v, rng.uniform_int(-2, 4));
    }
    infeasible += floyd_warshall_feasible(n, cons) ? 0 : 1;
    expect_matches_oracles(n, cons, "trial " + std::to_string(trial));
  }
  // Both outcomes are exercised.
  EXPECT_GT(infeasible, 10);
  EXPECT_LT(infeasible, 190);
}

// Bellman–Ford from `source` over the arcs v -> u of weight c: distances,
// kNoPath where no path leads, nullopt if a negative cycle is reachable.
std::optional<std::vector<std::int64_t>> bellman_ford_from(int n, int source,
                                                           const Cons& cons) {
  std::vector<std::int64_t> dist(static_cast<std::size_t>(n), kNoPath);
  dist[static_cast<std::size_t>(source)] = 0;
  for (int pass = 0; pass <= n; ++pass) {
    bool changed = false;
    for (const auto& [u, v, c] : cons) {
      const auto du = static_cast<std::size_t>(u);
      const auto dv = static_cast<std::size_t>(v);
      if (dist[dv] == kNoPath || dist[dv] + c >= dist[du]) continue;
      dist[du] = dist[dv] + c;
      changed = true;
    }
    if (!changed) return dist;
  }
  return std::nullopt;
}

TEST(DiffConstraints, ShortestPathsFromSourceMatchBellmanFord) {
  Rng rng(4242);
  int infeasible = 0;
  int unreachable = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const int n = 2 + static_cast<int>(rng.uniform(10));
    Cons cons;
    for (int k = 0; k < n + static_cast<int>(rng.uniform(
                                 static_cast<std::uint64_t>(n)));
         ++k) {
      const int u = static_cast<int>(rng.uniform(static_cast<std::uint64_t>(n)));
      const int v = static_cast<int>(rng.uniform(static_cast<std::uint64_t>(n)));
      if (u != v) cons.emplace_back(u, v, rng.uniform_int(-2, 5));
    }
    const int source =
        static_cast<int>(rng.uniform(static_cast<std::uint64_t>(n)));
    const auto want = bellman_ford_from(n, source, cons);
    const auto got = shortest_paths_from(n, source, [&](const auto& f) {
      for (const auto& [u, v, c] : cons) f(u, v, c);
    });
    EXPECT_EQ(got, want) << "trial " << trial;
    if (!want) {
      ++infeasible;
    } else {
      unreachable += static_cast<int>(
          std::count(want->begin(), want->end(), kNoPath));
    }
  }
  // Reachable negative cycles, unreachable vertices and (implicitly)
  // unreachable cycles next to feasible answers are all exercised.
  EXPECT_GT(infeasible, 10);
  EXPECT_GT(unreachable, 10);
  EXPECT_LT(infeasible, 290);
}

// A negative cycle the source does not reach leaves its answer alone.
TEST(DiffConstraints, ShortestPathsFromIgnoreUnreachableCycles) {
  // 0 -> 1 of weight 3 (x1 - x0 <= 3); 2 <-> 3 weighs -1 around.
  const Cons cons{{1, 0, 3}, {3, 2, 1}, {2, 3, -2}};
  const auto from0 = shortest_paths_from(4, 0, [&](const auto& f) {
    for (const auto& [u, v, c] : cons) f(u, v, c);
  });
  ASSERT_TRUE(from0.has_value());
  EXPECT_EQ(*from0, (std::vector<std::int64_t>{0, 3, kNoPath, kNoPath}));
  EXPECT_FALSE(shortest_paths_from(4, 2, [&](const auto& f) {
                 for (const auto& [u, v, c] : cons) f(u, v, c);
               }).has_value());
}

TEST(DiffConstraints, PlantedNegativeCyclesAreFound) {
  Rng rng(2024);
  for (int trial = 0; trial < 100; ++trial) {
    const int n = 3 + static_cast<int>(rng.uniform(10));
    // A feasible background: x[u] - x[v] <= c with c >= 0 only.
    Cons cons;
    for (int k = 0; k < n * 3; ++k) {
      const int u = static_cast<int>(rng.uniform(static_cast<std::uint64_t>(n)));
      const int v = static_cast<int>(rng.uniform(static_cast<std::uint64_t>(n)));
      if (u != v) cons.emplace_back(u, v, rng.uniform_int(0, 5));
    }
    // Planted cycle over k distinct vertices with total weight -1..-3;
    // its arcs are spread through the list.
    std::vector<int> perm(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) perm[static_cast<std::size_t>(i)] = i;
    for (int i = n - 1; i > 0; --i)
      std::swap(perm[static_cast<std::size_t>(i)],
                perm[rng.uniform(static_cast<std::uint64_t>(i + 1))]);
    const int k = 1 + static_cast<int>(rng.uniform(static_cast<std::uint64_t>(n)));
    std::int64_t remaining = -rng.uniform_int(1, 3);
    for (int i = 0; i < k; ++i) {
      const int u = perm[static_cast<std::size_t>(i)];
      const int v = perm[static_cast<std::size_t>((i + 1) % k)];
      const std::int64_t c = i + 1 == k ? remaining : rng.uniform_int(-4, 4);
      remaining -= c;
      const auto at = rng.uniform(cons.size() + 1);
      cons.insert(cons.begin() + static_cast<std::ptrdiff_t>(at), {u, v, c});
    }
    ASSERT_FALSE(floyd_warshall_feasible(n, cons));
    EXPECT_FALSE(solve(n, cons).has_value()) << "trial " << trial;
    expect_matches_oracles(n, cons, "trial " + std::to_string(trial));
  }
}

TEST(DiffConstraints, SelfLoopDecidesOnItsSign) {
  EXPECT_FALSE(solve(3, {{1, 1, -1}}).has_value());
  EXPECT_TRUE(solve(3, {{1, 1, 0}, {2, 0, -4}}).has_value());
}

// Long zero-weight chains make parent walks deep: the n-vertex chain
// x[i+1] <= x[i] has distances 0..-(n-1) only through a closing -1 arc, and
// closing it back into a cycle is infeasible exactly when the cycle is
// negative.
TEST(DiffConstraints, LongZeroWeightChains) {
  for (const int n : {2, 50, 400}) {
    Cons chain;
    for (int i = 0; i + 1 < n; ++i) chain.emplace_back(i + 1, i, 0);
    chain.emplace_back(0, n - 1, 0);  // a zero-weight cycle: feasible
    expect_matches_oracles(n, chain, "zero cycle n=" + std::to_string(n));
    Cons tilted = chain;
    tilted.back() = {0, n - 1, -1};  // one negative arc closes it
    std::int64_t relaxed = 0;
    EXPECT_FALSE(solve_difference_constraints(
                     n,
                     [&](const auto& f) {
                       for (const auto& [u, v, c] : tilted) f(u, v, c);
                     },
                     &relaxed)
                     .has_value())
        << "n=" << n;
    EXPECT_FALSE(relax_count_reference(n, tilted).has_value());
    // Refuted by a parent-graph walk once the decrease has gone round the
    // cycle, long before any vertex reaches the relax-count bound.
    EXPECT_LE(relaxed, 2 * n) << "n=" << n;
    // Each chain arc decreasing by one: deep feasible tree.
    Cons descending;
    for (int i = 0; i + 1 < n; ++i) descending.emplace_back(i + 1, i, -1);
    expect_matches_oracles(n, descending, "descending n=" + std::to_string(n));
    const auto sol = solve(n, descending);
    ASSERT_TRUE(sol.has_value());
    EXPECT_EQ(sol->back(), -(n - 1));
  }
}

// The answer does not depend on whether relaxations are counted, and
// matches the relax-count reference solver.
TEST(DiffConstraints, ArcCallbackMatchesStoredSystem) {
  Rng rng(9);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = 2 + static_cast<int>(rng.uniform(20));
    Cons cons;
    for (int k = 0; k < n * 3; ++k)
      cons.emplace_back(
          static_cast<int>(rng.uniform(static_cast<std::uint64_t>(n))),
          static_cast<int>(rng.uniform(static_cast<std::uint64_t>(n))),
          rng.uniform_int(-1, 6));
    auto for_each_arc = [&](const auto& f) {
      for (const auto& [u, v, c] : cons) f(u, v, c);
    };
    std::int64_t relaxations = 0;
    const auto callback =
        solve_difference_constraints(n, for_each_arc, &relaxations);
    EXPECT_EQ(solve(n, cons), callback);
    EXPECT_EQ(relax_count_reference(n, cons), callback);
    // The count depends on the system alone, and accumulates.
    std::int64_t again = relaxations;
    (void)solve_difference_constraints(n, for_each_arc, &again);
    EXPECT_EQ(again, 2 * relaxations);
  }
}

TEST(DiffConstraints, RejectsOutOfRangeArcs) {
  EXPECT_THROW((void)solve_difference_constraints(
                   2, [](const auto& f) { f(0, 2, 1); }),
               lac::CheckError);
}

// ----------------------------------------------------------- min-cost flow

TEST(MinCostFlow, SingleArcShipment) {
  MinCostFlow mcf(2);
  mcf.add_arc(0, 1, 10, 3);
  mcf.set_supply(0, 4);
  mcf.set_supply(1, -4);
  const auto sol = mcf.solve();
  ASSERT_TRUE(sol.has_value());
  EXPECT_DOUBLE_EQ(sol->total_cost, 12.0);
  EXPECT_EQ(sol->flow[0], 4);
}

TEST(MinCostFlow, PrefersCheaperPath) {
  MinCostFlow mcf(3);
  const int direct = mcf.add_arc(0, 2, 10, 10);
  const int via_a = mcf.add_arc(0, 1, 10, 2);
  const int via_b = mcf.add_arc(1, 2, 10, 3);
  mcf.set_supply(0, 5);
  mcf.set_supply(2, -5);
  const auto sol = mcf.solve();
  ASSERT_TRUE(sol.has_value());
  EXPECT_DOUBLE_EQ(sol->total_cost, 25.0);
  EXPECT_EQ(sol->flow[static_cast<std::size_t>(direct)], 0);
  EXPECT_EQ(sol->flow[static_cast<std::size_t>(via_a)], 5);
  EXPECT_EQ(sol->flow[static_cast<std::size_t>(via_b)], 5);
}

TEST(MinCostFlow, CapacitySplitsFlow) {
  MinCostFlow mcf(3);
  const int cheap = mcf.add_arc(0, 2, 3, 1);
  const int mid = mcf.add_arc(0, 1, 10, 2);
  const int rest = mcf.add_arc(1, 2, 10, 2);
  mcf.set_supply(0, 5);
  mcf.set_supply(2, -5);
  const auto sol = mcf.solve();
  ASSERT_TRUE(sol.has_value());
  EXPECT_EQ(sol->flow[static_cast<std::size_t>(cheap)], 3);
  EXPECT_EQ(sol->flow[static_cast<std::size_t>(mid)], 2);
  EXPECT_EQ(sol->flow[static_cast<std::size_t>(rest)], 2);
  EXPECT_DOUBLE_EQ(sol->total_cost, 3.0 + 8.0);
}

TEST(MinCostFlow, InfeasibleWhenDisconnected) {
  MinCostFlow mcf(2);
  mcf.set_supply(0, 1);
  mcf.set_supply(1, -1);
  EXPECT_FALSE(mcf.solve().has_value());
}

TEST(MinCostFlow, UnboundedNegativeCycle) {
  MinCostFlow mcf(2);
  mcf.add_arc(0, 1, MinCostFlow::kInfCap, -2);
  mcf.add_arc(1, 0, MinCostFlow::kInfCap, 1);
  EXPECT_FALSE(mcf.solve().has_value());
}

TEST(MinCostFlow, NegativeCostsHandled) {
  MinCostFlow mcf(3);
  mcf.add_arc(0, 1, 5, -4);
  mcf.add_arc(1, 2, 5, 1);
  mcf.set_supply(0, 2);
  mcf.set_supply(2, -2);
  const auto sol = mcf.solve();
  ASSERT_TRUE(sol.has_value());
  EXPECT_DOUBLE_EQ(sol->total_cost, -6.0);
}

TEST(MinCostFlow, SuppliesMustBalance) {
  MinCostFlow mcf(2);
  mcf.set_supply(0, 1);
  EXPECT_THROW(mcf.solve(), lac::CheckError);
}

TEST(MinCostFlow, ZeroSupplyIsFreeAndEmpty) {
  MinCostFlow mcf(3);
  mcf.add_arc(0, 1, 4, 7);
  const auto sol = mcf.solve();
  ASSERT_TRUE(sol.has_value());
  EXPECT_DOUBLE_EQ(sol->total_cost, 0.0);
  EXPECT_EQ(sol->flow[0], 0);
}

TEST(MinCostFlow, PotentialsSatisfyReducedCostOptimality) {
  Rng rng(31);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = 3 + static_cast<int>(rng.uniform(5));
    MinCostFlow mcf(n);
    struct ArcRec { int u, v; std::int64_t cap, cost; int idx; };
    std::vector<ArcRec> arcs;
    for (int k = 0; k < 3 * n; ++k) {
      const int u = static_cast<int>(rng.uniform(static_cast<std::uint64_t>(n)));
      const int v = static_cast<int>(rng.uniform(static_cast<std::uint64_t>(n)));
      if (u == v) continue;
      const std::int64_t cap = 1 + static_cast<std::int64_t>(rng.uniform(9));
      const std::int64_t cost = rng.uniform_int(0, 9);
      arcs.push_back({u, v, cap, cost, mcf.add_arc(u, v, cap, cost)});
    }
    // Host-style connectivity so every instance is feasible.
    for (int v = 1; v < n; ++v) {
      arcs.push_back({v, 0, MinCostFlow::kInfCap, 50,
                      mcf.add_arc(v, 0, MinCostFlow::kInfCap, 50)});
      arcs.push_back({0, v, MinCostFlow::kInfCap, 50,
                      mcf.add_arc(0, v, MinCostFlow::kInfCap, 50)});
    }
    std::vector<std::int64_t> supply(static_cast<std::size_t>(n), 0);
    std::int64_t total = 0;
    for (int v = 1; v < n; ++v) {
      supply[static_cast<std::size_t>(v)] = rng.uniform_int(-5, 5);
      mcf.set_supply(v, supply[static_cast<std::size_t>(v)]);
      total += supply[static_cast<std::size_t>(v)];
    }
    supply[0] = -total;
    mcf.set_supply(0, -total);
    const auto sol = mcf.solve();
    ASSERT_TRUE(sol.has_value());
    // Complementary slackness against the optimum's potentials (the
    // residual distances from the host, which reaches every node): forward
    // arc with residual capacity has nonnegative reduced cost; arc with
    // positive flow has nonpositive.
    const auto pi = mcf.residual_distances_from(0);
    for (const auto& a : arcs) {
      const std::int64_t rc = a.cost + pi[static_cast<std::size_t>(a.u)] -
                              pi[static_cast<std::size_t>(a.v)];
      const std::int64_t f = sol->flow[static_cast<std::size_t>(a.idx)];
      if (f < a.cap) {
        EXPECT_GE(rc, 0) << "arc " << a.u << "->" << a.v;
      }
      if (f > 0) {
        EXPECT_LE(rc, 0) << "arc " << a.u << "->" << a.v;
      }
    }
    // Conservation: outflow - inflow equals the node supply everywhere.
    std::vector<std::int64_t> net(static_cast<std::size_t>(n), 0);
    for (const auto& a : arcs) {
      net[static_cast<std::size_t>(a.u)] += sol->flow[static_cast<std::size_t>(a.idx)];
      net[static_cast<std::size_t>(a.v)] -= sol->flow[static_cast<std::size_t>(a.idx)];
    }
    for (int v = 0; v < n; ++v)
      EXPECT_EQ(net[static_cast<std::size_t>(v)],
                supply[static_cast<std::size_t>(v)])
          << "node " << v;
  }
}

// Regression: solve() used to consume residual capacities without
// restoring them, so a second solve() on the same instance saw a
// saturated network and returned garbage (or infeasible).  A second
// solve() now warm-starts from the retained optimum, and must return the
// same solution as the first — and as a fresh instance of the network.
TEST(MinCostFlow, SolveTwiceReturnsIdenticalSolution) {
  MinCostFlow mcf(3);
  mcf.add_arc(0, 2, 3, 1);
  mcf.add_arc(0, 1, 10, 2);
  mcf.add_arc(1, 2, 10, 2);
  mcf.set_supply(0, 5);
  mcf.set_supply(2, -5);
  const auto first = mcf.solve();
  ASSERT_TRUE(first.has_value());
  const auto first_pi = mcf.residual_distances_from(0);
  const auto second = mcf.solve();
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(mcf.stats().warm);
  EXPECT_EQ(first->total_cost_exact, second->total_cost_exact);
  EXPECT_EQ(first->flow, second->flow);
  EXPECT_EQ(first_pi, mcf.residual_distances_from(0));

  MinCostFlow fresh(3);
  fresh.add_arc(0, 2, 3, 1);
  fresh.add_arc(0, 1, 10, 2);
  fresh.add_arc(1, 2, 10, 2);
  fresh.set_supply(0, 5);
  fresh.set_supply(2, -5);
  const auto cold = fresh.solve();
  ASSERT_TRUE(cold.has_value());
  EXPECT_FALSE(fresh.stats().warm);
  EXPECT_EQ(cold->total_cost_exact, second->total_cost_exact);
  EXPECT_EQ(cold->flow, second->flow);
}

TEST(MinCostFlow, ExactCostIsIntegerAndMatchesDouble) {
  MinCostFlow mcf(2);
  mcf.add_arc(0, 1, 10, 3);
  mcf.set_supply(0, 4);
  mcf.set_supply(1, -4);
  const auto sol = mcf.solve();
  ASSERT_TRUE(sol.has_value());
  EXPECT_EQ(sol->total_cost_exact, 12);
  EXPECT_DOUBLE_EQ(sol->total_cost,
                   static_cast<double>(sol->total_cost_exact));
}

namespace {

// One host-connected random instance materialised into any number of
// MinCostFlow objects, so a warm trajectory can be compared against a
// cold solve of the same final state.
struct RandomInstance {
  struct ArcRec { int u, v; std::int64_t cap, cost; };
  int n = 0;
  std::vector<ArcRec> arcs;
  std::vector<std::int64_t> supply;

  static RandomInstance make(Rng& rng) {
    RandomInstance ins;
    ins.n = 3 + static_cast<int>(rng.uniform(5));
    for (int k = 0; k < 3 * ins.n; ++k) {
      const int u = static_cast<int>(rng.uniform(static_cast<std::uint64_t>(ins.n)));
      const int v = static_cast<int>(rng.uniform(static_cast<std::uint64_t>(ins.n)));
      if (u == v) continue;
      ins.arcs.push_back({u, v, 1 + static_cast<std::int64_t>(rng.uniform(9)),
                          rng.uniform_int(0, 9)});
    }
    for (int v = 1; v < ins.n; ++v) {
      ins.arcs.push_back({v, 0, MinCostFlow::kInfCap, 50});
      ins.arcs.push_back({0, v, MinCostFlow::kInfCap, 50});
    }
    ins.supply.assign(static_cast<std::size_t>(ins.n), 0);
    ins.randomize_supplies(rng);
    return ins;
  }

  void randomize_supplies(Rng& rng) {
    std::int64_t total = 0;
    for (int v = 1; v < n; ++v) {
      supply[static_cast<std::size_t>(v)] = rng.uniform_int(-5, 5);
      total += supply[static_cast<std::size_t>(v)];
    }
    supply[0] = -total;
  }

  [[nodiscard]] MinCostFlow build() const {
    MinCostFlow mcf(n);
    for (const ArcRec& a : arcs) mcf.add_arc(a.u, a.v, a.cap, a.cost);
    for (int v = 0; v < n; ++v)
      mcf.set_supply(v, supply[static_cast<std::size_t>(v)]);
    return mcf;
  }

  // Optimality certificate for `sol`, the last solve() of `mcf`, on this
  // instance: conservation plus complementary slackness against the
  // optimum's potentials (the residual distances from the host, which
  // reaches every node).
  void check_optimal(const MinCostFlow& mcf,
                     const MinCostFlow::Solution& sol) const {
    const auto pi = mcf.residual_distances_from(0);
    std::vector<std::int64_t> net(static_cast<std::size_t>(n), 0);
    for (std::size_t i = 0; i < arcs.size(); ++i) {
      const ArcRec& a = arcs[i];
      const std::int64_t f = sol.flow[i];
      ASSERT_GE(f, 0);
      ASSERT_LE(f, a.cap);
      net[static_cast<std::size_t>(a.u)] += f;
      net[static_cast<std::size_t>(a.v)] -= f;
      const std::int64_t rc = a.cost + pi[static_cast<std::size_t>(a.u)] -
                              pi[static_cast<std::size_t>(a.v)];
      if (f < a.cap) {
        EXPECT_GE(rc, 0) << "arc " << a.u << "->" << a.v;
      }
      if (f > 0) {
        EXPECT_LE(rc, 0) << "arc " << a.u << "->" << a.v;
      }
    }
    for (int v = 0; v < n; ++v)
      EXPECT_EQ(net[static_cast<std::size_t>(v)],
                supply[static_cast<std::size_t>(v)]) << "node " << v;
  }
};

}  // namespace

// A warm solve() after supply changes must land on an exact optimum of
// the new instance — same objective as a cold solve, with a full
// optimality certificate — across many random instances and several
// consecutive supply updates per instance.
TEST(MinCostFlow, ResolveAfterSupplyChangesMatchesColdSolve) {
  Rng rng(101);
  for (int trial = 0; trial < 30; ++trial) {
    RandomInstance ins = RandomInstance::make(rng);
    MinCostFlow warm = ins.build();
    ASSERT_TRUE(warm.solve().has_value());
    for (int round = 0; round < 4; ++round) {
      ins.randomize_supplies(rng);
      for (int v = 0; v < ins.n; ++v)
        warm.set_supply(v, ins.supply[static_cast<std::size_t>(v)]);
      const auto ws = warm.solve();
      ASSERT_TRUE(ws.has_value());
      EXPECT_TRUE(warm.stats().warm);

      MinCostFlow cold = ins.build();
      const auto cs = cold.solve();
      ASSERT_TRUE(cs.has_value());
      EXPECT_EQ(ws->total_cost_exact, cs->total_cost_exact)
          << "trial " << trial << " round " << round;
      ins.check_optimal(warm, *ws);
    }
  }
}

// residual_distances_from returns shortest distances over the optimal
// residual network: 0 at the root, and every residual arc relaxed.
TEST(MinCostFlow, ResidualDistancesAreShortest) {
  Rng rng(303);
  for (int trial = 0; trial < 20; ++trial) {
    const RandomInstance ins = RandomInstance::make(rng);
    MinCostFlow mcf = ins.build();
    const auto sol = mcf.solve();
    ASSERT_TRUE(sol.has_value());
    const auto d = mcf.residual_distances_from(0);
    ASSERT_EQ(static_cast<int>(d.size()), ins.n);
    EXPECT_EQ(d[0], 0);
    for (std::size_t i = 0; i < ins.arcs.size(); ++i) {
      const auto& a = ins.arcs[i];
      const auto du = d[static_cast<std::size_t>(a.u)];
      const auto dv = d[static_cast<std::size_t>(a.v)];
      // Forward residual arc exists iff flow < cap; backward iff flow > 0.
      if (sol->flow[i] < a.cap && du != MinCostFlow::kUnreachable) {
        EXPECT_LE(dv, du + a.cost);
      }
      if (sol->flow[i] > 0 && dv != MinCostFlow::kUnreachable) {
        EXPECT_LE(du, dv - a.cost);
      }
    }
  }
}

}  // namespace
}  // namespace lac::graph
