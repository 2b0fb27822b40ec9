// Stress/property tests for the primal-dual phase structure of
// graph::MinCostFlow (see the kernel comment in min_cost_flow.h):
//   * every residual arc pushed by a phase sits at exactly zero reduced
//     cost after that phase's potential lift — the invariant that makes
//     shipping over the admissible network sound;
//   * each phase ships a *maximum* flow over the admissible network: after
//     it, no zero-reduced-cost residual path links an excess node to a
//     deficit node, so sinks sharing a drained shortest-path-tree root do
//     not wait for another Dijkstra;
//   * the phase/augmentation counters are consistent (each phase that runs
//     ships at least one augmentation, so augmentations >= phases) and
//     fully deterministic: identical instances produce identical counters
//     on every solve, independent of anything environmental (the kernel is
//     single-threaded by design, which is what keeps retimings
//     bit-identical across planner thread counts);
//   * the searches are iterative: a path instance 100k nodes long solves
//     on a thread with a small stack.
#include <gtest/gtest.h>

#include <pthread.h>

#include <cstdint>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "base/rng.h"
#include "graph/min_cost_flow.h"

namespace lac::graph {
namespace {

struct RandomInstance {
  struct Arc {
    int u = 0, v = 0;
    std::int64_t cap = 0, cost = 0;
  };
  int n = 0;
  std::vector<Arc> arcs;
  std::vector<std::int64_t> supply;

  static RandomInstance make(Rng& rng) {
    RandomInstance ins;
    ins.n = 4 + static_cast<int>(rng.uniform(16));
    for (int k = 0; k < 3 * ins.n; ++k) {
      const int u =
          static_cast<int>(rng.uniform(static_cast<std::uint64_t>(ins.n)));
      const int v =
          static_cast<int>(rng.uniform(static_cast<std::uint64_t>(ins.n)));
      if (u == v) continue;
      const bool inf_cap = rng.uniform(6) == 0;
      ins.arcs.push_back(
          {u, v,
           inf_cap ? MinCostFlow::kInfCap
                   : 1 + static_cast<std::int64_t>(rng.uniform(9)),
           rng.uniform_int(-3, 9)});
    }
    // Host connectivity keeps every instance feasible.
    for (int v = 1; v < ins.n; ++v) {
      ins.arcs.push_back({v, 0, MinCostFlow::kInfCap, 60});
      ins.arcs.push_back({0, v, MinCostFlow::kInfCap, 60});
    }
    ins.supply.assign(static_cast<std::size_t>(ins.n), 0);
    std::int64_t total = 0;
    for (int v = 1; v < ins.n; ++v) {
      ins.supply[static_cast<std::size_t>(v)] = rng.uniform_int(-8, 8);
      total += ins.supply[static_cast<std::size_t>(v)];
    }
    ins.supply[0] = -total;
    return ins;
  }

  // Endpoints and cost of residual arc `a` (forward arcs even, backward
  // odd, as in MinCostFlow).
  [[nodiscard]] int res_from(int a) const {
    const Arc& arc = arcs[static_cast<std::size_t>(a / 2)];
    return a % 2 == 0 ? arc.u : arc.v;
  }
  [[nodiscard]] int res_to(int a) const {
    const Arc& arc = arcs[static_cast<std::size_t>(a / 2)];
    return a % 2 == 0 ? arc.v : arc.u;
  }
  [[nodiscard]] std::int64_t res_cost(int a) const {
    const Arc& arc = arcs[static_cast<std::size_t>(a / 2)];
    return a % 2 == 0 ? arc.cost : -arc.cost;
  }

  [[nodiscard]] MinCostFlow build() const {
    MinCostFlow mcf(n);
    for (const Arc& a : arcs) mcf.add_arc(a.u, a.v, a.cap, a.cost);
    for (int v = 0; v < n; ++v)
      mcf.set_supply(v, supply[static_cast<std::size_t>(v)]);
    return mcf;
  }
};

// Every arc pushed by a phase has zero reduced cost measured after that
// phase's potential lift, on cold solves and on warm solves after
// supply edits.  The kernel's own record is checked, and the reduced cost
// is recomputed here from the instance and the audited potentials.
TEST(McfPhases, PushedArcsHaveZeroReducedCostPostUpdate) {
  Rng rng(42);
  long long arcs_audited = 0;
  for (int trial = 0; trial < 60; ++trial) {
    RandomInstance ins = RandomInstance::make(rng);
    MinCostFlow mcf = ins.build();
    int phases_seen = 0;
    mcf.set_phase_audit([&](const MinCostFlow::PhaseAudit& audit) {
      EXPECT_EQ(audit.phase, phases_seen + 1) << "phases must arrive in order";
      phases_seen = audit.phase;
      EXPECT_FALSE(audit.pushes.empty()) << "a phase must ship something";
      for (const auto& p : audit.pushes) {
        EXPECT_EQ(p.reduced_cost_after, 0)
            << "trial " << trial << " phase " << audit.phase << " arc "
            << p.arc;
        EXPECT_EQ(ins.res_cost(p.arc) +
                      audit.potential[static_cast<std::size_t>(
                          ins.res_from(p.arc))] -
                      audit.potential[static_cast<std::size_t>(
                          ins.res_to(p.arc))],
                  p.reduced_cost_after);
        ++arcs_audited;
      }
    });
    if (!mcf.solve()) continue;  // negative cycle at zero flow
    EXPECT_EQ(mcf.stats().phases, phases_seen);

    // Warm rounds keep the invariant too.
    for (int round = 0; round < 2; ++round) {
      phases_seen = 0;
      const std::int64_t delta = 1 + static_cast<std::int64_t>(rng.uniform(4));
      mcf.add_supply(0, delta);
      mcf.add_supply(ins.n - 1, -delta);
      ASSERT_TRUE(mcf.solve().has_value());
      EXPECT_EQ(mcf.stats().phases, phases_seen);
    }
  }
  EXPECT_GT(arcs_audited, 100) << "audit never engaged; property is vacuous";
}

// Maximality: after every phase, no residual path of zero-reduced-cost
// arcs (recomputed here from the audited potentials and capacities) links
// a node with excess left to a node with demand left.  Checked by a BFS
// independent of the kernel's own level graph, cold and warm.
TEST(McfPhases, EachPhaseExhaustsTheAdmissibleNetwork) {
  Rng rng(1234);
  int phases_checked = 0;
  int phases_with_work_left = 0;
  for (int trial = 0; trial < 60; ++trial) {
    RandomInstance ins = RandomInstance::make(rng);
    MinCostFlow mcf = ins.build();
    mcf.set_phase_audit([&](const MinCostFlow::PhaseAudit& audit) {
      ++phases_checked;
      const auto& ex = audit.excess;
      std::vector<char> seen(static_cast<std::size_t>(ins.n), 0);
      std::vector<int> queue;
      for (int v = 0; v < ins.n; ++v) {
        if (ex[static_cast<std::size_t>(v)] <= 0) continue;
        seen[static_cast<std::size_t>(v)] = 1;
        queue.push_back(v);
      }
      if (!queue.empty()) ++phases_with_work_left;
      for (std::size_t head = 0; head < queue.size(); ++head) {
        const int u = queue[head];
        EXPECT_GE(ex[static_cast<std::size_t>(u)], 0)
            << "trial " << trial << " phase " << audit.phase
            << ": deficit node " << u
            << " reachable over zero-reduced-cost arcs";
        for (int a = 0; a < 2 * static_cast<int>(ins.arcs.size()); ++a) {
          if (ins.res_from(a) != u) continue;
          if (audit.residual_cap[static_cast<std::size_t>(a)] <= 0) continue;
          const int v = ins.res_to(a);
          if (ins.res_cost(a) + audit.potential[static_cast<std::size_t>(u)] -
                  audit.potential[static_cast<std::size_t>(v)] !=
              0)
            continue;
          if (seen[static_cast<std::size_t>(v)]) continue;
          seen[static_cast<std::size_t>(v)] = 1;
          queue.push_back(v);
        }
      }
    });
    if (!mcf.solve()) continue;
    for (int round = 0; round < 2; ++round) {
      const std::int64_t delta = 1 + static_cast<std::int64_t>(rng.uniform(6));
      mcf.add_supply(1, delta);
      mcf.add_supply(0, -delta);
      ASSERT_TRUE(mcf.solve().has_value());
    }
  }
  EXPECT_GT(phases_checked, 100);
  // Phases that end with excess still outstanding are the ones where
  // maximality says something; make sure the fuzz produces them.
  EXPECT_GT(phases_with_work_left, 20);
}

// k sinks that all hang off one shortest-path-tree root: source a_i has
// one unit and arcs to sinks t_i..t_{k-1}, all of equal cost, so the first
// Dijkstra's tree routes every sink through a_0.  A drain along that tree
// serves t_0 and then finds a_0 empty; the other sinks waited for one more
// Dijkstra each (k phases in all).  The admissible network holds the
// matching a_i → t_i, so one phase ships everything.
TEST(McfPhases, SinksSharingADrainedTreeRootNeedOnePhase) {
  constexpr int kSinks = 8;
  MinCostFlow mcf(2 * kSinks);
  for (int i = 0; i < kSinks; ++i)
    for (int j = i; j < kSinks; ++j) mcf.add_arc(i, kSinks + j, 1, 3);
  for (int i = 0; i < kSinks; ++i) {
    mcf.set_supply(i, 1);
    mcf.set_supply(kSinks + i, -1);
  }
  const auto sol = mcf.solve();
  ASSERT_TRUE(sol.has_value());
  EXPECT_EQ(sol->total_cost_exact, 3 * kSinks);
  EXPECT_EQ(mcf.stats().phases, 1);
  EXPECT_EQ(mcf.stats().augmentations, kSinks);
  EXPECT_EQ(mcf.stats().flow_shipped, kSinks);
}

// Counter consistency: every phase ships at least one augmentation (so
// augmentations >= phases), a solve that ships nothing runs zero phases,
// and a warm solve of an unchanged instance runs zero of both.
TEST(McfPhases, AugmentationAndPhaseCountersAreConsistent) {
  Rng rng(4711);
  int multi_aug_phases = 0;
  for (int trial = 0; trial < 60; ++trial) {
    RandomInstance ins = RandomInstance::make(rng);
    MinCostFlow mcf = ins.build();
    const auto sol = mcf.solve();
    if (!sol) continue;
    const auto& st = mcf.stats();
    EXPECT_GE(st.augmentations, st.phases);
    if (st.flow_shipped > 0) {
      EXPECT_GT(st.phases, 0);
    } else {
      EXPECT_EQ(st.phases, 0);
      EXPECT_EQ(st.augmentations, 0);
    }
    if (st.augmentations > st.phases) ++multi_aug_phases;

    // No-op warm solve: nothing to ship, no phases run.
    ASSERT_TRUE(mcf.solve().has_value());
    EXPECT_EQ(mcf.stats().phases, 0);
    EXPECT_EQ(mcf.stats().augmentations, 0);
    EXPECT_TRUE(mcf.stats().warm);
  }
  // Phases must actually ship several paths somewhere in the fuzz,
  // otherwise the kernel degenerated to single-path SSP.
  EXPECT_GT(multi_aug_phases, 5);
}

// Determinism: the same instance produces bit-identical solver-effort
// counters on every solve — across separate instances, repeated solves,
// and identical warm trajectories.  (The kernel is single-threaded; this
// is the instance-level half of the cross-thread-count determinism
// guarantee checked end to end by determinism_test.)
TEST(McfPhases, CountersAreDeterministic) {
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    RandomInstance ins = RandomInstance::make(rng);
    MinCostFlow a = ins.build();
    MinCostFlow b = ins.build();
    const auto sa = a.solve();
    const auto sb = b.solve();
    ASSERT_EQ(sa.has_value(), sb.has_value());
    if (!sa) continue;

    const auto expect_same_stats = [&](const MinCostFlow& x,
                                       const MinCostFlow& y) {
      EXPECT_EQ(x.stats().phases, y.stats().phases);
      EXPECT_EQ(x.stats().augmentations, y.stats().augmentations);
      EXPECT_EQ(x.stats().dijkstra_pops, y.stats().dijkstra_pops);
      EXPECT_EQ(x.stats().arcs_relaxed, y.stats().arcs_relaxed);
      EXPECT_EQ(x.stats().flow_shipped, y.stats().flow_shipped);
    };
    expect_same_stats(a, b);
    EXPECT_EQ(sa->flow, sb->flow);
    EXPECT_EQ(sa->potential, sb->potential);

    // Identical warm trajectories stay in lockstep.
    for (int round = 0; round < 3; ++round) {
      const std::int64_t delta = 1 + static_cast<std::int64_t>(rng.uniform(5));
      for (MinCostFlow* m : {&a, &b}) {
        m->add_supply(1, delta);
        m->add_supply(0, -delta);
      }
      const auto ra = a.solve();
      const auto rb = b.solve();
      ASSERT_EQ(ra.has_value(), rb.has_value());
      if (!ra) break;
      EXPECT_EQ(ra->total_cost_exact, rb->total_cost_exact);
      expect_same_stats(a, b);
    }
  }
}

// A path instance 100k nodes long: Dijkstra, the BFS levels and the DFS
// all walk the whole path.  Run on a thread with a 256 KiB stack, which a
// search recursing once per node would overflow many times over.
TEST(McfPhases, LongPathSolvesOnASmallStack) {
  constexpr int kNodes = 100000;
  struct Result {
    std::optional<MinCostFlow::Solution> sol;
    MinCostFlow::SolveStats stats;
    std::string error;  // what a thrown exception said
  } result;
  const auto run = [](void* arg) -> void* {
    auto* out = static_cast<Result*>(arg);
    try {
      MinCostFlow mcf(kNodes);
      for (int v = 0; v + 1 < kNodes; ++v) mcf.add_arc(v, v + 1, 2, 1);
      mcf.set_supply(0, 2);
      mcf.set_supply(kNodes - 1, -2);
      out->sol = mcf.solve();
      out->stats = mcf.stats();
    } catch (const std::exception& e) {
      out->error = e.what();
    }
    return nullptr;
  };
  pthread_attr_t attr;
  ASSERT_EQ(pthread_attr_init(&attr), 0);
  ASSERT_EQ(pthread_attr_setstacksize(&attr, 256 * 1024), 0);
  pthread_t thread;
  ASSERT_EQ(pthread_create(&thread, &attr, +run, &result), 0);
  ASSERT_EQ(pthread_join(thread, nullptr), 0);
  pthread_attr_destroy(&attr);

  ASSERT_EQ(result.error, "");
  ASSERT_TRUE(result.sol.has_value());
  EXPECT_EQ(result.sol->total_cost_exact, 2LL * (kNodes - 1));
  EXPECT_EQ(result.sol->flow.front(), 2);
  EXPECT_EQ(result.sol->flow.back(), 2);
  EXPECT_EQ(result.stats.phases, 1);
  EXPECT_EQ(result.stats.augmentations, 1);
}

}  // namespace
}  // namespace lac::graph
