#include "retime/constraints.h"

#include <algorithm>
#include <bit>

#include "base/check.h"
#include "base/parallel.h"
#include "graph/diff_constraints.h"
#include "obs/metrics.h"

namespace lac::retime {

namespace {

// Marks each clock constraint (u, v) of row u as bit v of `bits` and stores
// how many it marked in *marked; returns the row's number of violating
// pairs before pruning.  A function rather than a lambda that captures
// build_constraints' locals: it runs behind parallel_for_chunked's
// std::function, where reaching the captures made the scan ~15% slower.
std::size_t scan_row(const RetimingGraph& g, const WdMatrices& wd,
                     std::int32_t period_decips, bool prune, int u,
                     std::uint64_t* bits, std::size_t* marked) {
  auto violates = [&](int a, int b) {
    return wd.w(a, b) != WdMatrices::kUnreachable &&
           wd.d_decips(a, b) > period_decips;
  };
  const int n = g.num_vertices();
  std::size_t unpruned = 0;
  std::size_t kept = 0;
  for (int v = 0; v < n; ++v) {
    if (u == v || !violates(u, v)) continue;
    ++unpruned;
    if (prune) {
      bool implied = false;
      // Target side: (u,x) + edge (x -> v) with a tight weight.
      for (const int e : g.in_edges(v)) {
        const auto& ed = g.edge(e);
        const int x = ed.tail;
        if (x == v || x == u) continue;
        if (violates(u, x) &&
            wd.w(u, v) == wd.w(u, x) + ed.w) {
          implied = true;
          break;
        }
      }
      // Source side: edge (u -> y) + (y,v) with a tight weight.
      if (!implied) {
        for (const int e : g.out_edges(u)) {
          const auto& ed = g.edge(e);
          const int y = ed.head;
          if (y == u || y == v) continue;
          if (violates(y, v) &&
              wd.w(u, v) == ed.w + wd.w(y, v)) {
            implied = true;
            break;
          }
        }
      }
      if (implied) continue;
    }
    const auto sv = static_cast<std::size_t>(v);
    bits[sv / 64] |= std::uint64_t{1} << (sv % 64);
    ++kept;
  }
  *marked = kept;
  return unpruned;
}

}  // namespace

ConstraintSet build_constraints(const RetimingGraph& g, const WdMatrices& wd,
                                std::int32_t period_decips,
                                const ConstraintOptions& opt,
                                const base::ExecPolicy& exec) {
  const int n = g.num_vertices();
  LAC_CHECK(wd.n() == n);
  // Leiserson–Saxe constraint sufficiency requires T >= every single
  // vertex delay; below that no retiming can meet the period and the
  // pairwise system would be satisfiable yet meaningless.
  LAC_CHECK_MSG(period_decips >= wd.max_vertex_delay_decips(),
                "target period " << period_decips
                                 << " deci-ps is below the largest unit delay "
                                 << wd.max_vertex_delay_decips());
  ConstraintSet cs;
  cs.num_vars = n;

  for (const auto& e : g.edges()) cs.edge.push_back({e.tail, e.head, e.w});
  for (const int io : g.io_vertices()) {
    cs.io.push_back({io, g.host(), 0});
    cs.io.push_back({g.host(), io, 0});
  }

  // The rows are scanned in chunks under `exec`.  Each row marks its kept
  // pairs in its own word-aligned row of a bitmap that this thread owns, so
  // the workers allocate nothing (what they allocate would stay resident
  // in their malloc arenas after the scan).  The constraints are assembled
  // here in row order: the set is the same at any thread count.
  const auto rows = static_cast<std::size_t>(n);
  const std::size_t words = (rows + 63) / 64;
  std::vector<std::uint64_t> kept(rows * words, 0);
  std::vector<std::size_t> num_kept(rows, 0);
  std::vector<std::size_t> unpruned(rows, 0);
  base::parallel_for_chunked(
      exec, rows, [&](std::size_t begin, std::size_t end) {
        for (std::size_t u = begin; u < end; ++u) {
          unpruned[u] = scan_row(g, wd, period_decips, opt.prune,
                                 static_cast<int>(u), kept.data() + u * words,
                                 &num_kept[u]);
        }
      });
  std::size_t total = 0;
  for (std::size_t u = 0; u < rows; ++u) {
    total += num_kept[u];
    cs.clock_before_pruning += unpruned[u];
  }
  cs.clock.reserve(total);
  for (std::size_t u = 0; u < rows; ++u) {
    const int su = static_cast<int>(u);
    for (std::size_t w = 0; w < words; ++w) {
      for (std::uint64_t b = kept[u * words + w]; b != 0; b &= b - 1) {
        const int v = static_cast<int>(w * 64) + std::countr_zero(b);
        cs.clock.push_back({su, v, wd.w(su, v) - 1});
      }
    }
  }
  return cs;
}

namespace {

// Shortest-path labels of the system, straight from the set's vectors.
std::optional<std::vector<std::int64_t>> solve_set(const ConstraintSet& cs,
                                                   std::int64_t* relaxations) {
  return graph::solve_difference_constraints(
      cs.num_vars,
      [&](const auto& f) {
        cs.for_each([&](const Constraint& c) { f(c.u, c.v, c.c); });
      },
      relaxations);
}

}  // namespace

bool period_feasible(const RetimingGraph& g, const WdMatrices& wd,
                     std::int32_t period_decips) {
  if (period_decips < wd.max_vertex_delay_decips()) return false;
  return solve_set(build_constraints(g, wd, period_decips), nullptr)
      .has_value();
}

double min_period_retiming(const RetimingGraph& g, const WdMatrices& wd,
                           std::vector<int>* r_out,
                           const base::ExecPolicy& exec) {
  std::int64_t probes = 0;
  std::int64_t relaxations = 0;
  // Labels of the last feasible probe, which is always the one at `hi`.
  std::optional<std::vector<std::int64_t>> labels;
  auto feasible = [&](std::int32_t period) {
    ++probes;
    auto sol = solve_set(build_constraints(g, wd, period, {}, exec),
                         &relaxations);
    if (!sol) return false;
    labels = std::move(sol);
    return true;
  };
  std::int32_t lo = wd.max_vertex_delay_decips();
  std::int32_t hi = to_decips(wd.t_init_ps());
  LAC_CHECK_MSG(feasible(hi), "T_init must be feasible (identity retiming)");
  while (lo < hi) {
    const std::int32_t mid =
        lo + static_cast<std::int32_t>((static_cast<std::int64_t>(hi) - lo) / 2);
    if (feasible(mid))
      hi = mid;
    else
      lo = mid + 1;
  }
  obs::count("timing.period_probes", probes);
  obs::count("timing.spfa_relaxations", relaxations);
  if (r_out != nullptr) {
    // Normalise so the host label is zero (I/O vertices follow via pinning).
    const std::int64_t base = (*labels)[static_cast<std::size_t>(g.host())];
    std::vector<int> r(labels->size());
    for (std::size_t i = 0; i < r.size(); ++i)
      r[i] = static_cast<int>((*labels)[i] - base);
    LAC_CHECK(g.is_legal_retiming(r));
    *r_out = std::move(r);
  }
  return from_decips(hi);
}

}  // namespace lac::retime
