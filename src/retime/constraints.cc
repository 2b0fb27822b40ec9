#include "retime/constraints.h"

#include <algorithm>

#include "base/check.h"
#include "base/parallel.h"
#include "graph/diff_constraints.h"
#include "obs/metrics.h"

namespace lac::retime {

namespace {

// One clock constraint of a row, with its D(u,v) for the negative-cycle
// certificate.
struct RowPair {
  int v = -1;
  std::int32_t c = 0;
  std::int32_t d = 0;
};

// What a block of source rows keeps: its clock constraints in row order,
// their D(u,v) when asked for, and its violating pairs before pruning.
struct SweptRows {
  std::vector<Constraint> kept;
  std::vector<std::int32_t> d;
  std::size_t unpruned = 0;
};

// The sweep's rows go to a fixed number of blocks, each with its own row
// scratch and output, whatever the thread count.
constexpr std::size_t kSweepBlocks = 64;

// Sweeps the rows u in [begin, end) into `out`, each row's pairs in
// ascending v.  A function rather than a lambda that captures
// sweep_constraints' locals, which runs it behind parallel_for's
// std::function.
//
// Pair-local rule.  For u != v with D(u,v) > T, the tight predecessors x of
// v (W(u,x) + w(x->v) = W(u,v)) give D(u,v) = d(v) + max_x D(u,x), and the
// tight successors y of u give D(u,v) = d(u) + max_y D(y,v).  The
// target-side rule drops (u,v) when some tight x has D(u,x) > T, which is
// D(u,v) - d(v) > T (x = u cannot qualify: D(u,u) = d(u) <= T); the
// source side is symmetric.  So together they keep (u,v) exactly when
//   D(u,v) > T >= D(u,v) - min(d(u), d(v)),
// which row u decides alone.
void sweep_rows(const WdMatrices& wd, std::int32_t period_decips, bool prune,
                bool keep_d, std::size_t begin, std::size_t end,
                SweptRows& out) {
  WdMatrices::Row row;
  std::vector<RowPair> pairs;
  for (std::size_t su = begin; su < end; ++su) {
    const int u = static_cast<int>(su);
    const std::int32_t du = wd.delay_decips(u);
    wd.row(u, row);
    pairs.clear();
    row.for_each_reached([&](int v, std::int32_t w, std::int32_t d) {
      if (v == u || d <= period_decips) return;
      ++out.unpruned;
      if (prune && d - std::min(du, wd.delay_decips(v)) > period_decips)
        return;
      pairs.push_back({v, w - 1, d});
    });
    std::sort(pairs.begin(), pairs.end(),
              [](const RowPair& a, const RowPair& b) { return a.v < b.v; });
    for (const RowPair& p : pairs) {
      out.kept.push_back({u, p.v, p.c});
      if (keep_d) out.d.push_back(p.d);
    }
  }
}

// Builds the set of period T; when `clock_d` is non-null it receives
// D(u,v) of every clock constraint, parallel to cs.clock.
ConstraintSet sweep_constraints(const RetimingGraph& g, const WdMatrices& wd,
                                std::int32_t period_decips, bool prune,
                                const base::ExecPolicy& exec,
                                std::vector<std::int32_t>* clock_d) {
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

  // Each block sweeps a contiguous range of sources; the blocks are
  // concatenated here in source order, so the set is the same at any
  // thread count.
  const auto rows = static_cast<std::size_t>(n);
  const std::size_t blocks = std::min(rows, kSweepBlocks);
  std::vector<SweptRows> out(blocks);
  base::parallel_for(exec, blocks, [&](std::size_t b) {
    sweep_rows(wd, period_decips, prune, clock_d != nullptr,
               b * rows / blocks, (b + 1) * rows / blocks, out[b]);
  });
  obs::count("timing.wd_rows", n);
  std::size_t total = 0;
  for (const SweptRows& blk : out) {
    total += blk.kept.size();
    cs.clock_before_pruning += blk.unpruned;
  }
  cs.clock.reserve(total);
  if (clock_d != nullptr) clock_d->reserve(total);
  for (const SweptRows& blk : out) {
    cs.clock.insert(cs.clock.end(), blk.kept.begin(), blk.kept.end());
    if (clock_d != nullptr)
      clock_d->insert(clock_d->end(), blk.d.begin(), blk.d.end());
  }
  return cs;
}

}  // namespace

ConstraintSet build_constraints(const RetimingGraph& g, const WdMatrices& wd,
                                std::int32_t period_decips,
                                const ConstraintOptions& opt,
                                const base::ExecPolicy& exec) {
  return sweep_constraints(g, wd, period_decips, opt.prune, exec, nullptr);
}

namespace {

// Shortest-path labels of the system, straight from the set's vectors; an
// infeasible system's negative cycle goes to *cycle as indices in
// ConstraintSet::for_each order.
std::optional<std::vector<std::int64_t>> solve_set(const ConstraintSet& cs,
                                                   std::int64_t* relaxations,
                                                   std::vector<int>* cycle) {
  return graph::solve_difference_constraints(
      cs.num_vars,
      [&](const auto& f) {
        cs.for_each([&](const Constraint& c) { f(c.u, c.v, c.c); });
      },
      relaxations, cycle);
}

}  // namespace

PeriodProbe probe_period(const RetimingGraph& g, const WdMatrices& wd,
                         std::int32_t period_decips,
                         const base::ExecPolicy& exec,
                         std::int64_t* relaxations) {
  std::vector<std::int32_t> clock_d;
  const ConstraintSet cs =
      sweep_constraints(g, wd, period_decips, true, exec, &clock_d);
  std::vector<int> cycle;
  const auto labels = solve_set(cs, relaxations, &cycle);
  PeriodProbe probe;
  if (labels) {
    probe.feasible = true;
    // Normalise so the host label is zero (I/O vertices follow via pinning).
    const std::int64_t base = (*labels)[static_cast<std::size_t>(g.host())];
    probe.r.resize(labels->size());
    for (std::size_t i = 0; i < probe.r.size(); ++i)
      probe.r[i] = static_cast<int>((*labels)[i] - base);
    LAC_CHECK(g.is_legal_retiming(probe.r));
    probe.bound_decips = to_decips(g.period_after_ps(probe.r));
    LAC_CHECK_MSG(probe.bound_decips <= period_decips,
                  "labels of period " << period_decips << " achieve "
                                      << probe.bound_decips);
    return probe;
  }
  probe.bound_decips = period_decips + 1;
  if (cycle.empty()) return probe;
  // for_each order: the edge, then the clock, then the I/O constraints.
  const std::size_t first_clock = cs.edge.size();
  const std::size_t end_clock = first_clock + cs.clock.size();
  std::int64_t weight = 0;
  std::int32_t min_d = WdMatrices::kUnreachable;
  for (const int i : cycle) {
    const auto k = static_cast<std::size_t>(i);
    const bool clock = k >= first_clock && k < end_clock;
    const Constraint& c = k < first_clock ? cs.edge[k]
                          : clock         ? cs.clock[k - first_clock]
                                          : cs.io[k - end_clock];
    weight += c.c;
    if (clock) min_d = std::min(min_d, clock_d[k - first_clock]);
  }
  LAC_CHECK_MSG(weight < 0, "the solver's cycle at period "
                                << period_decips << " weighs " << weight);
  LAC_CHECK_MSG(min_d != WdMatrices::kUnreachable,
                "a negative cycle without a clock constraint at period "
                    << period_decips);
  probe.bound_decips = std::max(probe.bound_decips, min_d);
  return probe;
}

double min_period_retiming(const RetimingGraph& g, const WdMatrices& wd,
                           std::vector<int>* r_out,
                           const base::ExecPolicy& exec,
                           MinPeriodProof* proof) {
  std::int64_t probes = 0;
  std::int64_t relaxations = 0;
  const std::int32_t io_bound = wd.io_path_bound_decips();
  std::int32_t lo = std::max(wd.max_vertex_delay_decips(), io_bound);
  std::string_view lo_proof =
      io_bound > wd.max_vertex_delay_decips() ? "io_path" : "unit_delay";
  // The identity retiming achieves T_init, so hi needs no probe.
  std::int32_t hi = to_decips(wd.t_init_ps());
  LAC_CHECK_MSG(to_decips(g.period_as_is_ps()) == hi,
                "T_init must be the period of the identity retiming");
  std::vector<int> r(static_cast<std::size_t>(g.num_vertices()), 0);
  while (lo < hi) {
    const std::int32_t period =
        probes == 0 ? lo
                    : lo + static_cast<std::int32_t>(
                               (static_cast<std::int64_t>(hi) - lo) / 2);
    ++probes;
    PeriodProbe probe = probe_period(g, wd, period, exec, &relaxations);
    if (probe.feasible) {
      hi = probe.bound_decips;
      r = std::move(probe.r);
    } else {
      lo = probe.bound_decips;
      lo_proof = "cycle";
    }
  }
  LAC_CHECK_MSG(lo == hi, "min-period bounds crossed: lower bound "
                              << lo << " above the achieved period " << hi);
  obs::count("timing.period_probes", probes);
  obs::count("timing.spfa_relaxations", relaxations);
  if (r_out != nullptr) *r_out = std::move(r);
  if (proof != nullptr) *proof = {io_bound, lo_proof};
  return from_decips(hi);
}

}  // namespace lac::retime
