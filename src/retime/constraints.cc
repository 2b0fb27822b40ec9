#include "retime/constraints.h"

#include <algorithm>

#include "base/check.h"
#include "base/parallel.h"
#include "graph/diff_constraints.h"
#include "obs/memory.h"
#include "obs/metrics.h"

namespace lac::retime {

namespace {

// One clock constraint of a row: r(u) - r(v) <= c.
struct RowPair {
  int v = -1;
  std::int32_t c = 0;
};

// One period's clock constraints from a block of source rows, row-compact:
// every row's pairs in ascending v, and each row's pair count.  The sources
// are implied by the block's row range, so a pair costs 8 bytes until the
// set is assembled.
struct BlockPairs {
  std::vector<RowPair> pairs;
  std::vector<int> per_row;
  std::size_t unpruned = 0;  // violating pairs before pruning
};

// A sweep's output: per block, the pairs of the period and, when the
// sweep had one, of its second period.
struct Sweep {
  std::size_t rows = 0;
  std::vector<BlockPairs> first;
  std::vector<BlockPairs> second;  // empty without a second period
};

// The sweep's rows go to a fixed number of blocks, each with its own
// output, whatever the thread count.
constexpr std::size_t kSweepBlocks = 64;

[[nodiscard]] std::size_t block_begin(std::size_t b, std::size_t rows,
                                      std::size_t blocks) {
  return b * rows / blocks;
}

// Appends row pairs `row`, sorted by v, to `out`.
void emit_row(std::vector<RowPair>& row, BlockPairs& out) {
  std::sort(row.begin(), row.end(),
            [](const RowPair& a, const RowPair& b) { return a.v < b.v; });
  out.pairs.insert(out.pairs.end(), row.begin(), row.end());
  out.per_row.push_back(static_cast<int>(row.size()));
}

// Sweeps the rows u in [begin, end) with `row` as scratch, keeping the
// pairs of `period` in `out` and, when `second_out` is non-null, those of
// `second` in *second_out.  A function rather than a lambda that captures
// sweep's locals, which runs it behind parallel_for's std::function.
//
// Pair-local rule.  For u != v with D(u,v) > T, the tight predecessors x of
// v (W(u,x) + w(x->v) = W(u,v)) give D(u,v) = d(v) + max_x D(u,x), and the
// tight successors y of u give D(u,v) = d(u) + max_y D(y,v).  The
// target-side rule drops (u,v) when some tight x has D(u,x) > T, which is
// D(u,v) - d(v) > T (x = u cannot qualify: D(u,u) = d(u) <= T); the
// source side is symmetric.  So together they keep (u,v) exactly when
//   D(u,v) > T >= D(u,v) - min(d(u), d(v)),
// which row u decides alone, for any number of periods at once.
void sweep_rows(const WdMatrices& wd, bool prune, std::size_t begin,
                std::size_t end, WdMatrices::Row& row, std::int32_t period,
                BlockPairs& out, std::int32_t second,
                BlockPairs* second_out) {
  std::vector<RowPair> first_row;
  std::vector<RowPair> second_row;
  for (std::size_t su = begin; su < end; ++su) {
    const int u = static_cast<int>(su);
    const std::int32_t du = wd.delay_decips(u);
    wd.row(u, row);
    first_row.clear();
    second_row.clear();
    row.for_each_reached([&](int v, std::int32_t w, std::int32_t d) {
      if (v == u) return;
      const std::int32_t rest = d - std::min(du, wd.delay_decips(v));
      const auto keep = [&](std::int32_t t, std::size_t& unpruned,
                            std::vector<RowPair>& kept) {
        if (d <= t) return;
        ++unpruned;
        if (!prune || rest <= t) kept.push_back({v, w - 1});
      };
      keep(period, out.unpruned, first_row);
      if (second_out != nullptr)
        keep(second, second_out->unpruned, second_row);
    });
    emit_row(first_row, out);
    if (second_out != nullptr) emit_row(second_row, *second_out);
  }
}

// Sweeps every row once under `exec`, for `period` and, when set, for
// `second` as well.  Counts the rows as `timing.wd_rows`.
Sweep sweep(const WdMatrices& wd, std::int32_t period,
            std::optional<std::int32_t> second, bool prune,
            const base::ExecPolicy& exec) {
  // Leiserson–Saxe constraint sufficiency requires T >= every single
  // vertex delay; below that no retiming can meet the period and the
  // pairwise system would be satisfiable yet meaningless.
  for (const std::int32_t t : {period, second.value_or(period)})
    LAC_CHECK_MSG(t >= wd.max_vertex_delay_decips(),
                  "target period "
                      << t << " deci-ps is below the largest unit delay "
                      << wd.max_vertex_delay_decips());
  // Each block sweeps a contiguous range of sources, so assembling the
  // blocks in order gives the same set at any thread count.  Each worker
  // slot reuses one row scratch across its blocks.  The scratch is sized
  // up front, so row() allocates nothing, and off the memory books, like
  // the engine's own per-worker bookkeeping: its size follows the worker
  // count.
  Sweep out;
  out.rows = static_cast<std::size_t>(wd.n());
  const std::size_t blocks = std::min(out.rows, kSweepBlocks);
  out.first.resize(blocks);
  out.second.resize(second ? blocks : 0);
  std::vector<WdMatrices::Row> scratch;
  {
    obs::memory::PauseScope pause;
    scratch.resize(
        static_cast<std::size_t>(base::parallel_slots(exec, blocks)));
    for (WdMatrices::Row& row : scratch) wd.fit(row);
  }
  base::parallel_for_chunked(
      exec, blocks, [&](std::size_t begin, std::size_t end, int slot) {
        for (std::size_t b = begin; b < end; ++b)
          sweep_rows(wd, prune, block_begin(b, out.rows, blocks),
                     block_begin(b + 1, out.rows, blocks),
                     scratch[static_cast<std::size_t>(slot)], period,
                     out.first[b], second.value_or(period),
                     second ? &out.second[b] : nullptr);
      });
  {
    obs::memory::PauseScope pause;
    std::vector<WdMatrices::Row>().swap(scratch);
  }
  obs::count("timing.wd_rows", wd.n());
  return out;
}

// The constraint set with no clock constraints yet: the edge constraints
// and the I/O pinning, which every period shares.
ConstraintSet base_set(const RetimingGraph& g) {
  ConstraintSet cs;
  cs.num_vars = g.num_vertices();
  for (const auto& e : g.edges()) cs.edge.push_back({e.tail, e.head, e.w});
  for (const int io : g.io_vertices()) {
    cs.io.push_back({io, g.host(), 0});
    cs.io.push_back({g.host(), io, 0});
  }
  return cs;
}

// Assembles one period's blocks, in order, into cs.clock and
// cs.clock_before_pruning, freeing each block once it is copied.
void assemble_clock(std::vector<BlockPairs>& blocks, std::size_t rows,
                    ConstraintSet& cs) {
  std::size_t total = 0;
  cs.clock_before_pruning = 0;
  for (const BlockPairs& blk : blocks) {
    total += blk.pairs.size();
    cs.clock_before_pruning += blk.unpruned;
  }
  std::vector<Constraint>().swap(cs.clock);
  cs.clock.reserve(total);
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    BlockPairs& blk = blocks[b];
    auto next = blk.pairs.begin();
    int u = static_cast<int>(block_begin(b, rows, blocks.size()));
    for (const int count : blk.per_row) {
      for (const auto end = next + count; next != end; ++next)
        cs.clock.push_back({u, next->v, next->c});
      ++u;
    }
    blk = BlockPairs{};
  }
}

}  // namespace

ConstraintSet build_constraints(const RetimingGraph& g, const WdMatrices& wd,
                                std::int32_t period_decips,
                                const ConstraintOptions& opt,
                                const base::ExecPolicy& exec) {
  LAC_CHECK(wd.n() == g.num_vertices());
  Sweep sw = sweep(wd, period_decips, std::nullopt, opt.prune, exec);
  ConstraintSet cs = base_set(g);
  assemble_clock(sw.first, sw.rows, cs);
  return cs;
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

// A probe of `period`.  When `second` is set the probe's sweep also keeps
// that period's pairs, and a feasible probe leaves that period's set in
// *second_set.
PeriodProbe run_probe(const RetimingGraph& g, const WdMatrices& wd,
                      std::int32_t period, std::optional<std::int32_t> second,
                      const base::ExecPolicy& exec, std::int64_t* relaxations,
                      std::optional<ConstraintSet>* second_set) {
  LAC_CHECK(wd.n() == g.num_vertices());
  Sweep sw = sweep(wd, period, second, true, exec);
  ConstraintSet cs = base_set(g);
  assemble_clock(sw.first, sw.rows, cs);
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
    LAC_CHECK_MSG(probe.bound_decips <= period,
                  "labels of period " << period << " achieve "
                                      << probe.bound_decips);
    if (second) {
      // The edge and I/O constraints carry over; this period's clock
      // constraints go before the second period's are assembled.
      assemble_clock(sw.second, sw.rows, cs);
      *second_set = std::move(cs);
    }
    return probe;
  }
  probe.bound_decips = period + 1;
  if (cycle.empty()) return probe;
  // for_each order: the edge, then the clock, then the I/O constraints.
  // D(u,v) of the cycle's clock constraints comes from their rows, one
  // row per distinct u.
  const std::size_t first_clock = cs.edge.size();
  const std::size_t end_clock = first_clock + cs.clock.size();
  std::int64_t weight = 0;
  std::vector<Constraint> clock;
  for (const int i : cycle) {
    const auto k = static_cast<std::size_t>(i);
    const bool is_clock = k >= first_clock && k < end_clock;
    const Constraint& c = k < first_clock ? cs.edge[k]
                          : is_clock      ? cs.clock[k - first_clock]
                                          : cs.io[k - end_clock];
    weight += c.c;
    if (is_clock) clock.push_back(c);
  }
  LAC_CHECK_MSG(weight < 0, "the solver's cycle at period "
                                << period << " weighs " << weight);
  LAC_CHECK_MSG(!clock.empty(),
                "a negative cycle without a clock constraint at period "
                    << period);
  std::sort(clock.begin(), clock.end(),
            [](const Constraint& a, const Constraint& b) { return a.u < b.u; });
  WdMatrices::Row row;
  std::int32_t min_d = WdMatrices::kUnreachable;
  for (std::size_t k = 0; k < clock.size(); ++k) {
    if (k == 0 || clock[k].u != clock[k - 1].u) wd.row(clock[k].u, row);
    min_d = std::min(min_d, row.d_decips(clock[k].v));
  }
  probe.bound_decips = std::max(probe.bound_decips, min_d);
  return probe;
}

// What the search proved, and — when asked for a slack fraction and the
// first probe decided — the set of T_clk(T_min) that probe's sweep kept.
struct Search {
  std::int32_t t_min_decips = 0;
  std::vector<int> r;
  MinPeriodProof proof;
  std::optional<ConstraintSet> clock_set;
  std::int32_t clock_set_period = 0;
};

// The search behind min_period_retiming and plan_clock.  The search keeps
// lo <= T_min <= hi and moves each end only to a bound a certificate
// proves; with `slack_fraction`, the first probe's sweep also keeps the
// pairs of T_clk(lo).
Search search(const RetimingGraph& g, const WdMatrices& wd,
              const base::ExecPolicy& exec,
              std::optional<double> slack_fraction) {
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
  Search out;
  out.r.assign(static_cast<std::size_t>(g.num_vertices()), 0);
  while (lo < hi) {
    const bool first = probes == 0;
    const std::int32_t period =
        first ? lo
              : lo + static_cast<std::int32_t>(
                         (static_cast<std::int64_t>(hi) - lo) / 2);
    std::optional<std::int32_t> t_clk;
    if (first && slack_fraction.has_value())
      t_clk = to_decips(
          clock_period_ps(from_decips(lo), wd.t_init_ps(), *slack_fraction));
    ++probes;
    PeriodProbe probe = run_probe(g, wd, period, t_clk, exec, &relaxations,
                                  &out.clock_set);
    if (probe.feasible) {
      // A feasible first probe ends the search at T_min = lo.
      hi = probe.bound_decips;
      out.r = std::move(probe.r);
      if (t_clk.has_value()) out.clock_set_period = *t_clk;
    } else {
      lo = probe.bound_decips;
      lo_proof = "cycle";
    }
  }
  LAC_CHECK_MSG(lo == hi, "min-period bounds crossed: lower bound "
                              << lo << " above the achieved period " << hi);
  obs::count("timing.period_probes", probes);
  obs::count("timing.spfa_relaxations", relaxations);
  out.t_min_decips = hi;
  out.proof = {io_bound, lo_proof};
  return out;
}

}  // namespace

PeriodProbe probe_period(const RetimingGraph& g, const WdMatrices& wd,
                         std::int32_t period_decips,
                         const base::ExecPolicy& exec,
                         std::int64_t* relaxations) {
  return run_probe(g, wd, period_decips, std::nullopt, exec, relaxations,
                   nullptr);
}

double min_period_retiming(const RetimingGraph& g, const WdMatrices& wd,
                           std::vector<int>* r_out,
                           const base::ExecPolicy& exec,
                           MinPeriodProof* proof) {
  Search s = search(g, wd, exec, std::nullopt);
  if (r_out != nullptr) *r_out = std::move(s.r);
  if (proof != nullptr) *proof = s.proof;
  return from_decips(s.t_min_decips);
}

double clock_period_ps(double t_min_ps, double t_init_ps,
                       double slack_fraction) {
  return t_min_ps + slack_fraction * (t_init_ps - t_min_ps);
}

ClockPlan plan_clock(const RetimingGraph& g, const WdMatrices& wd,
                     double slack_fraction, const base::ExecPolicy& exec) {
  Search s = search(g, wd, exec, slack_fraction);
  ClockPlan plan;
  plan.t_min_ps = from_decips(s.t_min_decips);
  plan.t_clk_ps =
      clock_period_ps(plan.t_min_ps, wd.t_init_ps(), slack_fraction);
  plan.proof = s.proof;
  if (s.clock_set.has_value()) {
    LAC_CHECK_MSG(to_decips(plan.t_clk_ps) == s.clock_set_period,
                  "the first probe kept the pairs of "
                      << s.clock_set_period << " deci-ps, but T_clk is "
                      << to_decips(plan.t_clk_ps));
    plan.clock_set = std::move(s.clock_set);
  }
  return plan;
}

ConstraintSet take_clock_constraints(const RetimingGraph& g,
                                     const WdMatrices& wd, ClockPlan& plan,
                                     const base::ExecPolicy& exec) {
  if (!plan.clock_set.has_value())
    return build_constraints(g, wd, to_decips(plan.t_clk_ps), {}, exec);
  ConstraintSet cs = std::move(*plan.clock_set);
  plan.clock_set.reset();
  return cs;
}

}  // namespace lac::retime
