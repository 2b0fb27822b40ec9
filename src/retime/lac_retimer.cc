#include "retime/lac_retimer.h"

#include <algorithm>
#include <optional>

#include "base/check.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/stream.h"
#include "retime/weighted_min_area_solver.h"

namespace lac::retime {

namespace {
// Every option is validated before any work happens; a bad option used to
// surface as an unrelated internal check much later (e.g. max_rounds <= 0
// skipped the loop entirely and tripped LAC_CHECK(have_best)).
void validate_options(const LacOptions& opt) {
  LAC_CHECK_MSG(opt.alpha >= 0.0 && opt.alpha <= 1.0,
                "LacOptions::alpha must be in [0, 1], got " << opt.alpha);
  LAC_CHECK_MSG(opt.n_max >= 1,
                "LacOptions::n_max must be >= 1, got " << opt.n_max);
  LAC_CHECK_MSG(opt.max_rounds >= 1,
                "LacOptions::max_rounds must be >= 1, got " << opt.max_rounds);
  LAC_CHECK_MSG(opt.ff_area > 0.0,
                "LacOptions::ff_area must be > 0, got " << opt.ff_area);
  LAC_CHECK_MSG(opt.full_tile_ratio >= 1.0,
                "LacOptions::full_tile_ratio must be >= 1, got "
                    << opt.full_tile_ratio);
  LAC_CHECK_MSG(opt.weight_min > 0.0,
                "LacOptions::weight_min must be > 0, got " << opt.weight_min);
  LAC_CHECK_MSG(opt.weight_min <= opt.weight_max,
                "LacOptions::weight_min (" << opt.weight_min
                    << ") must be <= weight_max (" << opt.weight_max << ")");
}

}  // namespace

LacResult lac_retiming(const RetimingGraph& g, const tile::TileGrid& grid,
                       const ConstraintSet& cs, const LacOptions& opt,
                       WeightedMinAreaSolver* session) {
  validate_options(opt);
  LAC_CHECK_MSG(session == nullptr || session->matches(g, cs),
                "external solver session does not match (g, cs)");

  obs::Span lac_span("lac.retiming");
  lac_span.annotate("vertices", g.num_vertices());
  lac_span.annotate("tiles", grid.num_tiles());
  lac_span.annotate("alpha", opt.alpha);

  // One solver session for the whole call: the flow network is built once
  // and rounds >= 2 warm-start from the previous round's flow.  A
  // caller-owned session (ECO re-plan) may arrive already warm.
  std::optional<WeightedMinAreaSolver> owned;
  if (session == nullptr) session = &owned.emplace(g, cs);

  LacResult best;
  bool have_best = false;
  std::vector<LacRoundStats> rounds;

  std::vector<double> tile_weight(static_cast<std::size_t>(grid.num_tiles()),
                                  1.0);
  std::vector<double> area_weight(static_cast<std::size_t>(g.num_vertices()),
                                  1.0);

  int no_improve = 0;
  for (int round = 0; round < opt.max_rounds; ++round) {
    obs::Span round_span("lac.round");
    LacRoundStats rs;
    rs.round = round + 1;
    if (!tile_weight.empty()) {
      const auto [lo, hi] =
          std::minmax_element(tile_weight.begin(), tile_weight.end());
      rs.weight_lo = *lo;
      rs.weight_hi = *hi;
    }

    // Vertex weights follow their tile's adaptive weight, with the same
    // epsilon tie-break as the plain baseline (min_area.cc): cost-equal
    // registers stay with the logic rather than at an arbitrary position
    // along a wire's unit chain.
    for (int v = 0; v < g.num_vertices(); ++v) {
      const tile::TileId t = g.tile(v);
      const double tiebreak =
          g.kind(v) == VertexKind::kInterconnect ? 1.002 : 1.0;
      area_weight[static_cast<std::size_t>(v)] =
          (t.valid() ? tile_weight[t.index()] : 1.0) * tiebreak;
    }

    MinAreaStats solve_stats;
    const auto r = session->solve(area_weight, &solve_stats);
    LAC_CHECK_MSG(r.has_value(), "LAC-retiming called with infeasible period");
    AreaReport rep = place_flipflops(g, grid, *r, opt.ff_area);
    const int n_wr_so_far = round + 1;
    if (round == 0) {
      best.min_area_r = *r;
      best.min_area_report = rep;
    }

    const bool improved =
        !have_best || rep.n_foa < best.report.n_foa ||
        (rep.n_foa == best.report.n_foa && rep.n_f < best.report.n_f);
    if (improved) {
      best.r = *r;
      best.report = rep;
      best.tile_weight = tile_weight;
      have_best = true;
      no_improve = 0;
    } else {
      ++no_improve;
    }
    best.n_wr = n_wr_so_far;

    rs.n_foa = rep.n_foa;
    rs.n_f = rep.n_f;
    rs.best_n_foa = best.report.n_foa;
    rs.max_overflow = rep.worst_overflow;
    rs.improved = improved;
    rs.phases = solve_stats.phases;
    rs.augmentations = solve_stats.augmentations;
    rs.warm = solve_stats.warm;
    rs.solve_seconds = round_span.elapsed_seconds();
    round_span.annotate("round", rs.round);
    round_span.annotate("n_foa", rs.n_foa);
    round_span.annotate("n_f", rs.n_f);
    round_span.annotate("best_n_foa", rs.best_n_foa);
    round_span.annotate("max_overflow", rs.max_overflow);
    round_span.annotate("weight_lo", rs.weight_lo);
    round_span.annotate("weight_hi", rs.weight_hi);
    round_span.annotate("improved", rs.improved);
    round_span.annotate("warm", rs.warm);
    obs::count("lac.rounds");
    obs::observe("lac.round_seconds", rs.solve_seconds);
    obs::observe("lac.round_n_foa", static_cast<double>(rs.n_foa));
    {
      // Per-round progress for `lacobs tail`: the long inner loop a live
      // watcher actually wants to see converge.
      obs::stream::Event ev("round");
      ev.field("round", rs.round)
          .field("n_foa", rs.n_foa)
          .field("n_f", rs.n_f)
          .field("best_n_foa", rs.best_n_foa)
          .field("max_overflow", rs.max_overflow)
          .field("improved", rs.improved)
          .field("warm", rs.warm)
          .field("seconds", rs.solve_seconds);
    }
    rounds.push_back(rs);

    if (rep.n_foa == 0) break;                 // all tiles fit — done
    if (no_improve >= opt.n_max) break;        // stagnated

    // Adaptive re-weighting (paper step 6).  Over-utilised tiles get
    // heavier — flip-flops there become expensive — and under-utilised
    // tiles decay back toward attractiveness.
    for (int t = 0; t < grid.num_tiles(); ++t) {
      const double cap = grid.capacity(tile::TileId{t});
      const double ac = rep.ac[static_cast<std::size_t>(t)];
      double ratio;
      if (cap > 1e-9) {
        ratio = ac / cap;
      } else {
        ratio = ac > 0.0 ? opt.full_tile_ratio : 1.0;
      }
      ratio = std::min(ratio, opt.full_tile_ratio);
      double& w = tile_weight[static_cast<std::size_t>(t)];
      w *= (1.0 - opt.alpha) + opt.alpha * ratio;
      w = std::clamp(w, opt.weight_min, opt.weight_max);
    }
  }

  LAC_CHECK(have_best);
  best.met_all_constraints = best.report.fits();
  best.rounds = std::move(rounds);
  lac_span.annotate("n_wr", best.n_wr);
  lac_span.annotate("n_foa", best.report.n_foa);
  lac_span.annotate("n_f", best.report.n_f);
  lac_span.annotate("met_all_constraints", best.met_all_constraints);
  return best;
}

}  // namespace lac::retime
