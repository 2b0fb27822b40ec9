#include "floorplan/floorplanner.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "base/check.h"
#include "base/rng.h"
#include "base/str_util.h"
#include "floorplan/sequence_pair.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace lac::floorplan {

namespace {

std::pair<Coord, Coord> dims_for(const BlockSpec& b, double aspect) {
  if (b.hard) {
    LAC_CHECK(b.fixed_w > 0 && b.fixed_h > 0);
    return {b.fixed_w, b.fixed_h};
  }
  LAC_CHECK(b.area > 0.0);
  const double w = std::sqrt(b.area * aspect);
  const Coord wi = std::max<Coord>(1, static_cast<Coord>(std::lround(w)));
  const Coord hi = std::max<Coord>(
      1, static_cast<Coord>(std::ceil(b.area / static_cast<double>(wi))));
  return {wi, hi};
}

double packing_cost(const Packing& pk) {
  const double area = static_cast<double>(pk.width) * static_cast<double>(pk.height);
  const double ar = pk.height == 0
                        ? 1.0
                        : static_cast<double>(pk.width) / static_cast<double>(pk.height);
  const double squareness = std::max(ar, 1.0 / std::max(ar, 1e-9)) - 1.0;
  return area * (1.0 + 0.1 * squareness);
}

}  // namespace

BlockId Floorplan::block_at(const Point& p) const {
  for (int b = 0; b < num_blocks(); ++b)
    if (placement[static_cast<std::size_t>(b)].contains(p))
      return BlockId{b};
  return BlockId::invalid();
}

Floorplan floorplan_blocks(std::vector<BlockSpec> blocks,
                           const FloorplanOptions& opt) {
  const int n = static_cast<int>(blocks.size());
  LAC_CHECK(n >= 1);
  obs::Span span("floorplan.anneal");
  span.annotate("blocks", n);
  Rng rng(opt.seed ^ 0xF10077ULL);

  SequencePair sp = SequencePair::identity(n);
  // Random initial permutations.
  for (int i = n - 1; i > 0; --i) {
    std::swap(sp.p[static_cast<std::size_t>(i)],
              sp.p[rng.uniform(static_cast<std::uint64_t>(i + 1))]);
    std::swap(sp.q[static_cast<std::size_t>(i)],
              sp.q[rng.uniform(static_cast<std::uint64_t>(i + 1))]);
  }
  std::vector<double> aspect(static_cast<std::size_t>(n), 1.0);
  // dims[b] = dims_for(block b, aspect[b]), kept current move by move.
  std::vector<std::pair<Coord, Coord>> dims;
  dims.reserve(static_cast<std::size_t>(n));
  for (int b = 0; b < n; ++b)
    dims.push_back(dims_for(blocks[static_cast<std::size_t>(b)],
                            aspect[static_cast<std::size_t>(b)]));
  // Every move is made in place, costed by packing into reused scratch,
  // and undone if rejected.
  Packing scratch;
  std::vector<int> pos_q;
  auto cost_now = [&] {
    pack(sp, dims, scratch, pos_q);
    return packing_cost(scratch);
  };

  double cost = cost_now();
  SequencePair best_sp = sp;
  std::vector<double> best_aspect = aspect;
  double best_cost = cost;

  // Calibrate T0 from the average uphill delta of a random-move sample.
  double avg_delta = 0.0;
  {
    int samples = 0;
    for (int s = 0; s < 50; ++s) {
      const int i = static_cast<int>(rng.uniform(static_cast<std::uint64_t>(n)));
      const int j = static_cast<int>(rng.uniform(static_cast<std::uint64_t>(n)));
      std::swap(sp.p[static_cast<std::size_t>(i)],
                sp.p[static_cast<std::size_t>(j)]);
      const double d = cost_now() - cost;
      std::swap(sp.p[static_cast<std::size_t>(i)],
                sp.p[static_cast<std::size_t>(j)]);
      if (d > 0) {
        avg_delta += d;
        ++samples;
      }
    }
    if (samples > 0) avg_delta /= samples;
    if (avg_delta <= 0) avg_delta = std::max(1.0, cost * 0.01);
  }
  double temp = -avg_delta / std::log(opt.initial_accept_prob);
  const double temp0 = temp;
  const double initial_cost = cost;

  const int moves_per_temp = std::max(10, 4 * n);
  const int total_moves = std::max(200, opt.sa_moves_per_block * n);
  int accepted_total = 0;
  int accepted_stage = 0;
  std::vector<double> accept_trajectory;  // accept rate per cooling stage
  std::vector<double> temp_trajectory;
  for (int move = 0; move < total_moves; ++move) {
    const double kind = rng.uniform_real();
    const int i = static_cast<int>(rng.uniform(static_cast<std::uint64_t>(n)));
    const int j = static_cast<int>(rng.uniform(static_cast<std::uint64_t>(n)));
    const auto si = static_cast<std::size_t>(i);
    // A swap in p, in q or in both, or (kind ≥ 0.85) a reshape.  Each swap
    // is its own inverse.
    const bool in_p = kind < 0.35 || (kind >= 0.70 && kind < 0.85);
    const bool in_q = kind >= 0.35 && kind < 0.85;
    auto swap_moves = [&] {
      if (in_p) std::swap(sp.p[si], sp.p[static_cast<std::size_t>(j)]);
      if (in_q) std::swap(sp.q[si], sp.q[static_cast<std::size_t>(j)]);
    };
    const double old_aspect = aspect[si];
    const std::pair<Coord, Coord> old_dims = dims[si];
    swap_moves();
    if (kind >= 0.85) {
      // Reshape a random soft block within its aspect range (hard blocks
      // have no shaping freedom; retry cheaply by falling through).
      const auto& b = blocks[si];
      if (!b.hard) {
        const double lo = b.aspect_min, hi = b.aspect_max;
        aspect[si] = lo + (hi - lo) * rng.uniform_real();
        dims[si] = dims_for(b, aspect[si]);
      }
    }
    const double trial_cost = cost_now();
    const double delta = trial_cost - cost;
    if (delta <= 0 || rng.uniform_real() < std::exp(-delta / temp)) {
      cost = trial_cost;
      ++accepted_total;
      ++accepted_stage;
      if (cost < best_cost) {
        best_cost = cost;
        best_sp = sp;
        best_aspect = aspect;
      }
    } else {
      swap_moves();
      aspect[si] = old_aspect;
      dims[si] = old_dims;
    }
    if ((move + 1) % moves_per_temp == 0) {
      const double rate =
          static_cast<double>(accepted_stage) / moves_per_temp;
      accept_trajectory.push_back(rate);
      temp_trajectory.push_back(temp);
      obs::observe("floorplan.stage_accept_rate", rate);
      accepted_stage = 0;
      temp *= opt.cooling;
    }
  }

  // Final packing of the best state, then spread to realise whitespace.
  for (int b = 0; b < n; ++b)
    dims[static_cast<std::size_t>(b)] =
        dims_for(blocks[static_cast<std::size_t>(b)],
                 best_aspect[static_cast<std::size_t>(b)]);
  const Packing pk = pack(best_sp, dims);

  double block_area = 0.0;
  for (const auto& [w, h] : dims)
    block_area += static_cast<double>(w) * static_cast<double>(h);
  const double packed_area =
      static_cast<double>(pk.width) * static_cast<double>(pk.height);
  const double want_chip_area =
      block_area / std::max(1e-9, 1.0 - opt.whitespace_target);
  const double scale =
      std::max(1.0, std::sqrt(want_chip_area / std::max(packed_area, 1.0)));

  Floorplan fp;
  fp.blocks = std::move(blocks);
  fp.placement.reserve(static_cast<std::size_t>(n));
  Coord chip_w = 0, chip_h = 0;
  for (int b = 0; b < n; ++b) {
    const Point o = pk.origin[static_cast<std::size_t>(b)];
    const Point so{static_cast<Coord>(std::llround(static_cast<double>(o.x) * scale)),
                   static_cast<Coord>(std::llround(static_cast<double>(o.y) * scale))};
    const Rect r{so, {so.x + dims[static_cast<std::size_t>(b)].first,
                      so.y + dims[static_cast<std::size_t>(b)].second}};
    chip_w = std::max(chip_w, r.hi.x);
    chip_h = std::max(chip_h, r.hi.y);
    fp.placement.push_back(r);
  }
  // A thin boundary channel around the core keeps I/O routing resources.
  const Coord margin = std::max<Coord>(1, (chip_w + chip_h) / 100);
  fp.chip = Rect{{0, 0}, {chip_w + margin, chip_h + margin}};
  for (auto& r : fp.placement) {
    r.lo.x += margin / 2;
    r.lo.y += margin / 2;
    r.hi.x += margin / 2;
    r.hi.y += margin / 2;
  }
  fp.whitespace_fraction = 1.0 - block_area / fp.chip.area();

  if (span.recording()) {
    span.annotate("moves", total_moves);
    span.annotate("accepted", accepted_total);
    span.annotate("accept_rate",
                  static_cast<double>(accepted_total) / total_moves);
    span.annotate("temp0", temp0);
    span.annotate("temp_final", temp);
    span.annotate("initial_cost", initial_cost);
    span.annotate("best_cost", best_cost);
    span.annotate("whitespace_fraction", fp.whitespace_fraction);
    span.annotate("chip_w", fp.chip.width());
    span.annotate("chip_h", fp.chip.height());
    // Cooling trajectory, evenly sampled down to at most 64 points so the
    // annotation stays bounded for large designs.
    const std::size_t stages = accept_trajectory.size();
    const std::size_t step = std::max<std::size_t>(1, (stages + 63) / 64);
    std::string accept_str, temp_str;
    for (std::size_t s = 0; s < stages; s += step) {
      if (!accept_str.empty()) {
        accept_str += ',';
        temp_str += ',';
      }
      accept_str += format_double(accept_trajectory[s], 3);
      temp_str += format_double(temp_trajectory[s], 3);
    }
    span.annotate("accept_rate_trajectory", accept_str);
    span.annotate("temp_trajectory", temp_str);
  }
  obs::count("floorplan.anneals");
  obs::count("floorplan.moves", total_moves);

  // Invariant: pairwise disjoint interiors.
  for (int a = 0; a < n; ++a)
    for (int b = a + 1; b < n; ++b)
      LAC_CHECK_MSG(!fp.placement[static_cast<std::size_t>(a)].overlaps(
                        fp.placement[static_cast<std::size_t>(b)]),
                    "floorplanner produced overlapping blocks " << a << "," << b);
  return fp;
}

Floorplan refloorplan_expanded(const Floorplan& prev,
                               const std::vector<double>& new_area,
                               double extra_whitespace,
                               const FloorplanOptions& opt) {
  LAC_CHECK(static_cast<int>(new_area.size()) == prev.num_blocks());
  std::vector<BlockSpec> blocks = prev.blocks;
  for (int b = 0; b < prev.num_blocks(); ++b) {
    auto& spec = blocks[static_cast<std::size_t>(b)];
    if (spec.hard) continue;  // hard blocks cannot grow
    LAC_CHECK(new_area[static_cast<std::size_t>(b)] >= spec.area * 0.999);
    spec.area = new_area[static_cast<std::size_t>(b)];
  }
  FloorplanOptions o = opt;
  o.whitespace_target = std::min(0.9, opt.whitespace_target + extra_whitespace);
  return floorplan_blocks(std::move(blocks), o);
}

std::optional<Floorplan> resize_block_in_place(const Floorplan& prev,
                                               int block, double new_area) {
  LAC_CHECK(block >= 0 && block < prev.num_blocks());
  LAC_CHECK(new_area > 0.0);
  if (prev.blocks[static_cast<std::size_t>(block)].hard) return std::nullopt;

  const Rect r = prev.placement[static_cast<std::size_t>(block)];
  auto legal = [&](const Rect& cand) {
    if (cand.width() < 1 || cand.height() < 1) return false;
    if (cand.lo.x < prev.chip.lo.x || cand.lo.y < prev.chip.lo.y ||
        cand.hi.x > prev.chip.hi.x || cand.hi.y > prev.chip.hi.y)
      return false;
    for (int b = 0; b < prev.num_blocks(); ++b)
      if (b != block &&
          cand.overlaps(prev.placement[static_cast<std::size_t>(b)]))
        return false;
    return true;
  };

  // Candidate rects in a fixed order; the first legal one wins, so the
  // edit is deterministic.  Width changes keep the height and vice versa.
  const Coord w_for_h = std::max<Coord>(
      1, static_cast<Coord>(std::ceil(new_area / static_cast<double>(r.height()))));
  const Coord h_for_w = std::max<Coord>(
      1, static_cast<Coord>(std::ceil(new_area / static_cast<double>(r.width()))));
  const Rect candidates[] = {
      {r.lo, {r.lo.x + w_for_h, r.hi.y}},              // right edge moves
      {{r.hi.x - w_for_h, r.lo.y}, r.hi},              // left edge moves
      {r.lo, {r.hi.x, r.lo.y + h_for_w}},              // top edge moves
      {{r.lo.x, r.hi.y - h_for_w}, r.hi},              // bottom edge moves
  };
  for (const Rect& cand : candidates) {
    if (!legal(cand)) continue;
    Floorplan fp = prev;
    fp.placement[static_cast<std::size_t>(block)] = cand;
    fp.blocks[static_cast<std::size_t>(block)].area = new_area;
    double block_area = 0.0;
    for (const BlockSpec& b : fp.blocks) block_area += b.area;
    fp.whitespace_fraction = 1.0 - block_area / fp.chip.area();
    return fp;
  }
  return std::nullopt;
}

}  // namespace lac::floorplan
