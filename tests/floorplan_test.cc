#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "base/check.h"
#include "base/rng.h"
#include "floorplan/floorplanner.h"
#include "floorplan/sequence_pair.h"

namespace lac::floorplan {
namespace {

// O(n^2) reference packing: derive pairwise relations directly from the
// definition and longest-path over an explicit constraint graph.
Packing reference_pack(const SequencePair& sp,
                       const std::vector<std::pair<Coord, Coord>>& dims) {
  const int n = static_cast<int>(dims.size());
  std::vector<int> pp(static_cast<std::size_t>(n)), pq(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    pp[static_cast<std::size_t>(sp.p[static_cast<std::size_t>(i)])] = i;
    pq[static_cast<std::size_t>(sp.q[static_cast<std::size_t>(i)])] = i;
  }
  auto left_of = [&](int b, int c) {
    return pp[static_cast<std::size_t>(b)] < pp[static_cast<std::size_t>(c)] &&
           pq[static_cast<std::size_t>(b)] < pq[static_cast<std::size_t>(c)];
  };
  auto below = [&](int b, int c) {
    return pp[static_cast<std::size_t>(b)] > pp[static_cast<std::size_t>(c)] &&
           pq[static_cast<std::size_t>(b)] < pq[static_cast<std::size_t>(c)];
  };
  Packing out;
  out.origin.assign(static_cast<std::size_t>(n), Point{0, 0});
  // Fixed-point longest path (n is tiny in tests).
  bool changed = true;
  while (changed) {
    changed = false;
    for (int b = 0; b < n; ++b)
      for (int c = 0; c < n; ++c) {
        if (b == c) continue;
        if (left_of(b, c)) {
          const Coord need = out.origin[static_cast<std::size_t>(b)].x +
                             dims[static_cast<std::size_t>(b)].first;
          if (out.origin[static_cast<std::size_t>(c)].x < need) {
            out.origin[static_cast<std::size_t>(c)].x = need;
            changed = true;
          }
        }
        if (below(b, c)) {
          const Coord need = out.origin[static_cast<std::size_t>(b)].y +
                             dims[static_cast<std::size_t>(b)].second;
          if (out.origin[static_cast<std::size_t>(c)].y < need) {
            out.origin[static_cast<std::size_t>(c)].y = need;
            changed = true;
          }
        }
      }
  }
  for (int b = 0; b < n; ++b) {
    out.width = std::max(out.width, out.origin[static_cast<std::size_t>(b)].x +
                                        dims[static_cast<std::size_t>(b)].first);
    out.height = std::max(out.height, out.origin[static_cast<std::size_t>(b)].y +
                                          dims[static_cast<std::size_t>(b)].second);
  }
  return out;
}

TEST(SequencePair, IdentityPacksIntoRow) {
  // Identity SP: every earlier block is left of every later one.
  const auto sp = SequencePair::identity(3);
  const std::vector<std::pair<Coord, Coord>> dims{{2, 5}, {3, 1}, {4, 2}};
  const auto pk = pack(sp, dims);
  EXPECT_EQ(pk.width, 9);
  EXPECT_EQ(pk.height, 5);
  EXPECT_EQ(pk.origin[0], (Point{0, 0}));
  EXPECT_EQ(pk.origin[1], (Point{2, 0}));
  EXPECT_EQ(pk.origin[2], (Point{5, 0}));
}

TEST(SequencePair, ReversedQPacksIntoColumn) {
  SequencePair sp;
  sp.p = {0, 1, 2};
  sp.q = {2, 1, 0};
  const std::vector<std::pair<Coord, Coord>> dims{{2, 2}, {2, 2}, {2, 2}};
  const auto pk = pack(sp, dims);
  EXPECT_EQ(pk.width, 2);
  EXPECT_EQ(pk.height, 6);
}

TEST(SequencePair, MatchesReferenceOnRandomInstances) {
  Rng rng(17);
  // Shared across instances of different sizes, as the annealer reuses it.
  Packing reused;
  std::vector<int> pos_q;
  for (int trial = 0; trial < 40; ++trial) {
    const int n = 2 + static_cast<int>(rng.uniform(6));
    SequencePair sp = SequencePair::identity(n);
    for (int i = n - 1; i > 0; --i) {
      std::swap(sp.p[static_cast<std::size_t>(i)],
                sp.p[rng.uniform(static_cast<std::uint64_t>(i + 1))]);
      std::swap(sp.q[static_cast<std::size_t>(i)],
                sp.q[rng.uniform(static_cast<std::uint64_t>(i + 1))]);
    }
    std::vector<std::pair<Coord, Coord>> dims;
    for (int i = 0; i < n; ++i)
      dims.emplace_back(1 + static_cast<Coord>(rng.uniform(9)),
                        1 + static_cast<Coord>(rng.uniform(9)));
    const auto a = pack(sp, dims);
    const auto b = reference_pack(sp, dims);
    EXPECT_EQ(a.width, b.width);
    EXPECT_EQ(a.height, b.height);
    for (int i = 0; i < n; ++i)
      EXPECT_EQ(a.origin[static_cast<std::size_t>(i)],
                b.origin[static_cast<std::size_t>(i)]);
    pack(sp, dims, reused, pos_q);
    EXPECT_EQ(reused.width, b.width);
    EXPECT_EQ(reused.height, b.height);
    EXPECT_EQ(reused.origin, b.origin);
  }
}

std::vector<BlockSpec> make_blocks(int n, Rng& rng, bool with_hard = false) {
  std::vector<BlockSpec> blocks(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto& b = blocks[static_cast<std::size_t>(i)];
    b.name += 'b';
    b.name += std::to_string(i);
    b.area = 1000.0 + static_cast<double>(rng.uniform(9000));
    if (with_hard && i % 3 == 0) {
      b.hard = true;
      const Coord side = static_cast<Coord>(std::lround(std::sqrt(b.area)));
      b.fixed_w = side;
      b.fixed_h = side + 3;
    }
  }
  return blocks;
}

// Reference annealer that copies the sequence pair and the aspects for
// every move, rebuilds every block's dimensions and packs into fresh
// vectors.  The in-place loop of floorplan_blocks must draw the same
// random numbers, accept the same moves and return the same floorplan.
Floorplan copying_floorplan_blocks(std::vector<BlockSpec> blocks,
                                   const FloorplanOptions& opt) {
  auto dims_for = [](const BlockSpec& b, double aspect) {
    if (b.hard) return std::pair<Coord, Coord>{b.fixed_w, b.fixed_h};
    const double w = std::sqrt(b.area * aspect);
    const Coord wi = std::max<Coord>(1, static_cast<Coord>(std::lround(w)));
    const Coord hi = std::max<Coord>(
        1, static_cast<Coord>(std::ceil(b.area / static_cast<double>(wi))));
    return std::pair<Coord, Coord>{wi, hi};
  };
  auto packing_cost = [](const Packing& pk) {
    const double area =
        static_cast<double>(pk.width) * static_cast<double>(pk.height);
    const double ar = pk.height == 0 ? 1.0
                                     : static_cast<double>(pk.width) /
                                           static_cast<double>(pk.height);
    const double squareness = std::max(ar, 1.0 / std::max(ar, 1e-9)) - 1.0;
    return area * (1.0 + 0.1 * squareness);
  };
  const int n = static_cast<int>(blocks.size());
  const auto sn = static_cast<std::size_t>(n);
  Rng rng(opt.seed ^ 0xF10077ULL);
  SequencePair sp = SequencePair::identity(n);
  for (int i = n - 1; i > 0; --i) {
    std::swap(sp.p[static_cast<std::size_t>(i)],
              sp.p[rng.uniform(static_cast<std::uint64_t>(i + 1))]);
    std::swap(sp.q[static_cast<std::size_t>(i)],
              sp.q[rng.uniform(static_cast<std::uint64_t>(i + 1))]);
  }
  std::vector<double> aspect(sn, 1.0);
  auto all_dims = [&](const std::vector<double>& a) {
    std::vector<std::pair<Coord, Coord>> dims;
    for (std::size_t b = 0; b < sn; ++b)
      dims.push_back(dims_for(blocks[b], a[b]));
    return dims;
  };
  double cost = packing_cost(pack(sp, all_dims(aspect)));
  SequencePair best_sp = sp;
  std::vector<double> best_aspect = aspect;
  double best_cost = cost;
  double avg_delta = 0.0;
  int samples = 0;
  for (int s = 0; s < 50; ++s) {
    SequencePair trial = sp;
    const auto i = static_cast<std::size_t>(rng.uniform(sn));
    const auto j = static_cast<std::size_t>(rng.uniform(sn));
    std::swap(trial.p[i], trial.p[j]);
    const double d = packing_cost(pack(trial, all_dims(aspect))) - cost;
    if (d > 0) {
      avg_delta += d;
      ++samples;
    }
  }
  if (samples > 0) avg_delta /= samples;
  if (avg_delta <= 0) avg_delta = std::max(1.0, cost * 0.01);
  double temp = -avg_delta / std::log(opt.initial_accept_prob);
  const int moves_per_temp = std::max(10, 4 * n);
  const int total_moves = std::max(200, opt.sa_moves_per_block * n);
  for (int move = 0; move < total_moves; ++move) {
    SequencePair trial = sp;
    std::vector<double> trial_aspect = aspect;
    const double kind = rng.uniform_real();
    const auto i = static_cast<std::size_t>(rng.uniform(sn));
    const auto j = static_cast<std::size_t>(rng.uniform(sn));
    if (kind < 0.35) {
      std::swap(trial.p[i], trial.p[j]);
    } else if (kind < 0.70) {
      std::swap(trial.q[i], trial.q[j]);
    } else if (kind < 0.85) {
      std::swap(trial.p[i], trial.p[j]);
      std::swap(trial.q[i], trial.q[j]);
    } else if (!blocks[i].hard) {
      trial_aspect[i] =
          blocks[i].aspect_min +
          (blocks[i].aspect_max - blocks[i].aspect_min) * rng.uniform_real();
    }
    const double trial_cost = packing_cost(pack(trial, all_dims(trial_aspect)));
    const double delta = trial_cost - cost;
    if (delta <= 0 || rng.uniform_real() < std::exp(-delta / temp)) {
      sp = std::move(trial);
      aspect = std::move(trial_aspect);
      cost = trial_cost;
      if (cost < best_cost) {
        best_cost = cost;
        best_sp = sp;
        best_aspect = aspect;
      }
    }
    if ((move + 1) % moves_per_temp == 0) temp *= opt.cooling;
  }
  const auto dims = all_dims(best_aspect);
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
  Coord chip_w = 0, chip_h = 0;
  for (std::size_t b = 0; b < sn; ++b) {
    const Point o = pk.origin[b];
    const Point so{
        static_cast<Coord>(std::llround(static_cast<double>(o.x) * scale)),
        static_cast<Coord>(std::llround(static_cast<double>(o.y) * scale))};
    const Rect r{so, {so.x + dims[b].first, so.y + dims[b].second}};
    chip_w = std::max(chip_w, r.hi.x);
    chip_h = std::max(chip_h, r.hi.y);
    fp.placement.push_back(r);
  }
  const Coord margin = std::max<Coord>(1, (chip_w + chip_h) / 100);
  fp.chip = Rect{{0, 0}, {chip_w + margin, chip_h + margin}};
  for (auto& r : fp.placement) {
    r.lo.x += margin / 2;
    r.lo.y += margin / 2;
    r.hi.x += margin / 2;
    r.hi.y += margin / 2;
  }
  fp.whitespace_fraction = 1.0 - block_area / fp.chip.area();
  return fp;
}

TEST(Floorplanner, InPlaceAnnealMatchesCopyingLoop) {
  Rng rng(23);
  for (int trial = 0; trial < 24; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const int n = 1 + trial % 12;
    // Every other set mixes in hard blocks (whose reshape moves change
    // nothing); the soft blocks get varied aspect ranges.
    auto blocks = make_blocks(n, rng, /*with_hard=*/trial % 2 == 1);
    for (auto& b : blocks) {
      b.aspect_min = 0.25 + static_cast<double>(rng.uniform(4)) / 8.0;
      b.aspect_max = b.aspect_min + 0.5 + static_cast<double>(rng.uniform(8)) / 4.0;
    }
    FloorplanOptions opt;
    opt.seed = 1 + static_cast<std::uint64_t>(trial);
    opt.sa_moves_per_block = 50 + 25 * (trial % 4);
    opt.whitespace_target = 0.15 + 0.05 * (trial % 3);
    const Floorplan got = floorplan_blocks(blocks, opt);
    const Floorplan want = copying_floorplan_blocks(blocks, opt);
    EXPECT_EQ(got.chip, want.chip);
    EXPECT_EQ(got.placement, want.placement);
    EXPECT_EQ(got.whitespace_fraction, want.whitespace_fraction);
  }
}

TEST(Floorplanner, NoOverlapsAndInsideChip) {
  Rng rng(4);
  const auto fp = floorplan_blocks(make_blocks(8, rng));
  for (int a = 0; a < fp.num_blocks(); ++a) {
    const auto& ra = fp.placement[static_cast<std::size_t>(a)];
    EXPECT_GE(ra.lo.x, fp.chip.lo.x);
    EXPECT_GE(ra.lo.y, fp.chip.lo.y);
    EXPECT_LE(ra.hi.x, fp.chip.hi.x);
    EXPECT_LE(ra.hi.y, fp.chip.hi.y);
    for (int b = a + 1; b < fp.num_blocks(); ++b)
      EXPECT_FALSE(ra.overlaps(fp.placement[static_cast<std::size_t>(b)]));
  }
}

TEST(Floorplanner, RealisesWhitespaceTarget) {
  Rng rng(6);
  FloorplanOptions opt;
  opt.whitespace_target = 0.3;
  const auto fp = floorplan_blocks(make_blocks(10, rng), opt);
  EXPECT_GE(fp.whitespace_fraction, 0.25);
  EXPECT_LE(fp.whitespace_fraction, 0.55);
}

TEST(Floorplanner, SoftBlocksGetRequestedArea) {
  Rng rng(8);
  const auto blocks = make_blocks(6, rng);
  const auto fp = floorplan_blocks(blocks);
  for (int b = 0; b < fp.num_blocks(); ++b)
    EXPECT_GE(fp.placement[static_cast<std::size_t>(b)].area(),
              blocks[static_cast<std::size_t>(b)].area * 0.98);
}

TEST(Floorplanner, HardBlocksKeepDimensions) {
  Rng rng(12);
  const auto blocks = make_blocks(9, rng, /*with_hard=*/true);
  const auto fp = floorplan_blocks(blocks);
  for (int b = 0; b < fp.num_blocks(); ++b) {
    if (!blocks[static_cast<std::size_t>(b)].hard) continue;
    const auto& r = fp.placement[static_cast<std::size_t>(b)];
    const bool straight =
        r.width() == blocks[static_cast<std::size_t>(b)].fixed_w &&
        r.height() == blocks[static_cast<std::size_t>(b)].fixed_h;
    EXPECT_TRUE(straight) << "block " << b;
  }
}

TEST(Floorplanner, BlockAtFindsOwner) {
  Rng rng(2);
  const auto fp = floorplan_blocks(make_blocks(5, rng));
  for (int b = 0; b < fp.num_blocks(); ++b) {
    const auto c = fp.placement[static_cast<std::size_t>(b)].center();
    EXPECT_EQ(fp.block_at(c).value(), b);
  }
}

TEST(Floorplanner, DeterministicForSeed) {
  Rng rng1(3), rng2(3);
  FloorplanOptions opt;
  opt.seed = 77;
  const auto a = floorplan_blocks(make_blocks(7, rng1), opt);
  const auto b = floorplan_blocks(make_blocks(7, rng2), opt);
  ASSERT_EQ(a.num_blocks(), b.num_blocks());
  for (int i = 0; i < a.num_blocks(); ++i)
    EXPECT_EQ(a.placement[static_cast<std::size_t>(i)],
              b.placement[static_cast<std::size_t>(i)]);
}

TEST(Floorplanner, SingleBlock) {
  std::vector<BlockSpec> blocks(1);
  blocks[0].name = "only";
  blocks[0].area = 400.0;
  const auto fp = floorplan_blocks(blocks);
  EXPECT_EQ(fp.num_blocks(), 1);
  EXPECT_GE(fp.placement[0].area(), 400.0 * 0.95);
}

TEST(Floorplanner, RefloorplanGrowsBlocks) {
  Rng rng(5);
  const auto blocks = make_blocks(6, rng);
  FloorplanOptions opt;
  opt.seed = 10;
  const auto fp = floorplan_blocks(blocks, opt);
  std::vector<double> new_area;
  for (const auto& b : fp.blocks) new_area.push_back(b.area * 1.5);
  const auto fp2 = refloorplan_expanded(fp, new_area, 0.05, opt);
  for (int b = 0; b < fp2.num_blocks(); ++b)
    EXPECT_GE(fp2.placement[static_cast<std::size_t>(b)].area(),
              new_area[static_cast<std::size_t>(b)] * 0.98);
  EXPECT_GT(fp2.chip.area(), fp.chip.area());
}

TEST(Floorplanner, RefloorplanRejectsShrinking) {
  Rng rng(5);
  const auto fp = floorplan_blocks(make_blocks(3, rng));
  std::vector<double> smaller;
  for (const auto& b : fp.blocks) smaller.push_back(b.area * 0.5);
  EXPECT_THROW(refloorplan_expanded(fp, smaller, 0.0), CheckError);
}

}  // namespace
}  // namespace lac::floorplan
