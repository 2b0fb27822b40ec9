#include "floorplan/sequence_pair.h"

#include <algorithm>
#include <numeric>

#include "base/check.h"

namespace lac::floorplan {

SequencePair SequencePair::identity(int n) {
  SequencePair sp;
  sp.p.resize(static_cast<std::size_t>(n));
  sp.q.resize(static_cast<std::size_t>(n));
  std::iota(sp.p.begin(), sp.p.end(), 0);
  std::iota(sp.q.begin(), sp.q.end(), 0);
  return sp;
}

Packing pack(const SequencePair& sp,
             const std::vector<std::pair<Coord, Coord>>& dims) {
  Packing out;
  std::vector<int> pos_q;
  pack(sp, dims, out, pos_q);
  return out;
}

void pack(const SequencePair& sp,
          const std::vector<std::pair<Coord, Coord>>& dims, Packing& out,
          std::vector<int>& pos_q) {
  const int n = static_cast<int>(dims.size());
  LAC_CHECK(static_cast<int>(sp.p.size()) == n);
  LAC_CHECK(static_cast<int>(sp.q.size()) == n);

  pos_q.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    pos_q[static_cast<std::size_t>(sp.q[static_cast<std::size_t>(i)])] = i;

  out.origin.resize(static_cast<std::size_t>(n));
  out.width = 0;
  out.height = 0;

  // x-coordinates: process blocks in p-order; for each block, x = max over
  // already-processed blocks that are left-of it.  Left-of(b, c) iff b
  // precedes c in both sequences.  Processing in p-order guarantees all
  // left-of predecessors are already placed.
  for (int i = 0; i < n; ++i) {
    const int c = sp.p[static_cast<std::size_t>(i)];
    Coord best = 0;
    for (int j = 0; j < i; ++j) {
      const int b = sp.p[static_cast<std::size_t>(j)];
      if (pos_q[static_cast<std::size_t>(b)] < pos_q[static_cast<std::size_t>(c)])
        best = std::max(best, out.origin[static_cast<std::size_t>(b)].x +
                                  dims[static_cast<std::size_t>(b)].first);
    }
    out.origin[static_cast<std::size_t>(c)].x = best;
    out.width = std::max(out.width, best + dims[static_cast<std::size_t>(c)].first);
  }

  // y-coordinates: below(b, c) iff b is after c in p and before c in q.
  // Process in reverse p-order so below-predecessors are already placed.
  for (int i = n - 1; i >= 0; --i) {
    const int c = sp.p[static_cast<std::size_t>(i)];
    Coord best = 0;
    for (int j = n - 1; j > i; --j) {
      const int b = sp.p[static_cast<std::size_t>(j)];
      if (pos_q[static_cast<std::size_t>(b)] < pos_q[static_cast<std::size_t>(c)])
        best = std::max(best, out.origin[static_cast<std::size_t>(b)].y +
                                  dims[static_cast<std::size_t>(b)].second);
    }
    out.origin[static_cast<std::size_t>(c)].y = best;
    out.height =
        std::max(out.height, best + dims[static_cast<std::size_t>(c)].second);
  }
}

}  // namespace lac::floorplan
