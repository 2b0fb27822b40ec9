// Sequence-pair floorplan representation and packing.
//
// A sequence pair (Murata et al.) encodes pairwise left-of / below
// relations between blocks with two permutations p, q:
//   * b before c in BOTH p and q  ->  b is left of c;
//   * b before c in p, after in q ->  b is above c (equivalently c below b).
// Packing evaluates the longest paths in the induced horizontal and
// vertical constraint graphs; we use the direct O(n^2) relation scan, which
// is plenty for the paper's block counts (tens of blocks).
#pragma once

#include <cstdint>
#include <vector>

#include "base/geometry.h"

namespace lac::floorplan {

struct SequencePair {
  std::vector<int> p;  // first sequence (block indices)
  std::vector<int> q;  // second sequence

  [[nodiscard]] static SequencePair identity(int n);
};

struct Packing {
  std::vector<Point> origin;  // lower-left corner per block
  Coord width = 0;            // bounding box of the packing
  Coord height = 0;
};

// dims[b] = (w, h) of block b.  Runs the two longest-path evaluations.
[[nodiscard]] Packing pack(const SequencePair& sp,
                           const std::vector<std::pair<Coord, Coord>>& dims);

// The same packing written into `out`, reusing its storage and that of
// `pos_q` (scratch: each block's position in q), so a caller that packs
// over and over — the annealer — allocates nothing once both are sized.
void pack(const SequencePair& sp,
          const std::vector<std::pair<Coord, Coord>>& dims, Packing& out,
          std::vector<int>& pos_q);

}  // namespace lac::floorplan
