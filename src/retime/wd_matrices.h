// Leiserson–Saxe W and D matrices.
//
//   W(u,v) = minimum flip-flop count over all paths u -> v;
//   D(u,v) = maximum total vertex delay among the minimum-weight paths.
//
// Computed with Johnson's technique on the scalarised lexicographic cost
//   cost(e) = w(e) * BIG - d(tail(e)),   BIG > Σ_v d(v),
// which makes lexicographic (W, -delay) minimisation a single shortest-path
// problem.  Costs can be negative (w = 0 edges), but every cycle has w >= 1
// in a valid sequential circuit so there is no negative cycle; one
// Bellman–Ford pass produces potentials for per-source Dijkstra.
//
// The full matrices take O(V^2) * 8 bytes; for the circuit sizes of the
// paper's evaluation (a few thousand vertices including interconnect
// units) this is tens to a couple of hundred MB, computed once per
// planning run exactly as the paper notes ("the clock period constraints
// are generated only once").
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "base/exec_policy.h"
#include "retime/retiming_graph.h"

namespace lac::retime {

class WdMatrices {
 public:
  static constexpr std::int32_t kUnreachable =
      std::numeric_limits<std::int32_t>::max();

  // The per-source sweeps write disjoint rows, so they parallelise under
  // `exec` with bitwise-identical results for any thread count.  The
  // single-argument form runs sequentially.  This is compute_incremental
  // from an empty previous matrix.
  [[nodiscard]] static WdMatrices compute(const RetimingGraph& g) {
    return compute(g, base::ExecPolicy::sequential());
  }
  [[nodiscard]] static WdMatrices compute(const RetimingGraph& g,
                                          const base::ExecPolicy& exec);

  // Incremental recompute across an ECO.  `prev` was computed on `prev_g`;
  // `new_to_old[v]` gives v's counterpart in prev_g, or -1 when v is new.
  // A source row is copied from `prev` (columns permuted through the
  // mapping) when the source provably cannot reach — in g — any *changed*
  // vertex: one that is new, has a different delay, or whose out-edge list
  // differs under the mapping.  W/D entries are intrinsic path properties
  // (register count / path delay), independent of the BIG scalarisation
  // constant, so the result is bit-identical to compute(g, exec) for any
  // thread count.  `rows_rebuilt` (optional) receives the number of
  // per-source Dijkstra runs actually performed.  An empty `prev`
  // (default-constructed, n() == 0) stands for no previous run: every
  // entry of `new_to_old` must then be -1, and every row is rebuilt.  A
  // mapping that sends two vertices to one old vertex throws CheckError.
  [[nodiscard]] static WdMatrices compute_incremental(
      const RetimingGraph& g, const base::ExecPolicy& exec,
      const RetimingGraph& prev_g, const WdMatrices& prev,
      const std::vector<int>& new_to_old,
      std::int64_t* rows_rebuilt = nullptr);

  [[nodiscard]] int n() const { return n_; }
  // W(u,v); kUnreachable when no u->v path exists.  W(v,v) = 0 by
  // convention (the empty path).
  [[nodiscard]] std::int32_t w(int u, int v) const {
    return w_[static_cast<std::size_t>(u) * static_cast<std::size_t>(n_) +
              static_cast<std::size_t>(v)];
  }
  // D(u,v) in deci-ps; meaningful only when w(u,v) != kUnreachable.
  [[nodiscard]] std::int32_t d_decips(int u, int v) const {
    return d_[static_cast<std::size_t>(u) * static_cast<std::size_t>(n_) +
              static_cast<std::size_t>(v)];
  }
  [[nodiscard]] double d_ps(int u, int v) const {
    return from_decips(d_decips(u, v));
  }

  // Minimum feasible clock period with the registers where they are:
  // max { D(u,v) : W(u,v) = 0 }  (covers single vertices via D(v,v)=d(v)).
  [[nodiscard]] double t_init_ps() const { return from_decips(t_init_); }

  // Trivial lower bound for any feasible period: the largest single-vertex
  // delay (deci-ps).  One of the min-period search's starting bounds.
  [[nodiscard]] std::int32_t max_vertex_delay_decips() const {
    return max_vertex_delay_;
  }

  // Logical heap footprint of the two dense matrices (element count ×
  // element size, not allocator capacity) — deterministic for any thread
  // count, reported as the mem.wd_bytes gauge.
  [[nodiscard]] std::int64_t bytes_used() const {
    return static_cast<std::int64_t>(w_.size() * sizeof(std::int32_t) +
                                     d_.size() * sizeof(std::int32_t));
  }

 private:
  int n_ = 0;
  std::vector<std::int32_t> w_;
  std::vector<std::int32_t> d_;
  std::int32_t t_init_ = 0;
  std::int32_t max_vertex_delay_ = 0;
};

}  // namespace lac::retime
