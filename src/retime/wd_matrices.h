// Leiserson–Saxe W and D, one source row at a time.
//
//   W(u,v) = minimum flip-flop count over all paths u -> v;
//   D(u,v) = maximum total vertex delay among the minimum-weight paths.
//
// The matrices themselves are never stored.  WdMatrices is an O(V+E)
// index of the graph — a CSR snapshot whose vertices are numbered by their
// topological rank in the register-free (w = 0) subgraph, which is a DAG in
// every valid sequential circuit — and row(u, scratch) computes row u on
// demand.  The row search settles vertices in ascending (W, rank) order:
// edges never lower W, and a w = 0 edge always climbs in rank, so when a
// vertex is settled its W is final and every tight predecessor has already
// pushed its delay into D.  No potentials and no scalarisation are needed.
// The queue is a ring of max(w) + 1 bitmaps over the ranks, one per W
// level in flight, so a worker's scratch is 12·V bytes plus
// (max(w) + 1)·V/8 bytes of bitmaps.
//
// The clock constraints (constraints.h) are generated from these rows
// inside one sweep per period; the per-source formulation is Shenoy and
// Rudell's ("Efficient implementation of retiming", ICCAD 1994).  The
// index also carries the landmarks the min-period search starts from —
// T_init, the largest unit delay and the register-free I/O path bound —
// each computed by one pass over the DAG.
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

  // Per-worker scratch of row(): O(V) arrays plus the bitmap ring, reused
  // from one row to the next.  After row(u, *this) it holds row u.
  class Row {
   public:
    // W(u,v); kUnreachable when no u->v path exists.  W(u,u) = 0 (the
    // empty path).
    [[nodiscard]] std::int32_t w(int v) const;
    // D(u,v) in deci-ps; meaningful only when w(v) != kUnreachable.
    // D(u,u) = d(u).
    [[nodiscard]] std::int32_t d_decips(int v) const;
    // Calls f(v, W(u,v), D(u,v)) for every v reachable from u (u included),
    // in the order the search settled them: ascending (W, rank).
    template <typename F>
    void for_each_reached(F&& f) const {
      for (const int r : reached_) {
        const Entry& e = entry_[static_cast<std::size_t>(r)];
        f(index_->order_[static_cast<std::size_t>(r)], e.w, e.d);
      }
    }

   private:
    friend class WdMatrices;
    const WdMatrices* index_ = nullptr;
    struct Entry {
      std::int32_t w = kUnreachable;
      std::int32_t d = 0;
    };
    std::vector<Entry> entry_;  // by rank
    std::vector<int> reached_;  // ranks, in settle order
    // Bucket queue: slot s holds the ranks queued at W levels ≡ s modulo
    // the slot count, `words` words per slot, and a summary bitmap of the
    // slot's nonzero words.
    std::vector<std::uint64_t> ring_;
    std::vector<std::uint64_t> summary_;
  };

  // Snapshots g and ranks its register-free DAG; throws CheckError on a
  // register-free cycle.  Every pass is O(V+E), so `exec` is accepted for
  // the signature's sake and the build runs on the calling thread.
  [[nodiscard]] static WdMatrices compute(const RetimingGraph& g) {
    return compute(g, base::ExecPolicy::sequential());
  }
  [[nodiscard]] static WdMatrices compute(const RetimingGraph& g,
                                          const base::ExecPolicy& exec);

  [[nodiscard]] int n() const { return n_; }

  // Computes row u into `row`.  The search reads only the index, so rows
  // run concurrently, each worker with its own scratch.
  void row(int u, Row& row) const;

  [[nodiscard]] std::int32_t delay_decips(int v) const {
    return delay_[static_cast<std::size_t>(rank_[static_cast<std::size_t>(v)])];
  }

  // Minimum feasible clock period with the registers where they are:
  // max { D(u,v) : W(u,v) = 0 }, the longest path of the register-free DAG
  // (covers single vertices via D(v,v)=d(v)).
  [[nodiscard]] double t_init_ps() const { return from_decips(t_init_); }

  // Trivial lower bound for any feasible period: the largest single-vertex
  // delay (deci-ps).  One of the min-period search's starting bounds.
  [[nodiscard]] std::int32_t max_vertex_delay_decips() const {
    return max_vertex_delay_;
  }

  // The longest register-free I/O -> I/O path, max { D(a,b) : a, b I/O,
  // W(a,b) = 0 } (0 without one), in deci-ps.  I/O labels are pinned to
  // the host's, so no legal retiming puts a register on such a path.
  [[nodiscard]] std::int32_t io_path_bound_decips() const { return io_bound_; }

  // Logical heap footprint of the index (element count × element size, not
  // allocator capacity), O(V+E) — deterministic for any thread count,
  // reported as the mem.wd_bytes gauge.  Row scratch is not included.
  [[nodiscard]] std::int64_t bytes_used() const;

 private:
  int n_ = 0;
  int slots_ = 1;  // bitmap ring size: max edge weight + 1
  std::vector<int> rank_;   // vertex -> rank
  std::vector<int> order_;  // rank -> vertex
  // By rank: delays and the out-edges as CSR (heads as ranks).
  std::vector<std::int32_t> delay_;
  std::vector<int> out_begin_;  // size n + 1
  std::vector<int> head_;
  std::vector<std::int32_t> weight_;
  std::int32_t t_init_ = 0;
  std::int32_t max_vertex_delay_ = 0;
  std::int32_t io_bound_ = 0;
};

}  // namespace lac::retime
