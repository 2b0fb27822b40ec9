#include "retime/wd_matrices.h"

#include <algorithm>
#include <bit>

#include "base/check.h"

namespace lac::retime {

std::int32_t WdMatrices::Row::w(int v) const {
  return entry_[static_cast<std::size_t>(
                    index_->rank_[static_cast<std::size_t>(v)])]
      .w;
}

std::int32_t WdMatrices::Row::d_decips(int v) const {
  return entry_[static_cast<std::size_t>(
                    index_->rank_[static_cast<std::size_t>(v)])]
      .d;
}

WdMatrices WdMatrices::compute(const RetimingGraph& g,
                               const base::ExecPolicy& /*exec*/) {
  const int n = g.num_vertices();
  const auto sn = static_cast<std::size_t>(n);
  WdMatrices out;
  out.n_ = n;

  // Kahn's algorithm on the w = 0 edges, smallest vertex id first among the
  // ready ones, so the ranks are a function of the graph alone.
  std::vector<int> zero_in(sn, 0);
  int max_w = 0;
  for (const auto& e : g.edges()) {
    LAC_CHECK(e.w >= 0);
    max_w = std::max(max_w, e.w);
    if (e.w == 0) ++zero_in[static_cast<std::size_t>(e.head)];
  }
  out.slots_ = max_w + 1;
  out.order_.reserve(sn);
  std::vector<int> ready;
  for (int v = n - 1; v >= 0; --v)
    if (zero_in[static_cast<std::size_t>(v)] == 0) ready.push_back(v);
  while (!ready.empty()) {
    std::pop_heap(ready.begin(), ready.end(), std::greater<>());
    const int v = ready.back();
    ready.pop_back();
    out.order_.push_back(v);
    for (const int e : g.out_edges(v)) {
      const auto& ed = g.edge(e);
      if (ed.w == 0 && --zero_in[static_cast<std::size_t>(ed.head)] == 0) {
        ready.push_back(ed.head);
        std::push_heap(ready.begin(), ready.end(), std::greater<>());
      }
    }
  }
  LAC_CHECK_MSG(static_cast<int>(out.order_.size()) == n,
                "register-free cycle: not a valid sequential circuit");
  out.rank_.resize(sn);
  for (int r = 0; r < n; ++r)
    out.rank_[static_cast<std::size_t>(out.order_[static_cast<std::size_t>(r)])] = r;

  // CSR by rank.
  out.delay_.resize(sn);
  out.out_begin_.assign(sn + 1, 0);
  out.head_.reserve(static_cast<std::size_t>(g.num_edges()));
  out.weight_.reserve(static_cast<std::size_t>(g.num_edges()));
  for (int r = 0; r < n; ++r) {
    const int v = out.order_[static_cast<std::size_t>(r)];
    out.delay_[static_cast<std::size_t>(r)] = g.delay_decips(v);
    for (const int e : g.out_edges(v)) {
      const auto& ed = g.edge(e);
      out.head_.push_back(out.rank_[static_cast<std::size_t>(ed.head)]);
      out.weight_.push_back(ed.w);
    }
    out.out_begin_[static_cast<std::size_t>(r) + 1] =
        static_cast<int>(out.head_.size());
  }

  // Longest register-free paths, in rank order: from anywhere (T_init) and
  // from an I/O vertex (the I/O bound; -1 where no such path arrives).
  std::vector<char> is_io(sn, 0);
  for (const int io : g.io_vertices())
    is_io[static_cast<std::size_t>(out.rank_[static_cast<std::size_t>(io)])] = 1;
  std::vector<std::int32_t> longest(out.delay_);
  std::vector<std::int32_t> from_io(sn, -1);
  for (std::size_t r = 0; r < sn; ++r) {
    const std::int32_t d = out.delay_[r];
    out.max_vertex_delay_ = std::max(out.max_vertex_delay_, d);
    if (is_io[r]) {
      from_io[r] = std::max(from_io[r], d);
      out.io_bound_ = std::max(out.io_bound_, from_io[r]);
    }
    out.t_init_ = std::max(out.t_init_, longest[r]);
    for (int k = out.out_begin_[r]; k < out.out_begin_[r + 1]; ++k) {
      if (out.weight_[static_cast<std::size_t>(k)] != 0) continue;
      const auto h = static_cast<std::size_t>(out.head_[static_cast<std::size_t>(k)]);
      longest[h] = std::max(longest[h], longest[r] + out.delay_[h]);
      if (from_io[r] >= 0)
        from_io[h] = std::max(from_io[h], from_io[r] + out.delay_[h]);
    }
  }
  return out;
}

void WdMatrices::row(int u, Row& row) const {
  const auto sn = static_cast<std::size_t>(n_);
  const std::size_t words = (sn + 63) / 64;
  const std::size_t summary_words = (words + 63) / 64;
  const auto slots = static_cast<std::size_t>(slots_);
  row.index_ = this;
  if (row.entry_.size() != sn || row.ring_.size() != slots * words) {
    row.entry_.assign(sn, Row::Entry{});
    row.reached_.clear();
    row.ring_.assign(slots * words, 0);
    row.summary_.assign(slots * summary_words, 0);
  } else {
    // The previous search left every bitmap empty; only the reached
    // entries need resetting.
    for (const int r : row.reached_)
      row.entry_[static_cast<std::size_t>(r)].w = kUnreachable;
    row.reached_.clear();
  }

  std::size_t pending = 0;
  auto push = [&](std::int32_t level, int r) {
    const auto s = static_cast<std::size_t>(level) % slots;
    const auto sr = static_cast<std::size_t>(r);
    std::uint64_t& word = row.ring_[s * words + sr / 64];
    const std::uint64_t bit = std::uint64_t{1} << (sr % 64);
    if ((word & bit) != 0) return;
    word |= bit;
    row.summary_[s * summary_words + sr / 4096] |= std::uint64_t{1}
                                                   << (sr / 64 % 64);
    ++pending;
  };

  const int ru = rank_[static_cast<std::size_t>(u)];
  row.entry_[static_cast<std::size_t>(ru)] = {0,
                                             delay_[static_cast<std::size_t>(ru)]};
  push(0, ru);
  // Levels in flight span at most max(w) + 1 consecutive values, so each
  // owns a distinct slot.  Within a level the lowest set rank is popped
  // first, and pushes at that level only set higher ranks.
  for (std::int32_t level = 0; pending > 0; ++level) {
    const std::size_t s = static_cast<std::size_t>(level) % slots;
    std::uint64_t* bits = &row.ring_[s * words];
    std::uint64_t* summary = &row.summary_[s * summary_words];
    for (std::size_t sw = 0; sw < summary_words; ++sw) {
      while (summary[sw] != 0) {
        const std::size_t wi =
            sw * 64 + static_cast<std::size_t>(std::countr_zero(summary[sw]));
        while (bits[wi] != 0) {
          const auto sr =
              wi * 64 + static_cast<std::size_t>(std::countr_zero(bits[wi]));
          bits[wi] &= bits[wi] - 1;
          --pending;
          // A stale entry: the vertex was settled at a lower level.
          if (row.entry_[sr].w != level) continue;
          row.reached_.push_back(static_cast<int>(sr));
          const std::int32_t dr = row.entry_[sr].d;
          for (int k = out_begin_[sr]; k < out_begin_[sr + 1]; ++k) {
            const auto sk = static_cast<std::size_t>(k);
            const int h = head_[sk];
            const auto sh = static_cast<std::size_t>(h);
            const std::int32_t nw = level + weight_[sk];
            const std::int32_t nd = dr + delay_[sh];
            Row::Entry& eh = row.entry_[sh];
            if (nw < eh.w) {
              eh = {nw, nd};
              push(nw, h);
            } else if (nw == eh.w && nd > eh.d) {
              eh.d = nd;
            }
          }
        }
        summary[sw] &= ~(std::uint64_t{1} << (wi % 64));
      }
    }
  }
}

std::int64_t WdMatrices::bytes_used() const {
  return static_cast<std::int64_t>(
      (rank_.size() + order_.size() + out_begin_.size() + head_.size()) *
          sizeof(int) +
      (delay_.size() + weight_.size()) * sizeof(std::int32_t));
}

}  // namespace lac::retime
