#include "partition/fm.h"

#include <algorithm>
#include <numeric>

#include "base/check.h"
#include "base/rng.h"

namespace lac::partition {

namespace {

// Doubly-linked gain buckets over local vertex indices.
class GainBuckets {
 public:
  GainBuckets(int num_vertices, int max_gain)
      : offset_(max_gain),
        head_(static_cast<std::size_t>(2 * max_gain + 1), -1),
        prev_(static_cast<std::size_t>(num_vertices), -1),
        next_(static_cast<std::size_t>(num_vertices), -1),
        gain_of_(static_cast<std::size_t>(num_vertices), 0),
        in_(static_cast<std::size_t>(num_vertices), false),
        max_idx_(-1) {}

  void insert(int v, int gain) {
    LAC_CHECK(!in_[static_cast<std::size_t>(v)]);
    const int b = gain + offset_;
    LAC_CHECK(b >= 0 && b < static_cast<int>(head_.size()));
    gain_of_[static_cast<std::size_t>(v)] = gain;
    prev_[static_cast<std::size_t>(v)] = -1;
    next_[static_cast<std::size_t>(v)] = head_[static_cast<std::size_t>(b)];
    if (head_[static_cast<std::size_t>(b)] != -1)
      prev_[static_cast<std::size_t>(head_[static_cast<std::size_t>(b)])] = v;
    head_[static_cast<std::size_t>(b)] = v;
    in_[static_cast<std::size_t>(v)] = true;
    max_idx_ = std::max(max_idx_, b);
  }

  void erase(int v) {
    LAC_CHECK(in_[static_cast<std::size_t>(v)]);
    const int b = gain_of_[static_cast<std::size_t>(v)] + offset_;
    const int p = prev_[static_cast<std::size_t>(v)];
    const int n = next_[static_cast<std::size_t>(v)];
    if (p != -1)
      next_[static_cast<std::size_t>(p)] = n;
    else
      head_[static_cast<std::size_t>(b)] = n;
    if (n != -1) prev_[static_cast<std::size_t>(n)] = p;
    in_[static_cast<std::size_t>(v)] = false;
  }

  void adjust(int v, int delta) {
    if (!in_[static_cast<std::size_t>(v)]) return;
    const int g = gain_of_[static_cast<std::size_t>(v)];
    erase(v);
    insert(v, g + delta);
  }

  [[nodiscard]] bool contains(int v) const {
    return in_[static_cast<std::size_t>(v)];
  }
  [[nodiscard]] int gain(int v) const {
    return gain_of_[static_cast<std::size_t>(v)];
  }

  // Highest-gain vertex satisfying `fits`; -1 if none.
  template <typename Pred>
  [[nodiscard]] int best(Pred fits) {
    for (int b = max_idx_; b >= 0; --b) {
      bool bucket_nonempty = false;
      for (int v = head_[static_cast<std::size_t>(b)]; v != -1;
           v = next_[static_cast<std::size_t>(v)]) {
        bucket_nonempty = true;
        if (fits(v)) return v;
      }
      if (!bucket_nonempty && b == max_idx_) --max_idx_;
    }
    return -1;
  }

 private:
  int offset_;
  std::vector<int> head_;
  std::vector<int> prev_, next_;
  std::vector<int> gain_of_;
  std::vector<bool> in_;
  int max_idx_;
};

}  // namespace

std::vector<int> fm_bipartition(const Hypergraph& hg,
                                const std::vector<int>& active,
                                const std::vector<double>& area,
                                double target0, const FmOptions& opt) {
  const int m = static_cast<int>(active.size());
  LAC_CHECK(m >= 1);
  LAC_CHECK(target0 > 0.0 && target0 < 1.0);

  // Local index mapping.
  std::vector<int> local(static_cast<std::size_t>(hg.num_vertices), -1);
  for (int i = 0; i < m; ++i)
    local[static_cast<std::size_t>(active[static_cast<std::size_t>(i)])] = i;

  // Induced nets: local pin lists with >= 2 pins.
  std::vector<std::vector<int>> nets;
  std::vector<std::vector<int>> nets_of(static_cast<std::size_t>(m));
  for (const auto& net : hg.nets) {
    std::vector<int> pins;
    for (const int v : net)
      if (local[static_cast<std::size_t>(v)] != -1)
        pins.push_back(local[static_cast<std::size_t>(v)]);
    if (pins.size() < 2) continue;
    const int idx = static_cast<int>(nets.size());
    for (const int p : pins) nets_of[static_cast<std::size_t>(p)].push_back(idx);
    nets.push_back(std::move(pins));
  }

  double total_area = 0.0;
  for (int i = 0; i < m; ++i) {
    LAC_CHECK(area[static_cast<std::size_t>(active[static_cast<std::size_t>(i)])] > 0.0);
    total_area += area[static_cast<std::size_t>(active[static_cast<std::size_t>(i)])];
  }
  const double target_area0 = target0 * total_area;
  const double max_area[2] = {
      target_area0 * (1.0 + opt.balance_tolerance),
      (total_area - target_area0) * (1.0 + opt.balance_tolerance)};
  auto a_of = [&](int i) {
    return area[static_cast<std::size_t>(active[static_cast<std::size_t>(i)])];
  };

  // Initial greedy assignment: big vertices first, fill the side with the
  // larger remaining target.  Shuffled tie-breaks come from the seed.
  Rng rng(opt.seed);
  std::vector<int> order(static_cast<std::size_t>(m));
  std::iota(order.begin(), order.end(), 0);
  for (int i = m - 1; i > 0; --i)
    std::swap(order[static_cast<std::size_t>(i)],
              order[rng.uniform(static_cast<std::uint64_t>(i + 1))]);
  std::stable_sort(order.begin(), order.end(),
                   [&](int x, int y) { return a_of(x) > a_of(y); });
  std::vector<int> side(static_cast<std::size_t>(m), 0);
  double side_area[2] = {0.0, 0.0};
  for (const int v : order) {
    const double want0 = target_area0 - side_area[0];
    const double want1 = (total_area - target_area0) - side_area[1];
    const int s = want0 >= want1 ? 0 : 1;
    side[static_cast<std::size_t>(v)] = s;
    side_area[s] += a_of(v);
  }

  // Per-net side pin counts.
  std::vector<int> cnt[2];
  cnt[0].assign(nets.size(), 0);
  cnt[1].assign(nets.size(), 0);
  auto recount = [&] {
    std::fill(cnt[0].begin(), cnt[0].end(), 0);
    std::fill(cnt[1].begin(), cnt[1].end(), 0);
    for (std::size_t n = 0; n < nets.size(); ++n)
      for (const int p : nets[n])
        ++cnt[side[static_cast<std::size_t>(p)]][n];
  };
  recount();

  int max_deg = 1;
  for (int i = 0; i < m; ++i)
    max_deg = std::max(max_deg,
                       static_cast<int>(nets_of[static_cast<std::size_t>(i)].size()));

  for (int pass = 0; pass < opt.max_passes; ++pass) {
    GainBuckets buckets(m, max_deg);
    for (int v = 0; v < m; ++v) {
      int g = 0;
      const int f = side[static_cast<std::size_t>(v)];
      for (const int n : nets_of[static_cast<std::size_t>(v)]) {
        if (cnt[f][static_cast<std::size_t>(n)] == 1) ++g;
        if (cnt[1 - f][static_cast<std::size_t>(n)] == 0) --g;
      }
      buckets.insert(v, g);
    }

    std::vector<int> moved;
    moved.reserve(static_cast<std::size_t>(m));
    int cum_gain = 0, best_gain = 0;
    int best_prefix = 0;

    while (true) {
      const int v = buckets.best([&](int u) {
        const int t = 1 - side[static_cast<std::size_t>(u)];
        return side_area[t] + a_of(u) <= max_area[t];
      });
      if (v == -1) break;
      const int f = side[static_cast<std::size_t>(v)];
      const int t = 1 - f;
      cum_gain += buckets.gain(v);
      buckets.erase(v);

      // FM incremental gain update around v's nets.
      for (const int n : nets_of[static_cast<std::size_t>(v)]) {
        auto& fc = cnt[f][static_cast<std::size_t>(n)];
        auto& tc = cnt[t][static_cast<std::size_t>(n)];
        if (tc == 0) {
          for (const int p : nets[static_cast<std::size_t>(n)])
            buckets.adjust(p, +1);
        } else if (tc == 1) {
          for (const int p : nets[static_cast<std::size_t>(n)])
            if (side[static_cast<std::size_t>(p)] == t) buckets.adjust(p, -1);
        }
        --fc;
        ++tc;
        if (fc == 0) {
          for (const int p : nets[static_cast<std::size_t>(n)])
            buckets.adjust(p, -1);
        } else if (fc == 1) {
          for (const int p : nets[static_cast<std::size_t>(n)])
            if (side[static_cast<std::size_t>(p)] == f) buckets.adjust(p, +1);
        }
      }
      side[static_cast<std::size_t>(v)] = t;
      side_area[f] -= a_of(v);
      side_area[t] += a_of(v);
      moved.push_back(v);
      if (cum_gain > best_gain) {
        best_gain = cum_gain;
        best_prefix = static_cast<int>(moved.size());
      }
    }

    // Roll back to the best prefix.
    for (int i = static_cast<int>(moved.size()) - 1; i >= best_prefix; --i) {
      const int v = moved[static_cast<std::size_t>(i)];
      const int f = side[static_cast<std::size_t>(v)];
      side[static_cast<std::size_t>(v)] = 1 - f;
      side_area[f] -= a_of(v);
      side_area[1 - f] += a_of(v);
    }
    recount();
    if (best_gain <= 0) break;
  }
  return side;
}

KWayResult partition_netlist(const netlist::Netlist& nl,
                             const std::vector<double>& cell_area,
                             int num_blocks, const FmOptions& opt) {
  LAC_CHECK(num_blocks >= 1);
  LAC_CHECK(static_cast<int>(cell_area.size()) == nl.num_cells());
  // Every block needs at least one cell; recursive bisection would
  // otherwise hand an empty side to fm_bipartition.
  LAC_CHECK_MSG(nl.num_cells() >= num_blocks,
                "netlist has " << nl.num_cells()
                               << " partitionable cells, fewer than "
                                  "num_blocks = "
                               << num_blocks);
  const Hypergraph hg = build_hypergraph(nl);

  KWayResult res;
  res.block_of.assign(static_cast<std::size_t>(nl.num_cells()), 0);

  // Recursive bisection: (active set, number of blocks, first block id).
  struct Job {
    std::vector<int> active;
    int k;
    int first_block;
  };
  std::vector<Job> stack;
  {
    std::vector<int> all(static_cast<std::size_t>(nl.num_cells()));
    std::iota(all.begin(), all.end(), 0);
    stack.push_back({std::move(all), num_blocks, 0});
  }
  std::uint64_t salt = 0;
  while (!stack.empty()) {
    Job job = std::move(stack.back());
    stack.pop_back();
    if (job.k == 1) {
      for (const int v : job.active)
        res.block_of[static_cast<std::size_t>(v)] = job.first_block;
      continue;
    }
    const int k0 = job.k / 2;
    const int k1 = job.k - k0;
    FmOptions local_opt = opt;
    local_opt.seed = opt.seed + 0x9e37 * ++salt;
    const auto side = fm_bipartition(
        hg, job.active, cell_area,
        static_cast<double>(k0) / static_cast<double>(job.k), local_opt);
    Job left{{}, k0, job.first_block};
    Job right{{}, k1, job.first_block + k0};
    for (std::size_t i = 0; i < job.active.size(); ++i)
      (side[i] == 0 ? left.active : right.active).push_back(job.active[i]);
    // A degenerate empty side (tiny inputs) falls back to a size split.
    if (left.active.empty() || right.active.empty()) {
      left.active.clear();
      right.active.clear();
      for (std::size_t i = 0; i < job.active.size(); ++i)
        (i % 2 == 0 ? left.active : right.active).push_back(job.active[i]);
      if (right.active.empty()) right.active.push_back(left.active.back()),
                                left.active.pop_back();
    }
    stack.push_back(std::move(left));
    stack.push_back(std::move(right));
  }
  res.cut = cut_size(hg, res.block_of);
  return res;
}

}  // namespace lac::partition
