// The deterministic parallel-for engine: coverage of every index, empty
// ranges, exception propagation, nesting, and — the load-bearing contract
// — that committed observability state is identical for any thread count.
#include "base/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "base/check.h"
#include "obs/analyze.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/report.h"
#include "obs/span.h"

namespace lac::base {
namespace {

ExecPolicy threads(int n, int chunk = 0) {
  ExecPolicy p;
  p.threads = n;
  p.chunk = chunk;
  return p;
}

TEST(ExecPolicy, ResolvedThreads) {
  EXPECT_EQ(threads(1).resolved_threads(), 1);
  EXPECT_EQ(threads(7).resolved_threads(), 7);
  EXPECT_GE(threads(0).resolved_threads(), 1);  // auto, floor of 1
  EXPECT_EQ(ExecPolicy::sequential().resolved_threads(), 1);
  EXPECT_THROW((void)threads(-2).resolved_threads(), lac::CheckError);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (const int w : {1, 2, 3, 8}) {
    for (const std::size_t n : {std::size_t{1}, std::size_t{7},
                                std::size_t{64}, std::size_t{1000}}) {
      std::vector<std::atomic<int>> hits(n);
      parallel_for(threads(w), n, [&](std::size_t i) { ++hits[i]; });
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "w=" << w << " n=" << n << " i=" << i;
    }
  }
}

TEST(ParallelFor, EmptyRangeIsANoop) {
  std::atomic<int> calls{0};
  parallel_for(threads(4), 0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
  parallel_for_chunked(threads(4), 0,
                       [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, ChunkedPartitionsContiguously) {
  for (const int chunk : {0, 1, 3, 100}) {
    std::vector<char> seen(77, 0);
    parallel_for_chunked(threads(4, chunk), seen.size(),
                         [&](std::size_t b, std::size_t e) {
                           ASSERT_LT(b, e);
                           for (std::size_t i = b; i < e; ++i) seen[i] = 1;
                         });
    EXPECT_EQ(std::count(seen.begin(), seen.end(), 1), 77);
  }
}

TEST(ParallelFor, ExceptionsPropagateFirstByIndex) {
  for (const int w : {1, 4}) {
    try {
      parallel_for(threads(w, /*chunk=*/1), 32, [&](std::size_t i) {
        if (i == 7 || i == 20) throw std::runtime_error(std::to_string(i));
      });
      FAIL() << "expected a throw (w=" << w << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "7") << "w=" << w;
    }
  }
}

TEST(ParallelFor, NestedLoopsRunInline) {
  std::vector<std::atomic<int>> hits(6 * 5);
  parallel_for(threads(4), 6, [&](std::size_t i) {
    EXPECT_TRUE(inside_parallel_task());
    parallel_for(threads(4), 5,
                 [&](std::size_t j) { ++hits[i * 5 + j]; });
  });
  EXPECT_FALSE(inside_parallel_task());
  for (auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(ParallelMap, ProducesOrderedResults) {
  const auto out = parallel_map<int>(threads(3), 100, [](std::size_t i) {
    return static_cast<int>(i * i);
  });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i)
    ASSERT_EQ(out[i], static_cast<int>(i * i));
}

TEST(ParallelFor, NonDeterministicSchedulingSameResults) {
  ExecPolicy p = threads(4, /*chunk=*/1);
  p.deterministic = false;
  std::vector<std::atomic<int>> hits(200);
  parallel_for(p, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (auto& h : hits) ASSERT_EQ(h.load(), 1);
}

// Metric events and spans from tasks must commit in index order, giving
// identical metric values and root-span order for any thread count.
TEST(ParallelObs, CommittedStateIdenticalAcrossThreadCounts) {
  obs::ScopedEnable on(true);

  auto run = [&](int w) {
    obs::reset();
    parallel_for(threads(w, /*chunk=*/1), 16, [&](std::size_t i) {
      obs::Span s("task.span");
      s.annotate("index", static_cast<std::int64_t>(i));
      obs::count("task.count", static_cast<std::int64_t>(i));
      obs::observe("task.observe", static_cast<double>(i));
    });
    const obs::json::Value report = obs::build_report("parallel");
    const auto counter = static_cast<std::int64_t>(
        report.at_path({"metrics", "counters", "task.count"})->num);
    const auto roots = obs::trace_from_report(report);
    std::vector<std::int64_t> root_indices;
    for (const auto& r : roots) {
      EXPECT_EQ(r.name, "task.span");
      const auto* a = r.find_annotation("index");
      EXPECT_NE(a, nullptr);
      root_indices.push_back(a ? a->i : -1);
    }
    return std::make_pair(counter, root_indices);
  };

  const auto base = run(1);
  EXPECT_EQ(base.first, 16 * 15 / 2);
  std::vector<std::int64_t> ascending(16);
  std::iota(ascending.begin(), ascending.end(), 0);
  EXPECT_EQ(base.second, ascending);
  for (const int w : {2, 8}) {
    const auto got = run(w);
    EXPECT_EQ(got.first, base.first) << "w=" << w;
    EXPECT_EQ(got.second, base.second) << "w=" << w;
  }
}

// A span open *around* the loop must not become the parent of task spans
// (tasks are detached roots), and must still be intact afterwards.
TEST(ParallelObs, TaskSpansDetachFromEnclosingSpan) {
  obs::ScopedEnable on(true);
  obs::reset();
  {
    obs::Span outer("outer");
    parallel_for(threads(2, /*chunk=*/1), 4,
                 [&](std::size_t) { obs::Span s("inner"); });
    // Still open: a span created now nests under it.
    obs::Span child("outer.child");
  }
  const auto roots = obs::trace_from_report(obs::build_report("parallel"));
  // Inner task spans commit as their own roots (in index order) before
  // the outer span closes, so they come first; "outer" closes last.
  ASSERT_EQ(roots.size(), 5u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(roots[i].name, "inner");
  EXPECT_EQ(roots.back().name, "outer");
  ASSERT_EQ(roots.back().children.size(), 1u);
  EXPECT_EQ(roots.back().children.front().name, "outer.child");
}

// Nested loops: inner-task events land in the enclosing task's capture and
// stay in deterministic flattened order.
TEST(ParallelObs, NestedCapturesCompose) {
  obs::ScopedEnable on(true);

  auto run = [&](int w) {
    obs::reset();
    parallel_for(threads(w, /*chunk=*/1), 3, [&](std::size_t i) {
      parallel_for(threads(4, /*chunk=*/1), 2, [&](std::size_t j) {
        obs::Span s("nested");
        s.annotate("ij", static_cast<std::int64_t>(i * 10 + j));
      });
    });
    std::vector<std::int64_t> order;
    for (const auto& r : obs::trace_from_report(obs::build_report("nested")))
      order.push_back(r.find_annotation("ij")->i);
    return order;
  };

  const std::vector<std::int64_t> want{0, 1, 10, 11, 20, 21};
  EXPECT_EQ(run(1), want);
  EXPECT_EQ(run(4), want);
}

}  // namespace
}  // namespace lac::base
