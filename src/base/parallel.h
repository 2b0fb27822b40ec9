// Deterministic parallel-for over a shared thread pool.
//
// The engine targets the pipeline's embarrassingly-parallel layers
// (per-source shortest-path sweeps, per-net route candidates, per-circuit
// suite fan-out) with one hard guarantee: *thread count never changes the
// computation*.  Three mechanisms deliver that:
//
//   1. Tasks are independent by contract (the caller must not share
//      mutable state between indices) and every reduction the engine
//      itself performs — committing per-chunk observability captures —
//      happens on the calling thread in ascending index order.
//   2. Scheduling is static: chunks are assigned to workers by a
//      round-robin function of (chunk index, worker count), with no
//      stealing and no time-dependent dispatch.
//   3. Each chunk runs under an obs::ScopedTaskCapture, so spans and
//      metric events buffer per chunk and commit in index order — a run's
//      report is byte-identical (modulo wall-clock values) for any
//      `threads`, including 1.
//
// Nesting: a parallel_for issued from inside a worker task runs inline on
// that worker (no pool re-entry, no deadlock), preserving the same
// per-chunk capture discipline, so nested loops still trace and reduce
// deterministically.
//
// Exceptions: if chunk bodies throw, the first exception in *index* order
// is rethrown on the caller after all workers join; captures from chunks
// that completed before the throwing index are still committed.
#pragma once

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "base/exec_policy.h"

namespace lac::base {

// Runs fn(begin, end, slot) over contiguous chunks partitioning [0, n):
// about 32 chunks of n / 32 indices (one index each when n < 64).  The
// chunk count is deliberately independent of the worker count, so the
// chunk partition — and with it every per-chunk effect, from obs captures
// to scratch buffers allocated per chunk — is identical at any thread
// count.
//
// `slot` names the worker running the chunk, in [0, parallel_slots(policy,
// n)); the chunks of one slot run one after another on one thread, so a
// body may reuse per-slot scratch without locking.  Which chunks share a
// slot depends on the worker count, so nothing a chunk computes may depend
// on what the scratch held before.
void parallel_for_chunked(
    const ExecPolicy& policy, std::size_t n,
    const std::function<void(std::size_t, std::size_t, int)>& fn);

// The number of distinct slots parallel_for_chunked(policy, n, ...) hands
// its body when called from this thread: 1 when it runs inline (one worker,
// at most one chunk, or inside a pool task), else the worker count.
[[nodiscard]] int parallel_slots(const ExecPolicy& policy, std::size_t n);

// Runs fn(i) for every i in [0, n).
inline void parallel_for(const ExecPolicy& policy, std::size_t n,
                         const std::function<void(std::size_t)>& fn) {
  parallel_for_chunked(policy, n,
                       [&](std::size_t begin, std::size_t end, int /*slot*/) {
                         for (std::size_t i = begin; i < end; ++i) fn(i);
                       });
}

// Maps fn over [0, n) into a vector; out[i] = fn(i).  T must be
// default-constructible and move-assignable.
template <typename T, typename Fn>
[[nodiscard]] std::vector<T> parallel_map(const ExecPolicy& policy,
                                          std::size_t n, Fn&& fn) {
  std::vector<T> out(n);
  parallel_for(policy, n, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

// True while the calling thread is executing a pool task; nested
// parallel loops detect this and run inline.
[[nodiscard]] bool inside_parallel_task();

}  // namespace lac::base
