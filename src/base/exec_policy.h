// Execution policy: how much hardware a pipeline stage may use.
//
// One small value type flows from the CLI (`--threads`, bench_io::parse_cli)
// through PlannerConfig::run (RunControls) into every parallelisable layer
// — the per-source W/D row sweeps of the constraint scans, the global
// router's per-net candidate evaluation, and the bench suite drivers.
//
// Semantics:
//   * threads == 0 (the default, and the meaning of an unset --threads)
//     resolves to std::thread::hardware_concurrency() with a documented
//     floor of 1 (hardware_concurrency() may return 0 on exotic targets).
//   * threads >= 1 pins the worker count exactly.
//   * negative thread counts are a usage error; the CLI rejects them with
//     exit 64 and resolved_threads() throws CheckError.
//
// Determinism contract: results are bitwise-identical for every thread
// count, and the schedule itself is fixed — chunks are assigned to
// workers by a static round-robin function of (chunk index, worker
// count) with no time-dependent dispatch (base/parallel.h).
#pragma once

#include <cstddef>
#include <thread>

#include "base/check.h"

namespace lac::base {

struct ExecPolicy {
  int threads = 0;  // 0 = auto: hardware_concurrency(), floor 1

  // The worker count this policy resolves to (>= 1).
  [[nodiscard]] int resolved_threads() const {
    LAC_CHECK_MSG(threads >= 0,
                  "ExecPolicy.threads must be >= 0, got " << threads);
    if (threads > 0) return threads;
    const unsigned hc = std::thread::hardware_concurrency();
    return hc == 0 ? 1 : static_cast<int>(hc);
  }

  // A policy that always runs inline on the calling thread.
  [[nodiscard]] static ExecPolicy sequential() { return {.threads = 1}; }
};

}  // namespace lac::base
