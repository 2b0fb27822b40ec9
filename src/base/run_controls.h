// RunControls: the execution-configuration surface shared by the planner,
// the bench drivers and the tools.
//
// Everything that controls *how* a run executes — as opposed to *what* it
// computes — lives here: the parallel execution policy, the observability
// override and the RNG seed.  PlannerConfig embeds one as `run`;
// bench_io::parse_cli fills one from the command line.  Keeping the
// surface in src/base means a tool can configure a run without pulling in
// planner headers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "base/exec_policy.h"
#include "obs/obs.h"

namespace lac::base {

struct RunControls {
  // Thread count / scheduling for every parallelised stage of the run.
  ExecPolicy exec;
  // Tracing + metrics override: kEnv defers to the LAC_OBS environment
  // variable, kOn/kOff force the switch for the duration of the run.
  obs::Override observability = obs::Override::kEnv;
  // Seed for every stochastic stage (partitioning, floorplan annealing).
  std::uint64_t seed = 1;
  // Report trace capacity (obs::set_max_root_spans).  Root spans beyond
  // the cap are timed but not retained; the report counts them in
  // dropped_root_spans and `lacobs summary` warns when that is non-zero.
  std::size_t max_root_spans = 4096;
  // When non-empty, the planner opens the streaming event sink
  // (obs::stream::open) at this path unless one is already active —
  // bench drivers (`--stream`, LAC_OBS_STREAM) open it earlier so the
  // stream covers CLI parsing and input loading too.
  std::string stream_path;
};

}  // namespace lac::base
