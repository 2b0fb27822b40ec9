// Deterministic observability under parallel execution.
//
// Every observability event goes to one process record (obs/stream.h);
// when tasks run on a thread pool, the order in which their events reached
// it would follow completion time — nondeterministic, so two runs of the
// same work at different thread counts would produce byte-different
// reports.  TaskCapture fixes that: the parallel engine (base/parallel)
// redirects each task's events into a per-task buffer and, after the loop
// joins, commits the buffers in task order on the calling thread.  The
// resulting event sequence, and with it the report, is identical for
// every thread count, including fully inline execution.
//
// Commit *re-routes* the buffered lines, so nested parallel loops compose:
// a task's inner loop commits into the enclosing task's capture, which the
// outer loop later commits wherever *it* is running.
//
// When obs::enabled() is false nothing records, captures stay empty and
// the redirection costs two thread-local writes per task.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/memory.h"

namespace lac::obs {

// Buffered observability output of one task: its rendered event lines and
// its net heap traffic (obs/memory.h) — credited to the committing thread
// so per-span allocation deltas are independent of which worker ran the
// task.
struct TaskCapture {
  // A capture commits its custom stream events first, then its metric
  // updates, then its finished root span trees, each in emission order.
  enum Channel { kEvents, kMetrics, kSpans, kNumChannels };

  std::array<std::vector<std::string>, kNumChannels> lines;
  std::int64_t alloc_bytes = 0;
  std::int64_t freed_bytes = 0;
};

// RAII: redirects this thread's observability output into `capture` and
// detaches span nesting (spans opened inside the task become task-local
// roots rather than children of whatever span the caller had open — each
// task is its own trace track).  Restores the previous sink and span
// context on destruction.  Captures nest: the previous sink, if any,
// resumes when this one ends.
class ScopedTaskCapture {
 public:
  explicit ScopedTaskCapture(TaskCapture* capture);
  ScopedTaskCapture(const ScopedTaskCapture&) = delete;
  ScopedTaskCapture& operator=(const ScopedTaskCapture&) = delete;
  ~ScopedTaskCapture();

 private:
  TaskCapture* capture_ = nullptr;
  TaskCapture* prev_sink_ = nullptr;
  void* prev_span_ = nullptr;  // opaque Span*; span.cc owns the type
  memory::Context mem_saved_;  // counters detached for the task's duration
};

// Routes a capture's lines *from the current thread* — into the process
// record, or into the enclosing capture if one is installed.  Consumes
// the capture.
void commit_task_capture(TaskCapture&& capture);

namespace detail {
// Current thread's capture sink; nullptr when events go straight to the
// process record.
[[nodiscard]] TaskCapture* current_task_sink();
}  // namespace detail

}  // namespace lac::obs
