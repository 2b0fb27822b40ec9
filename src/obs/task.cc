#include "obs/task.h"

#include "obs/stream.h"

namespace lac::obs {

namespace {

thread_local TaskCapture* tl_sink = nullptr;

}  // namespace

namespace detail {

TaskCapture* current_task_sink() { return tl_sink; }

// Defined in span.cc: swaps the thread's innermost-open-span pointer.
void* exchange_current_span(void* span);

}  // namespace detail

ScopedTaskCapture::ScopedTaskCapture(TaskCapture* capture)
    : capture_(capture),
      prev_sink_(tl_sink),
      prev_span_(detail::exchange_current_span(nullptr)),
      mem_saved_(memory::detach_context()) {
  tl_sink = capture;
}

ScopedTaskCapture::~ScopedTaskCapture() {
  // The detached context accumulated exactly this task's heap traffic
  // (detach resets any engine PauseScope for the task's duration); the
  // committing thread credits it back in task-index order.
  const memory::ThreadCounters task_mem = memory::thread_counters();
  if (capture_ != nullptr) {
    capture_->alloc_bytes += task_mem.alloc_bytes;
    capture_->freed_bytes += task_mem.freed_bytes;
  }
  memory::restore_context(mem_saved_);
  tl_sink = prev_sink_;
  (void)detail::exchange_current_span(prev_span_);
}

void commit_task_capture(TaskCapture&& capture) {
  memory::credit(capture.alloc_bytes, capture.freed_bytes);
  // The lines are observability bookkeeping, not the task's work.
  const memory::PauseScope pause;
  for (int ch = 0; ch < TaskCapture::kNumChannels; ++ch)
    for (std::string& line : capture.lines[static_cast<std::size_t>(ch)])
      stream::detail::emit_line(line, static_cast<TaskCapture::Channel>(ch));
  capture = {};
}

}  // namespace lac::obs
