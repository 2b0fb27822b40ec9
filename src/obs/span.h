// Hierarchical trace spans: steady-clock RAII timers with parent/child
// nesting and per-span key=value annotations.
//
// Nesting is tracked per thread: a Span constructed while another is open
// on the same thread becomes its child.  At the global level a span emits
// an `open` event when it starts and a `close` event with its own fields
// when it ends; the process record (obs/stream.h) folds the pairs into
// the report's trace, where the outermost span of a thread is a root.
// Inside a task capture (obs/task.h) spans build their tree in place and
// the task root emits it whole as one `span` event.  Strict RAII nesting —
// the natural result of scoped locals — is assumed; a span destroyed out
// of order is still recorded, just attached to its construction-time
// parent.
//
// When obs::enabled() is false at construction, the span records nothing
// and allocates nothing, but elapsed_seconds() still works: Span doubles
// as the repository's single steady-clock timer, so stage timings (e.g.
// PlanResult::exec_seconds) come from one source whether or not tracing
// is on.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/memory.h"

namespace lac::obs {

struct Annotation {
  enum class Kind { kString, kDouble, kInt, kBool };

  std::string key;
  Kind kind = Kind::kString;
  std::string s;
  double d = 0.0;
  std::int64_t i = 0;
  bool b = false;
};

// One finished span: name, wall time, annotations, finished children in
// completion order.  When memory tracking was active (obs/memory.h) the
// span also carries its heap traffic: bytes allocated and freed while the
// span was open on its thread (inclusive of children and of parallel work
// committed into it), and the live-byte high-water mark above the entry
// level.  mem_valid distinguishes "tracked, zero bytes" from "untracked".
struct SpanNode {
  std::string name;
  double seconds = 0.0;
  std::int64_t alloc_bytes = 0;
  std::int64_t freed_bytes = 0;
  std::int64_t peak_live_bytes = 0;
  bool mem_valid = false;
  std::vector<Annotation> annotations;
  std::vector<SpanNode> children;

  // First direct child with the given name; nullptr when absent.
  [[nodiscard]] const SpanNode* find_child(std::string_view child_name) const;
  // First annotation with the given key; nullptr when absent.
  [[nodiscard]] const Annotation* find_annotation(std::string_view key) const;
};

class Span {
 public:
  explicit Span(std::string_view name);
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span();

  void annotate(std::string_view key, std::string_view value);
  void annotate(std::string_view key, const char* value) {
    annotate(key, std::string_view(value));
  }
  void annotate(std::string_view key, double value);
  void annotate(std::string_view key, std::int64_t value);
  void annotate(std::string_view key, int value) {
    annotate(key, static_cast<std::int64_t>(value));
  }
  void annotate(std::string_view key, long long value) {
    annotate(key, static_cast<std::int64_t>(value));
  }
  void annotate(std::string_view key, std::size_t value) {
    annotate(key, static_cast<std::int64_t>(value));
  }
  void annotate(std::string_view key, bool value);

  // Steady-clock seconds since construction; valid regardless of whether
  // the span is recording.
  [[nodiscard]] double elapsed_seconds() const;

  [[nodiscard]] bool recording() const { return node_ != nullptr; }

 private:
  std::chrono::steady_clock::time_point t0_;
  SpanNode* node_ = nullptr;  // owned while open; null when not recording
  Span* parent_ = nullptr;    // enclosing recording span on this thread
  bool mem_track_ = false;    // memory tracking was on at construction
  memory::SpanMark mem_mark_;
  // Event id of the `open` event a global-level span emitted; 0 for spans
  // inside a task capture, which emit their tree whole at the task root.
  std::int64_t event_id_ = 0;
};

}  // namespace lac::obs
