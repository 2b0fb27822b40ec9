#include "obs/span.h"

#include <utility>

#include "obs/obs.h"
#include "obs/stream.h"
#include "obs/task.h"

namespace lac::obs {

namespace {

thread_local Span* tl_current = nullptr;

}  // namespace

namespace detail {

// Task-capture support (obs/task.h): the engine detaches span nesting for
// the duration of a task so task spans become roots of their own track.
void* exchange_current_span(void* span) {
  return std::exchange(tl_current, static_cast<Span*>(span));
}

}  // namespace detail

const SpanNode* SpanNode::find_child(std::string_view child_name) const {
  for (const SpanNode& c : children)
    if (c.name == child_name) return &c;
  return nullptr;
}

const Annotation* SpanNode::find_annotation(std::string_view key) const {
  for (const Annotation& a : annotations)
    if (a.key == key) return &a;
  return nullptr;
}

Span::Span(std::string_view name) : t0_(std::chrono::steady_clock::now()) {
  if (!enabled()) return;
  if (memory::tracking_enabled()) {
    mem_track_ = true;
    mem_mark_ = memory::begin_span();
  }
  // The span's own bookkeeping is not part of the work it measures.
  const memory::PauseScope pause;
  node_ = new SpanNode;
  node_->name.assign(name);
  parent_ = tl_current;
  tl_current = this;
  if (detail::current_task_sink() == nullptr) {
    event_id_ = stream::detail::next_span_id();
    stream::detail::emit_open(
        event_id_, parent_ != nullptr ? parent_->event_id_ : 0, name);
  }
}

Span::~Span() {
  if (node_ == nullptr) return;
  node_->seconds = elapsed_seconds();
  if (mem_track_) {
    const memory::SpanDelta d = memory::end_span(mem_mark_);
    node_->alloc_bytes = d.alloc_bytes;
    node_->freed_bytes = d.freed_bytes;
    node_->peak_live_bytes = d.peak_live_bytes;
    node_->mem_valid = true;
  }
  const memory::PauseScope pause;
  if (tl_current == this) tl_current = parent_;
  if (event_id_ != 0)
    stream::detail::emit_close(event_id_, *node_);
  else if (parent_ != nullptr && parent_->node_ != nullptr)
    parent_->node_->children.push_back(std::move(*node_));
  else
    stream::detail::emit_tree(*node_);
  delete node_;
}

void Span::annotate(std::string_view key, std::string_view value) {
  if (node_ == nullptr) return;
  const memory::PauseScope pause;
  Annotation a;
  a.key.assign(key);
  a.kind = Annotation::Kind::kString;
  a.s.assign(value);
  node_->annotations.push_back(std::move(a));
}

void Span::annotate(std::string_view key, double value) {
  if (node_ == nullptr) return;
  const memory::PauseScope pause;
  Annotation a;
  a.key.assign(key);
  a.kind = Annotation::Kind::kDouble;
  a.d = value;
  node_->annotations.push_back(std::move(a));
}

void Span::annotate(std::string_view key, std::int64_t value) {
  if (node_ == nullptr) return;
  const memory::PauseScope pause;
  Annotation a;
  a.key.assign(key);
  a.kind = Annotation::Kind::kInt;
  a.i = value;
  node_->annotations.push_back(std::move(a));
}

void Span::annotate(std::string_view key, bool value) {
  if (node_ == nullptr) return;
  const memory::PauseScope pause;
  Annotation a;
  a.key.assign(key);
  a.kind = Annotation::Kind::kBool;
  a.b = value;
  node_->annotations.push_back(std::move(a));
}

double Span::elapsed_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_)
      .count();
}

}  // namespace lac::obs
