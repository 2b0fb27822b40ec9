// The event log: the one record of a run's observability.
//
// Every producer — Span open/close (and the `span` tree of a task root),
// count/gauge/observe, stream::Event and build_report()'s `end` — renders
// its event once as one line of JSON ("lac-obs-events/1") and routes it
// through detail::emit_line().  Inside a parallel task the line goes to
// the task's TaskCapture (obs/task.h), which commits it later in
// task-index order.  At the global level it goes to the process record,
// which applies it to a live fold — the open-span map, the finished trace
// (capped at max_root_spans) and a Metrics accumulator — and appends it
// to the stream file when one is open.  build_report() is that fold's
// report at its `end` event; the record keeps no raw lines.
//
// The stream file is process-wide (`open()` / `close()`), opened from
// RunControls::stream_path (bench drivers: `--stream <path>`, environment
// `LAC_OBS_STREAM`).  Each line is written and flushed individually, so a
// SIGKILL'd run always leaves a parseable prefix — `fold()` turns that
// prefix (complete or truncated) back into a lac-obs-report/2 document,
// through the same apply-event and report-assembly code as the record,
// that every report consumer (`lacobs summary/diff/mem/top`,
// obs/analyze.h, obs/compare.h) accepts unchanged.
//
// Event kinds:
//   run    stream header: schema, run name, obs switch state, wall clock
//   open   a span started at the global level (id, parent id, name)
//   close  ... and finished: seconds, memory deltas, annotations
//   span   a complete span tree committed from a parallel task
//   count / gauge / observe   one metric update
//   round  LAC round progress (lac_retimer.cc), fields free-form
//   hb     periodic heartbeat: relative time, current and peak RSS
//   end    a report was built: name, meta, dropped_root_spans, memory facts
//
// Determinism.  Task events commit in task-index order, so the event
// sequence is byte-identical for every thread count once the
// time-dependent data is removed (`strip_stream()`: drops heartbeats and
// every wall-clock / RSS field).  Span open/close pairs are only emitted
// at the global (uncaptured) level; task spans arrive as self-contained
// `span` trees.  Rendering and folding run under memory::PauseScope, so
// observability bookkeeping is never charged to the spans it measures.
//
// While obs is disabled the hooks cost one relaxed atomic load and
// perform no allocation; with the stream file closed, a metric update at
// the global level allocates nothing once its name is known.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "obs/json.h"
#include "obs/span.h"
#include "obs/task.h"

namespace lac::obs::stream {

inline constexpr std::string_view kSchema = "lac-obs-events/1";

// Opens the process-wide sink, emits the `run` header and starts the
// heartbeat thread (interval from LAC_OBS_HEARTBEAT_MS, default 1000;
// 0 disables).  A second open while active fails.  False on I/O failure
// with a description in `error`.
bool open(const std::string& path, std::string_view run_name,
          std::string* error = nullptr);

// Stops the heartbeat thread and closes the file.  Idempotent.  The
// stream carries no footer of its own — the `end` event comes from
// build_report(), so a run that never reports is recognisably truncated.
// The process record lives on without a file.
void close();

// True while a sink is open (one relaxed atomic load).
[[nodiscard]] bool active();

// One custom event under construction; emitted by the destructor through
// emit_line().  Custom events only feed the stream file: when it is closed
// (or obs is disabled) construction and every field() are no-ops with no
// allocation.
//
//   stream::Event ev("round");
//   ev.field("round", rs.round).field("n_foa", rs.n_foa);
class Event {
 public:
  explicit Event(const char* kind);
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;
  ~Event();

  Event& field(const char* key, std::int64_t v);
  Event& field(const char* key, int v) {
    return field(key, static_cast<std::int64_t>(v));
  }
  Event& field(const char* key, double v);
  Event& field(const char* key, bool v);
  Event& field(const char* key, std::string_view v);

  // True when the event will actually be written — lets callers skip
  // computing expensive fields.
  [[nodiscard]] bool live() const { return on_; }

 private:
  // Appends `"key":` and, through append_value(line_), the value.
  template <typename AppendValue>
  Event& add(const char* key, AppendValue&& append_value);

  std::string line_;
  bool on_ = false;
};

// Folding: reduce a stream (complete or truncated) into a
// lac-obs-report/2 document.
//
// A complete stream — one whose last parseable event is `end` — folds to
// the report build_report() produced in-process, byte for byte: the
// record built that report from the very same lines.
//
// A truncated stream (killed run: no `end`, possibly a partial last
// line) folds to a forensic report: every span closed so far, spans
// still open marked with an `"unclosed": true` annotation, the metric
// state at the moment of death, and a top-level `"truncated": true`.
struct FoldResult {
  json::Value report;
  bool truncated = false;
  std::int64_t events = 0;         // parseable event lines consumed
  std::int64_t skipped_lines = 0;  // unparseable lines (partial tail, ...)
};

// Folds raw stream text (see above).  Returns nullopt only when the text
// contains no parseable event at all.
[[nodiscard]] std::optional<FoldResult> fold(std::string_view text);

// Reads and folds `path`; nullopt on I/O failure or an empty stream.
[[nodiscard]] std::optional<FoldResult> fold_file(const std::string& path);

// Removes every time-dependent field from a stream: heartbeat lines, the
// obs::is_noisy_field members (`t` / `unix_ms` / `seconds`, span memory
// deltas, rss readings), noisy gauges (rss), noisy `end` meta entries,
// and the values of timing observations (their count remains).
// Two runs of the same work at any two thread counts strip to identical
// text — the streaming analogue of `lacobs strip-times`.
[[nodiscard]] std::string strip_stream(std::string_view text);

namespace detail {
// Span-id allocator for global-level open/close pairs; ids are assigned
// in emission order, which is deterministic (see header comment).
[[nodiscard]] std::int64_t next_span_id();
// The one route of every rendered event: appended to the current task
// capture's `channel` when one is installed (consuming `line`), applied
// to the process record otherwise.
void emit_line(std::string& line, TaskCapture::Channel channel);
void emit_open(std::int64_t id, std::int64_t parent, std::string_view name);
// `node` is a global-level span: its children closed as their own events.
void emit_close(std::int64_t id, const SpanNode& node);
// A task root: the complete subtree.
void emit_tree(const SpanNode& node);
void emit_count(const char* name, std::int64_t delta);
void emit_gauge(const char* name, double value);
void emit_observe(const char* name, double value);
// From build_report(): emits the `end` event, carrying the record's
// dropped-root count, and returns the report the record's fold closed
// with it.
[[nodiscard]] json::Value emit_end(std::string_view name,
                                   const json::Value& meta, bool obs_enabled,
                                   bool mem_tracking,
                                   std::int64_t peak_rss_bytes);
}  // namespace detail

}  // namespace lac::obs::stream
