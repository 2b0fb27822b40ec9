#include "obs/stream.h"

#include <atomic>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <mutex>
#include <sstream>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "obs/compare.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/report.h"

namespace lac::obs::stream {

// ---------------------------------------------------------------------------
// The fold: events -> lac-obs-report/2.  One state and one apply function
// serve the process record (live, capped) and fold() (offline).

namespace {

const json::Value* find_string(const json::Value& v, std::string_view key) {
  const json::Value* f = v.find(key);
  return f != nullptr && f->kind == json::Value::Kind::kString ? f : nullptr;
}

double number_or(const json::Value& v, std::string_view key, double fallback) {
  const json::Value* f = v.find(key);
  return f != nullptr && f->kind == json::Value::Kind::kNumber ? f->num
                                                               : fallback;
}

bool bool_or(const json::Value& v, std::string_view key, bool fallback) {
  const json::Value* f = v.find(key);
  return f != nullptr && f->kind == json::Value::Kind::kBool ? f->b : fallback;
}

// A span opened (open event seen) but not yet closed.
struct OpenSpan {
  std::string name;
  std::int64_t parent = 0;
  std::vector<json::Value> children;  // closed children, completion order
};

struct FoldState {
  std::string run_name = "stream";
  bool run_obs_enabled = false;
  bool run_mem_tracking = false;
  std::int64_t hb_peak_rss = 0;

  std::map<std::int64_t, OpenSpan> open;  // keyed by id (ascending)
  std::vector<json::Value> trace;         // roots since the last end event
  std::size_t max_roots = std::numeric_limits<std::size_t>::max();
  std::int64_t dropped_roots = 0;  // roots past max_roots, never reset
  Metrics metrics;

  json::Value last_report;  // the report closed by the last end event
  bool end_seen = false;
  std::int64_t events_after_end = 0;
};

void add_root(FoldState& st, json::Value&& node) {
  if (st.trace.size() < st.max_roots)
    st.trace.push_back(std::move(node));
  else
    ++st.dropped_roots;
}

json::Value empty_object() {
  json::Value v;
  v.kind = json::Value::Kind::kObject;
  return v;
}

// The one report assembly: the fold's trace (drained) and metrics under
// the header and memory facts of the event that closes the report.
json::Value assemble_report(FoldState& st, std::string_view name,
                            bool obs_enabled, json::Value meta,
                            bool mem_tracking, std::int64_t peak_rss_bytes,
                            std::int64_t dropped_root_spans) {
  json::Value report = empty_object();
  report.object.emplace_back("schema", json::Value::of("lac-obs-report/2"));
  report.object.emplace_back("name", json::Value::of(name));
  report.object.emplace_back("obs_enabled", json::Value::of(obs_enabled));
  report.object.emplace_back("meta", std::move(meta));
  json::Value trace;
  trace.kind = json::Value::Kind::kArray;
  trace.array = std::exchange(st.trace, {});
  report.object.emplace_back("trace", std::move(trace));
  // Process-level memory facts (v2).  peak_rss_bytes is machine- and
  // scheduling-dependent; compare/strip classify the whole section noisy.
  json::Value metrics = metrics_to_json(st.metrics);
  json::Value mem = empty_object();
  mem.object.emplace_back("tracking", json::Value::of(mem_tracking));
  if (peak_rss_bytes > 0)
    mem.object.emplace_back("peak_rss_bytes", json::Value::of(peak_rss_bytes));
  metrics.object.emplace_back("memory", std::move(mem));
  report.object.emplace_back("metrics", std::move(metrics));
  report.object.emplace_back("dropped_root_spans",
                             json::Value::of(dropped_root_spans));
  return report;
}

void fold_close(FoldState& st, const json::Value& ev) {
  const std::int64_t id =
      static_cast<std::int64_t>(number_or(ev, "id", 0.0));
  // The span's own fields are everything but the envelope, in
  // span_to_json order; closed children collected so far are appended
  // last, exactly where span_to_json puts them.
  json::Value node = empty_object();
  for (const auto& [k, v] : ev.object) {
    if (k == "ev" || k == "id" || k == "t") continue;
    node.object.emplace_back(k, v);
  }
  std::int64_t parent = 0;
  if (const auto it = st.open.find(id); it != st.open.end()) {
    parent = it->second.parent;
    if (!it->second.children.empty()) {
      json::Value kids;
      kids.kind = json::Value::Kind::kArray;
      kids.array = std::move(it->second.children);
      node.object.emplace_back("children", std::move(kids));
    }
    st.open.erase(it);
  }
  if (parent != 0) {
    if (const auto pit = st.open.find(parent); pit != st.open.end()) {
      pit->second.children.push_back(std::move(node));
      return;
    }
  }
  add_root(st, std::move(node));
}

void fold_end(FoldState& st, const json::Value& ev) {
  const json::Value* name = find_string(ev, "name");
  const json::Value* meta = ev.find("meta");
  st.last_report = assemble_report(
      st, name != nullptr ? std::string_view(name->str) : "stream",
      bool_or(ev, "obs_enabled", st.run_obs_enabled),
      meta != nullptr && meta->is_object() ? *meta : empty_object(),
      bool_or(ev, "mem_tracking", st.run_mem_tracking),
      static_cast<std::int64_t>(number_or(ev, "peak_rss_bytes", 0.0)),
      static_cast<std::int64_t>(number_or(ev, "dropped_root_spans", 0.0)));
  st.end_seen = true;
  st.events_after_end = 0;
}

// A gauge or observation value: JSON has no NaN/Inf, so the producers
// render non-finite values as null, which folds back to NaN.
double metric_value(const json::Value& ev) {
  const json::Value* f = ev.find("value");
  if (f != nullptr && f->kind == json::Value::Kind::kNull)
    return std::numeric_limits<double>::quiet_NaN();
  return number_or(ev, "value", 0.0);
}

// A gauge write or a histogram observation.
void apply_value(FoldState& st, std::string_view kind, std::string_view name,
                 double value) {
  if (kind == "gauge")
    st.metrics.set_gauge(name, value);
  else
    st.metrics.observe(name, value);
}

// Metric updates are most of a run's events and the only ones on hot
// paths, so their lines are decoded in place when they have exactly the
// form emit_metric() renders (names without escapes):
// a live update then allocates nothing once its name is known.  Any other
// spelling takes the general parse.
bool apply_rendered_metric(FoldState& st, std::string_view line) {
  const auto take = [&line](std::string_view prefix) {
    if (!line.starts_with(prefix)) return false;
    line.remove_prefix(prefix.size());
    return true;
  };
  const auto until_quote = [&line](std::string_view* out) {
    const std::size_t q = line.find('"');
    if (q == std::string_view::npos) return false;
    *out = line.substr(0, q);
    line.remove_prefix(q);
    return out->find('\\') == std::string_view::npos;
  };
  std::string_view kind, name;
  if (!take("{\"ev\":\"") || !until_quote(&kind) ||
      (kind != "count" && kind != "gauge" && kind != "observe") ||
      !take("\",\"name\":\"") || !until_quote(&name) ||
      !take(kind == "count" ? "\",\"delta\":" : "\",\"value\":") ||
      !line.ends_with('}'))
    return false;
  const std::string_view num = line.substr(0, line.size() - 1);
  const auto parse = [&num](auto& out) {
    const auto [end, ec] =
        std::from_chars(num.data(), num.data() + num.size(), out);
    return ec == std::errc() && end == num.data() + num.size();
  };
  if (kind == "count") {
    std::int64_t delta = 0;
    if (!parse(delta)) return false;
    st.metrics.add_counter(name, delta);
  } else {
    double value = std::numeric_limits<double>::quiet_NaN();
    if (num != "null" && !parse(value)) return false;
    apply_value(st, kind, name, value);
  }
  if (st.end_seen) ++st.events_after_end;
  return true;
}

// Applies one event line to the fold; false when the line is not an event
// (unparseable, or no "ev" kind).
bool apply_line(FoldState& st, std::string_view line) {
  if (apply_rendered_metric(st, line)) return true;
  const std::optional<json::Value> parsed = json::parse(line);
  if (!parsed || !parsed->is_object()) return false;
  const json::Value& ev = *parsed;
  const json::Value* kind = find_string(ev, "ev");
  if (kind == nullptr) return false;
  const std::string& k = kind->str;
  // A heartbeat can land between build_report()'s `end` and close(); it
  // carries no run data, so it must not demote the stream to truncated.
  if (st.end_seen && k != "hb") ++st.events_after_end;
  if (k == "run") {
    if (const json::Value* n = find_string(ev, "name")) st.run_name = n->str;
    st.run_obs_enabled = bool_or(ev, "obs_enabled", false);
    st.run_mem_tracking = bool_or(ev, "mem_tracking", false);
  } else if (k == "open") {
    OpenSpan s;
    if (const json::Value* n = find_string(ev, "name")) s.name = n->str;
    s.parent = static_cast<std::int64_t>(number_or(ev, "parent", 0.0));
    st.open[static_cast<std::int64_t>(number_or(ev, "id", 0.0))] =
        std::move(s);
  } else if (k == "close") {
    fold_close(st, ev);
  } else if (k == "span") {
    if (const json::Value* root = ev.find("root");
        root != nullptr && root->is_object())
      add_root(st, json::Value(*root));
  } else if (k == "count") {
    if (const json::Value* n = find_string(ev, "name"))
      st.metrics.add_counter(
          n->str, static_cast<std::int64_t>(number_or(ev, "delta", 0.0)));
  } else if (k == "gauge" || k == "observe") {
    if (const json::Value* n = find_string(ev, "name"))
      apply_value(st, k, n->str, metric_value(ev));
  } else if (k == "hb") {
    if (const double peak = number_or(ev, "peak_rss_bytes", 0.0); peak > 0)
      st.hb_peak_rss = static_cast<std::int64_t>(peak);
  } else if (k == "end") {
    fold_end(st, ev);
  }
  // Unknown kinds (future schema growth, `round` progress) fold to
  // nothing: the report carries only what the report schema knows.
  return true;
}

// Synthesizes report spans for the spans still open at truncation, each
// marked with an "unclosed" annotation.  Children opened later than their
// parents, so walking ids in descending order folds leaves into parents
// before the parents themselves are synthesized.
void append_unclosed(FoldState& st) {
  std::vector<json::Value> roots;
  while (!st.open.empty()) {
    auto it = std::prev(st.open.end());
    json::Value node = empty_object();
    node.object.emplace_back("name", json::Value::of(it->second.name));
    json::Value ann = empty_object();
    ann.object.emplace_back("unclosed", json::Value::of(true));
    node.object.emplace_back("annotations", std::move(ann));
    if (!it->second.children.empty()) {
      json::Value kids;
      kids.kind = json::Value::Kind::kArray;
      kids.array = std::move(it->second.children);
      node.object.emplace_back("children", std::move(kids));
    }
    const std::int64_t parent = it->second.parent;
    st.open.erase(it);
    if (parent != 0) {
      if (const auto pit = st.open.find(parent); pit != st.open.end()) {
        pit->second.children.push_back(std::move(node));
        continue;
      }
    }
    roots.push_back(std::move(node));
  }
  // Unclosed roots were collected deepest-first; restore open (id) order.
  for (auto rit = roots.rbegin(); rit != roots.rend(); ++rit)
    st.trace.push_back(std::move(*rit));
}

}  // namespace

std::optional<FoldResult> fold(std::string_view text) {
  FoldState st;
  FoldResult res;
  bool tail_partial = false;

  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    const bool has_newline = nl != std::string_view::npos;
    if (!has_newline) nl = text.size();
    const std::string_view line = text.substr(pos, nl - pos);
    pos = has_newline ? nl + 1 : text.size();
    if (line.empty()) continue;
    if (!apply_line(st, line)) {
      ++res.skipped_lines;
      if (pos >= text.size()) tail_partial = true;
      continue;
    }
    ++res.events;
  }

  if (res.events == 0) return std::nullopt;

  if (st.end_seen && st.events_after_end == 0 && !tail_partial &&
      st.open.empty() && st.trace.empty()) {
    res.report = std::move(st.last_report);
    res.truncated = false;
    return res;
  }

  // Forensic (truncated) report: whatever closed plus the spans cut off
  // mid-flight, with the metric state at the moment the stream stopped.
  res.truncated = true;
  append_unclosed(st);
  res.report = assemble_report(st, st.run_name, st.run_obs_enabled,
                               empty_object(), st.run_mem_tracking,
                               st.hb_peak_rss, st.dropped_roots);
  res.report.object.emplace_back("truncated", json::Value::of(true));
  return res;
}

std::optional<FoldResult> fold_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return fold(buf.str());
}

// ---------------------------------------------------------------------------
// The process record and its stream file.

namespace {

constexpr long long kDefaultHeartbeatMs = 1000;

// Default cap on the record's trace for processes that record forever
// without reporting (e.g. google-benchmark loops running plan() thousands
// of times).
constexpr std::size_t kDefaultMaxRoots = 4096;

// Everything below `mu` is guarded by it.  Leaked on purpose: events
// emitted from static destructors after main still find it alive.
struct Record {
  std::mutex mu;
  FoldState fold;
  std::FILE* file = nullptr;  // the stream file while one is open

  Record() { fold.max_roots = kDefaultMaxRoots; }
};

Record& record() {
  static Record* const r = new Record;
  return *r;
}

// g_active is the hot-path "stream file open" switch; t0 is the origin of
// every event's relative time `t`, reset when a stream opens.
std::atomic<bool> g_active{false};
std::atomic<std::int64_t> g_t0_ns{
    std::chrono::steady_clock::now().time_since_epoch().count()};
std::atomic<std::int64_t> g_next_id{0};

// The heartbeat thread has its own cv/mutex so close() can wake it
// without holding the record lock.
std::thread g_hb_thread;
std::mutex g_hb_mu;
std::condition_variable g_hb_cv;
bool g_hb_stop = false;

double rel_seconds() {
  const std::chrono::steady_clock::duration since(
      std::chrono::steady_clock::now().time_since_epoch().count() -
      g_t0_ns.load(std::memory_order_relaxed));
  return std::chrono::duration<double>(since).count();
}

long long heartbeat_interval_ms() {
  const char* env = std::getenv("LAC_OBS_HEARTBEAT_MS");
  if (env == nullptr || *env == '\0') return kDefaultHeartbeatMs;
  char* end = nullptr;
  const long long ms = std::strtoll(env, &end, 10);
  if (end == nullptr || *end != '\0' || ms < 0) return kDefaultHeartbeatMs;
  return ms;
}

// Appends one line (plus newline) and flushes, so the line is in the
// kernel before the call returns — a SIGKILL never costs more than the
// event currently being formatted.  Caller holds the record lock.
void write_line_locked(std::FILE* file, std::string_view line) {
  std::fwrite(line.data(), 1, line.size(), file);
  std::fputc('\n', file);
  std::fflush(file);
}

// Heartbeats feed the stream file only: they carry no report data.
void emit_heartbeat() {
  json::Writer w;
  w.begin_object();
  w.kv("ev", "hb");
  w.kv("t", rel_seconds());
  if (const std::int64_t rss = memory::current_rss_bytes(); rss > 0)
    w.kv("rss_bytes", rss);
  if (const std::int64_t peak = memory::peak_rss_bytes(); peak > 0)
    w.kv("peak_rss_bytes", peak);
  w.end_object();
  const std::string line = w.take();
  Record& rec = record();
  std::lock_guard lock(rec.mu);
  if (rec.file != nullptr) write_line_locked(rec.file, line);
}

void heartbeat_main(long long interval_ms) {
  std::unique_lock lock(g_hb_mu);
  while (!g_hb_stop) {
    if (g_hb_cv.wait_for(lock, std::chrono::milliseconds(interval_ms),
                         [] { return g_hb_stop; }))
      break;
    lock.unlock();
    emit_heartbeat();
    lock.lock();
  }
}

// This thread's render buffer, emptied; its capacity is reused, so the
// global-level emit path allocates nothing in steady state.
std::string& line_buffer() {
  thread_local std::string buffer;
  buffer.clear();
  return buffer;
}

// Renders one event into the buffer and routes it.  The whole step is
// observability bookkeeping, so it runs paused.
template <typename Render>
void emit(TaskCapture::Channel channel, Render&& render) {
  const memory::PauseScope pause;
  std::string& line = line_buffer();
  render(line);
  detail::emit_line(line, channel);
}

void append_t(std::string& line) {
  line += ",\"t\":";
  json::append_number(line, rel_seconds());
}

// {"ev":<kind>,"name":<name>,<field>:<value>} — the exact form
// apply_rendered_metric() decodes in place.
template <typename Number>
void emit_metric(const char* kind, const char* name, const char* field,
                 Number value) {
  emit(TaskCapture::kMetrics, [&](std::string& line) {
    line += "{\"ev\":\"";
    line += kind;
    line += "\",\"name\":\"";
    json::append_escaped(line, name);
    line += "\",\"";
    line += field;
    line += "\":";
    json::append_number(line, value);
    line += '}';
  });
}

}  // namespace

bool open(const std::string& path, std::string_view run_name,
          std::string* error) {
  if (error != nullptr) error->clear();
  Record& rec = record();
  std::lock_guard lock(rec.mu);
  if (rec.file != nullptr) {
    if (error != nullptr) *error = "event stream already open";
    return false;
  }
  const std::filesystem::path fs_path(path);
  if (const std::filesystem::path parent = fs_path.parent_path();
      !parent.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);
    if (ec) {
      if (error != nullptr)
        *error = "cannot create directory " + parent.string() + ": " +
                 ec.message();
      return false;
    }
  }
  errno = 0;
  rec.file = std::fopen(path.c_str(), "w");
  if (rec.file == nullptr) {
    if (error != nullptr)
      *error = "cannot open " + path + ": " + std::strerror(errno);
    return false;
  }
  g_t0_ns.store(std::chrono::steady_clock::now().time_since_epoch().count(),
                std::memory_order_relaxed);
  // Span ids restart with each stream, unless global spans are open: their
  // ids must stay unique in the record.
  if (rec.fold.open.empty()) g_next_id.store(0, std::memory_order_relaxed);

  json::Writer w;
  w.begin_object();
  w.kv("ev", "run");
  w.kv("schema", kSchema);
  w.kv("name", run_name);
  w.kv("unix_ms",
       static_cast<std::int64_t>(
           std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::system_clock::now().time_since_epoch())
               .count()));
  w.kv("obs_enabled", enabled());
  w.kv("mem_tracking", memory::tracking_enabled());
  w.end_object();
  write_line_locked(rec.file, w.take());

  g_active.store(true, std::memory_order_release);

  const long long interval = heartbeat_interval_ms();
  if (interval > 0) {
    std::lock_guard hb_lock(g_hb_mu);
    g_hb_stop = false;
    g_hb_thread = std::thread(heartbeat_main, interval);
  }
  // Tools leave the sink open for their whole lifetime; retire the
  // heartbeat thread and flush the file on normal exit (a SIGKILL skips
  // this, which is exactly the truncated-stream case fold() handles).
  static const bool at_exit_registered = [] {
    return std::atexit([] { close(); }) == 0;
  }();
  (void)at_exit_registered;
  return true;
}

void close() {
  // Stop the hooks first so no event races the fclose, then retire the
  // heartbeat thread, then close the file.
  g_active.store(false, std::memory_order_release);
  {
    std::lock_guard hb_lock(g_hb_mu);
    g_hb_stop = true;
  }
  g_hb_cv.notify_all();
  if (g_hb_thread.joinable()) g_hb_thread.join();
  Record& rec = record();
  std::lock_guard lock(rec.mu);
  if (rec.file != nullptr) {
    std::fclose(rec.file);
    rec.file = nullptr;
  }
}

bool active() { return g_active.load(std::memory_order_acquire); }

Event::Event(const char* kind) {
  if (!active() || !enabled()) return;
  const memory::PauseScope pause;
  on_ = true;
  line_.reserve(96);
  line_ += "{\"ev\":\"";
  json::append_escaped(line_, kind);
  line_ += '"';
}

Event::~Event() {
  if (!on_) return;
  const memory::PauseScope pause;
  std::string line = std::move(line_);  // freed while still paused
  append_t(line);
  line += '}';
  detail::emit_line(line, TaskCapture::kEvents);
}

template <typename AppendValue>
Event& Event::add(const char* key, AppendValue&& append_value) {
  if (!on_) return *this;
  const memory::PauseScope pause;
  line_ += ",\"";
  json::append_escaped(line_, key);
  line_ += "\":";
  append_value(line_);
  return *this;
}

Event& Event::field(const char* key, std::int64_t v) {
  return add(key, [v](std::string& line) { json::append_number(line, v); });
}

Event& Event::field(const char* key, double v) {
  return add(key, [v](std::string& line) { json::append_number(line, v); });
}

Event& Event::field(const char* key, bool v) {
  return add(key, [v](std::string& line) { line += v ? "true" : "false"; });
}

Event& Event::field(const char* key, std::string_view v) {
  return add(key, [v](std::string& line) {
    line += '"';
    json::append_escaped(line, v);
    line += '"';
  });
}

namespace detail {

std::int64_t next_span_id() {
  return g_next_id.fetch_add(1, std::memory_order_relaxed) + 1;
}

void emit_line(std::string& line, TaskCapture::Channel channel) {
  if (TaskCapture* sink = obs::detail::current_task_sink()) {
    sink->lines[channel].push_back(std::move(line));
    return;
  }
  Record& rec = record();
  std::lock_guard lock(rec.mu);
  (void)apply_line(rec.fold, line);
  if (rec.file != nullptr) write_line_locked(rec.file, line);
}

void emit_open(std::int64_t id, std::int64_t parent, std::string_view name) {
  emit(TaskCapture::kSpans, [&](std::string& line) {
    line += "{\"ev\":\"open\",\"id\":";
    json::append_number(line, id);
    if (parent != 0) {
      line += ",\"parent\":";
      json::append_number(line, parent);
    }
    append_t(line);
    line += ",\"name\":\"";
    json::append_escaped(line, name);
    line += "\"}";
  });
}

void emit_close(std::int64_t id, const SpanNode& node) {
  emit(TaskCapture::kSpans, [&](std::string& line) {
    line += "{\"ev\":\"close\",\"id\":";
    json::append_number(line, id);
    append_t(line);
    // The span's own fields exactly as span_to_json renders them, which
    // the fold re-embeds verbatim.
    const std::string body = json::serialize(span_to_json(node));
    line += ',';
    line.append(body, 1, std::string::npos);
  });
}

void emit_tree(const SpanNode& node) {
  emit(TaskCapture::kSpans, [&](std::string& line) {
    line += "{\"ev\":\"span\"";
    append_t(line);
    line += ",\"root\":";
    line += json::serialize(span_to_json(node));
    line += '}';
  });
}

void emit_count(const char* name, std::int64_t delta) {
  emit_metric("count", name, "delta", delta);
}

void emit_gauge(const char* name, double value) {
  emit_metric("gauge", name, "value", value);
}

void emit_observe(const char* name, double value) {
  emit_metric("observe", name, "value", value);
}

json::Value emit_end(std::string_view name, const json::Value& meta,
                     bool obs_enabled, bool mem_tracking,
                     std::int64_t peak_rss_bytes) {
  const memory::PauseScope pause;
  Record& rec = record();
  std::lock_guard lock(rec.mu);
  std::string line = "{\"ev\":\"end\"";
  append_t(line);
  line += ",\"name\":\"";
  json::append_escaped(line, name);
  line += "\",\"obs_enabled\":";
  line += obs_enabled ? "true" : "false";
  line += ",\"meta\":";
  line += json::serialize(meta);
  line += ",\"dropped_root_spans\":";
  json::append_number(line, rec.fold.dropped_roots);
  line += ",\"mem_tracking\":";
  line += mem_tracking ? "true" : "false";
  if (peak_rss_bytes > 0) {
    line += ",\"peak_rss_bytes\":";
    json::append_number(line, peak_rss_bytes);
  }
  line += '}';
  (void)apply_line(rec.fold, line);
  if (rec.file != nullptr) write_line_locked(rec.file, line);
  return std::exchange(rec.fold.last_report, {});
}

}  // namespace detail

}  // namespace lac::obs::stream

namespace lac::obs {

void set_max_root_spans(std::size_t cap) {
  stream::Record& rec = stream::record();
  std::lock_guard lock(rec.mu);
  rec.fold.max_roots = cap;
}

std::size_t max_root_spans() {
  stream::Record& rec = stream::record();
  std::lock_guard lock(rec.mu);
  return rec.fold.max_roots;
}

void reset() {
  const memory::PauseScope pause;
  stream::Record& rec = stream::record();
  std::lock_guard lock(rec.mu);
  rec.fold.trace.clear();
  rec.fold.metrics = {};
}

}  // namespace lac::obs

namespace lac::obs::stream {

// ---------------------------------------------------------------------------
// Stripping: remove everything time- or machine-dependent.

std::string strip_stream(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) nl = text.size();
    const std::string_view line = text.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) continue;

    const std::optional<json::Value> parsed = json::parse(line);
    if (!parsed || !parsed->is_object()) {
      // Not an event (partial tail): keep verbatim so truncation stays
      // visible in the stripped form.
      out.append(line);
      out += '\n';
      continue;
    }
    const json::Value* kind = find_string(*parsed, "ev");
    const std::string k = kind != nullptr ? kind->str : std::string();
    if (k == "hb") continue;  // pure-time events vanish entirely
    if (k == "gauge") {
      if (const json::Value* n = find_string(*parsed, "name");
          n != nullptr && is_noisy_name(n->str))
        continue;  // rss/timing gauges are per-run noise
    }
    const bool noisy_observe = [&] {
      if (k != "observe") return false;
      const json::Value* n = find_string(*parsed, "name");
      return n != nullptr && is_noisy_name(n->str);
    }();

    json::Value stripped;
    stripped.kind = json::Value::Kind::kObject;
    for (const auto& [key, v] : parsed->object) {
      if (is_noisy_field(key)) continue;
      if (noisy_observe && key == "value") continue;  // count still compares
      if (key == "root" && v.is_object()) {
        stripped.object.emplace_back(key, strip_span_times(v));
        continue;
      }
      if (k == "end" && key == "meta" && v.is_object()) {
        json::Value meta;
        meta.kind = json::Value::Kind::kObject;
        for (const auto& [mk, mv] : v.object)
          if (!is_noisy_name(mk)) meta.object.emplace_back(mk, mv);
        stripped.object.emplace_back(key, std::move(meta));
        continue;
      }
      stripped.object.emplace_back(key, v);
    }
    out += json::serialize(stripped);
    out += '\n';
  }
  return out;
}

}  // namespace lac::obs::stream
