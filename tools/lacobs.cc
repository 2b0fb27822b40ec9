// lacobs — analysis CLI for lac-obs-report/2 run reports (v1 reports,
// which simply lack the memory fields, are accepted everywhere).
//
//   lacobs trace <report.json> [-o out.json]
//       Convert the report's span tree + metrics into Chrome trace-event
//       JSON (open in Perfetto / chrome://tracing).  Defaults to stdout.
//   lacobs summary <report.json...>
//       Aggregate per-span-name table (count/total/self/min/max/mean)
//       across all given reports, the critical chain, what proved each
//       planning iteration's T_min, and the counters.
//       Warns on stderr when the reports dropped root spans.
//   lacobs top <report.json...> [-n N]
//       Hotspot view: the N span names with the largest self time, and —
//       when the reports carry memory data — the N with the largest self
//       allocation.
//   lacobs mem <report.json...> [--per-gate]
//       Per-span-name memory table (allocated / freed / peak live) plus
//       the mem.* gauges.  --per-gate divides byte values by the total
//       cell count from the planner.plan root annotations.
//   lacobs diff <baseline.json> <report.json> [--time-tol F]
//         [--time-fail F] [--timings-warn-only] [--min-seconds S]
//         [--ignore PREFIX]...
//       Diff a report against a baseline.  Exit 0 when clean, 1 on
//       timing warnings, 2 on a regression (deterministic mismatch or a
//       timing past the fail tier) — CI gates on the exit code.
//   lacobs strip-times <report.json> [-o out.json]
//       Copy of the report with wall-clock and memory data removed, for
//       checking in as a byte-stable baseline.
//   lacobs fold <stream.jsonl> [-o out.json]
//       Reduce a lac-obs-events/1 stream — complete or truncated — into a
//       lac-obs-report/2 document every other command accepts.  A killed
//       run's partial stream folds to a forensic report marked
//       "truncated": true (warning on stderr).
//   lacobs tail <stream.jsonl> [--once] [--interval MS]
//       Follow a live event stream: per-stage progress table (done /
//       running / ETA from completed same-name spans), latest LAC round,
//       and RSS.  --once renders a single snapshot; otherwise refreshes
//       until the run's `end` event arrives.
//
// Exit codes: 0 ok · 1 diff warnings · 2 diff regression · 64 usage
// error · 66 unreadable/unparseable input.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/str_util.h"
#include "base/table.h"
#include "obs/analyze.h"
#include "obs/compare.h"
#include "obs/json.h"
#include "obs/stream.h"
#include "obs/trace_event.h"

namespace {

using namespace lac;

constexpr int kExitOk = 0;
constexpr int kExitWarn = 1;
constexpr int kExitRegress = 2;
constexpr int kExitUsage = 64;    // EX_USAGE
constexpr int kExitNoInput = 66;  // EX_NOINPUT

void print_usage(std::FILE* to) {
  std::fprintf(to,
               "usage: lacobs <command> [args]\n"
               "\n"
               "commands:\n"
               "  trace <report.json> [-o out.json]\n"
               "      convert a lac-obs-report/2 (or /1) file to Chrome "
               "trace-event JSON\n"
               "      (Perfetto / chrome://tracing); stdout by default\n"
               "  summary <report.json...>\n"
               "      aggregate span table, critical chain, T_min proofs and counters "
               "across runs\n"
               "  top <report.json...> [-n N]\n"
               "      top-N spans by self time and by self allocation "
               "(default 10)\n"
               "  mem <report.json...> [--per-gate]\n"
               "      per-span memory table and mem.* gauges; --per-gate "
               "normalises\n"
               "      bytes by the planned cell count\n"
               "  diff <baseline.json> <report.json> [--time-tol F] "
               "[--time-fail F]\n"
               "       [--timings-warn-only] [--min-seconds S] "
               "[--ignore PREFIX]... [--json]\n"
               "      compare against a baseline; exit 0 ok, 1 warnings, "
               "2 regression\n"
               "      --ignore skips counters/gauges/histograms/spans whose "
               "name starts\n"
               "      with PREFIX (repeatable; for cross-config comparisons)\n"
               "      --json prints a machine-readable lac-obs-diff/1 "
               "verdict instead\n"
               "      of the table (same exit code)\n"
               "  strip-times <report.json> [-o out.json]\n"
               "      drop wall-clock data so the report can serve as a "
               "CI baseline\n"
               "  fold <stream.jsonl> [-o out.json]\n"
               "      reduce a lac-obs-events/1 stream (complete or "
               "truncated) into a\n"
               "      lac-obs-report/2 document; a killed run's partial "
               "stream folds to\n"
               "      a forensic report with \"truncated\": true\n"
               "  strip-stream <stream.jsonl> [-o out.jsonl]\n"
               "      drop every time/RSS field and heartbeat from a "
               "stream; two runs\n"
               "      of the same work strip to identical text at any "
               "thread count\n"
               "  tail <stream.jsonl> [--once] [--interval MS]\n"
               "      follow a live event stream: per-stage progress/ETA "
               "table, latest\n"
               "      LAC round and RSS; --once renders one snapshot, "
               "otherwise\n"
               "      refreshes (default every 500 ms) until the run ends\n"
               "  help | --help | -h\n");
}

int usage_error(const std::string& msg) {
  std::fprintf(stderr, "lacobs: %s\n", msg.c_str());
  print_usage(stderr);
  return kExitUsage;
}

// The report's "schema" string ("lac-obs-report/2"), or "?" when absent.
std::string report_schema(const obs::json::Value& report) {
  const obs::json::Value* s = report.find("schema");
  if (s == nullptr || s->kind != obs::json::Value::Kind::kString) return "?";
  return s->str;
}

// Loads and parses a report, exiting the command with kExitNoInput via
// the returned flag when it cannot be read.  Reports from a *newer*
// schema generation (lac-obs-report/N, N >= 3) load with a warning
// rather than failing: old tools keep working on whatever subset of the
// document they understand.
bool load_report(const std::string& path, obs::json::Value& out) {
  auto doc = obs::json::parse_file(path);
  if (!doc) {
    std::fprintf(stderr, "lacobs: cannot read or parse %s\n", path.c_str());
    return false;
  }
  out = std::move(*doc);
  const std::string schema = report_schema(out);
  constexpr std::string_view kPrefix = "lac-obs-report/";
  if (schema.rfind(kPrefix, 0) == 0) {
    char* end = nullptr;
    const long long gen = std::strtoll(schema.c_str() + kPrefix.size(),
                                       &end, 10);
    if (end != nullptr && *end == '\0' && gen >= 3)
      std::fprintf(stderr,
                   "lacobs: warning: %s has schema %s, newer than this "
                   "tool understands;\n"
                   "lacobs: parsing best-effort — upgrade lacobs for full "
                   "fidelity\n",
                   path.c_str(), schema.c_str());
  }
  return true;
}

bool write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) return false;
  out << text << '\n';
  return static_cast<bool>(out);
}

// Renders `text` to `-o` target when given, stdout otherwise.
int emit(const std::string& out_path, const std::string& text) {
  if (out_path.empty()) {
    std::printf("%s\n", text.c_str());
    return kExitOk;
  }
  if (!write_text(out_path, text)) {
    std::fprintf(stderr, "lacobs: cannot write %s\n", out_path.c_str());
    return kExitNoInput;
  }
  return kExitOk;
}

// Parses `<report> [-o out]` for trace / strip-times.
bool parse_report_and_output(const std::vector<std::string>& args,
                             std::string& report, std::string& out,
                             std::string& err) {
  report.clear();
  out.clear();
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "-o" || args[i] == "--output") {
      if (i + 1 >= args.size()) {
        err = args[i] + " needs a path";
        return false;
      }
      out = args[++i];
    } else if (!args[i].empty() && args[i][0] == '-') {
      err = "unknown option " + args[i];
      return false;
    } else if (report.empty()) {
      report = args[i];
    } else {
      err = "unexpected argument " + args[i];
      return false;
    }
  }
  if (report.empty()) {
    err = "missing report path";
    return false;
  }
  return true;
}

int cmd_trace(const std::vector<std::string>& args) {
  std::string report_path, out_path, err;
  if (!parse_report_and_output(args, report_path, out_path, err))
    return usage_error("trace: " + err);
  obs::json::Value report;
  if (!load_report(report_path, report)) return kExitNoInput;
  return emit(out_path, obs::render_trace_events(report));
}

int cmd_strip_times(const std::vector<std::string>& args) {
  std::string report_path, out_path, err;
  if (!parse_report_and_output(args, report_path, out_path, err))
    return usage_error("strip-times: " + err);
  obs::json::Value report;
  if (!load_report(report_path, report)) return kExitNoInput;
  return emit(out_path, obs::json::serialize(obs::strip_times(report)));
}

// Everything top/mem/summary need from a set of reports.  Counters and
// dropped-span counts sum across reports; gauges keep the per-name max
// (each report is a separate run, so max is the right aggregate for the
// mem.* footprint gauges).
struct LoadedReports {
  std::vector<obs::SpanNode> roots;
  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;
  std::vector<std::string> schemas;  // unique, first-seen order
  std::int64_t dropped_root_spans = 0;
  int reports = 0;
};

bool load_many(const std::vector<std::string>& paths, LoadedReports& out) {
  for (const std::string& path : paths) {
    obs::json::Value report;
    if (!load_report(path, report)) return false;
    if (const std::string schema = report_schema(report);
        std::find(out.schemas.begin(), out.schemas.end(), schema) ==
        out.schemas.end())
      out.schemas.push_back(schema);
    for (obs::SpanNode& r : obs::trace_from_report(report))
      out.roots.push_back(std::move(r));
    if (const auto* c = report.at_path({"metrics", "counters"});
        c != nullptr && c->is_object())
      for (const auto& [k, v] : c->object)
        if (v.kind == obs::json::Value::Kind::kNumber)
          out.counters[k] += v.num;
    if (const auto* g = report.at_path({"metrics", "gauges"});
        g != nullptr && g->is_object())
      for (const auto& [k, v] : g->object)
        if (v.kind == obs::json::Value::Kind::kNumber) {
          auto [it, fresh] = out.gauges.emplace(k, v.num);
          if (!fresh && v.num > it->second) it->second = v.num;
        }
    if (const auto* d = report.at_path({"dropped_root_spans"});
        d != nullptr && d->kind == obs::json::Value::Kind::kNumber)
      out.dropped_root_spans += static_cast<std::int64_t>(d->num);
    ++out.reports;
  }
  return true;
}

// Shared stderr warning: a nonzero dropped-span count means the span
// tables undercount whatever was dropped.
void warn_dropped(const LoadedReports& loaded) {
  if (loaded.dropped_root_spans <= 0) return;
  std::fprintf(stderr,
               "lacobs: warning: %lld root span(s) were dropped by the "
               "span-store cap;\n"
               "lacobs: raise it with --span-cap / "
               "RunControls::max_root_spans for full data\n",
               static_cast<long long>(loaded.dropped_root_spans));
}

// An annotation's value as text, fractions with one decimal.
std::string annotation_text(const obs::Annotation& a) {
  switch (a.kind) {
    case obs::Annotation::Kind::kString: return a.s;
    case obs::Annotation::Kind::kDouble: return format_double(a.d, 1);
    case obs::Annotation::Kind::kInt: return std::to_string(a.i);
    case obs::Annotation::Kind::kBool: return a.b ? "true" : "false";
  }
  return "";
}

// One row per stage.timing span whose timing.min_period child says what
// proved T_min, under the circuit of the nearest annotated ancestor.
void collect_t_min_proofs(const obs::SpanNode& node, std::string circuit,
                          TextTable& table, int& rows) {
  if (const obs::Annotation* c = node.find_annotation("circuit"))
    circuit = annotation_text(*c);
  if (node.name == "stage.timing") {
    const obs::SpanNode* search = node.find_child("timing.min_period");
    const obs::Annotation* proof =
        search != nullptr ? search->find_annotation("t_min_proof") : nullptr;
    if (proof != nullptr) {
      auto text = [](const obs::SpanNode& n, const char* key) {
        const obs::Annotation* a = n.find_annotation(key);
        return a != nullptr ? annotation_text(*a) : std::string("-");
      };
      table.add_row({circuit, text(node, "t_min_ps"),
                     text(*search, "io_bound_ps"), annotation_text(*proof)});
      ++rows;
    }
  }
  for (const obs::SpanNode& child : node.children)
    collect_t_min_proofs(child, circuit, table, rows);
}

int cmd_summary(const std::vector<std::string>& args) {
  if (args.empty()) return usage_error("summary: missing report path");
  for (const std::string& a : args)
    if (!a.empty() && a[0] == '-')
      return usage_error("summary: unknown option " + a);

  LoadedReports loaded;
  if (!load_many(args, loaded)) return kExitNoInput;
  warn_dropped(loaded);
  std::vector<obs::SpanNode>& roots = loaded.roots;
  std::map<std::string, double>& counters = loaded.counters;
  const int reports = loaded.reports;

  std::string schemas;
  for (const std::string& s : loaded.schemas) {
    if (!schemas.empty()) schemas += ", ";
    schemas += s;
  }
  std::printf("%d report(s), %zu root span(s), schema %s\n\n", reports,
              roots.size(), schemas.c_str());

  const auto stats = obs::aggregate_spans(roots);
  if (!stats.empty()) {
    TextTable table({"span", "count", "total(s)", "self(s)", "min(s)",
                     "max(s)", "mean(s)"});
    for (const obs::SpanStats& s : stats)
      table.add_row({s.name, std::to_string(s.count),
                     format_double(s.total_seconds, 4),
                     format_double(s.self_seconds, 4),
                     format_double(s.min_seconds, 4),
                     format_double(s.max_seconds, 4),
                     format_double(s.mean_seconds(), 4)});
    std::printf("%s\n", table.to_string().c_str());

    const auto chain = obs::critical_chain(roots);
    std::string rendered;
    for (const obs::SpanNode* n : chain) {
      if (!rendered.empty()) rendered += " > ";
      rendered += n->name + " (" + format_double(n->seconds, 4) + "s)";
    }
    std::printf("critical chain: %s\n\n", rendered.c_str());

    TextTable proofs({"circuit", "t_min_ps", "io_bound_ps", "t_min_proof"});
    int rows = 0;
    for (const obs::SpanNode& root : roots)
      collect_t_min_proofs(root, "-", proofs, rows);
    if (rows > 0) std::printf("%s\n", proofs.to_string().c_str());
  }

  if (!counters.empty()) {
    TextTable table({"counter", "value"});
    for (const auto& [k, v] : counters)
      table.add_row({k, format_double(v, 0)});
    std::printf("%s\n", table.to_string().c_str());
  }
  return kExitOk;
}

// Bytes column: integers as-is; --per-gate averages get one decimal.
std::string format_bytes(double v, bool per_gate) {
  return format_double(v, per_gate ? 1 : 0);
}

int cmd_top(const std::vector<std::string>& args) {
  long long limit = 10;
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "-n" || args[i] == "--top") {
      if (i + 1 >= args.size())
        return usage_error("top: " + args[i] + " needs a count");
      char* end = nullptr;
      limit = std::strtoll(args[i + 1].c_str(), &end, 10);
      if (end == nullptr || *end != '\0' || end == args[i + 1].c_str() ||
          limit <= 0)
        return usage_error("top: bad count '" + args[i + 1] + "'");
      ++i;
    } else if (!args[i].empty() && args[i][0] == '-') {
      return usage_error("top: unknown option " + args[i]);
    } else {
      paths.push_back(args[i]);
    }
  }
  if (paths.empty()) return usage_error("top: missing report path");

  LoadedReports loaded;
  if (!load_many(paths, loaded)) return kExitNoInput;
  warn_dropped(loaded);

  auto stats = obs::aggregate_spans(loaded.roots);
  const std::size_t n =
      std::min<std::size_t>(stats.size(), static_cast<std::size_t>(limit));

  // By self time (exclusive of children): the actual hotspots, not the
  // parents that merely contain them.
  std::sort(stats.begin(), stats.end(),
            [](const obs::SpanStats& a, const obs::SpanStats& b) {
              if (a.self_seconds != b.self_seconds)
                return a.self_seconds > b.self_seconds;
              return a.name < b.name;
            });
  std::printf("top %zu by self time\n", n);
  TextTable time_table({"#", "span", "count", "self(s)", "total(s)"});
  for (std::size_t i = 0; i < n; ++i)
    time_table.add_row({std::to_string(i + 1), stats[i].name,
                        std::to_string(stats[i].count),
                        format_double(stats[i].self_seconds, 4),
                        format_double(stats[i].total_seconds, 4)});
  std::printf("%s\n", time_table.to_string().c_str());

  bool any_mem = false;
  for (const obs::SpanStats& s : stats) any_mem |= s.has_mem;
  if (!any_mem) {
    std::printf("no span memory data (v1 report or LAC_OBS_MEM off)\n");
    return kExitOk;
  }
  std::sort(stats.begin(), stats.end(),
            [](const obs::SpanStats& a, const obs::SpanStats& b) {
              if (a.self_alloc_bytes != b.self_alloc_bytes)
                return a.self_alloc_bytes > b.self_alloc_bytes;
              return a.name < b.name;
            });
  std::printf("top %zu by self allocation\n", n);
  TextTable mem_table(
      {"#", "span", "count", "self_alloc(B)", "alloc(B)", "peak_live(B)"});
  for (std::size_t i = 0; i < n; ++i)
    mem_table.add_row(
        {std::to_string(i + 1), stats[i].name, std::to_string(stats[i].count),
         std::to_string(stats[i].self_alloc_bytes),
         std::to_string(stats[i].alloc_bytes),
         std::to_string(stats[i].peak_live_bytes)});
  std::printf("%s\n", mem_table.to_string().c_str());
  return kExitOk;
}

int cmd_mem(const std::vector<std::string>& args) {
  bool per_gate = false;
  std::vector<std::string> paths;
  for (const std::string& a : args) {
    if (a == "--per-gate") {
      per_gate = true;
    } else if (!a.empty() && a[0] == '-') {
      return usage_error("mem: unknown option " + a);
    } else {
      paths.push_back(a);
    }
  }
  if (paths.empty()) return usage_error("mem: missing report path");

  LoadedReports loaded;
  if (!load_many(paths, loaded)) return kExitNoInput;
  warn_dropped(loaded);

  // --per-gate normalisation: total planned cells, from the `cells`
  // annotation the planner writes on every planner.plan root span.
  double gates = 0.0;
  for (const obs::SpanNode& root : loaded.roots)
    if (const obs::Annotation* a = root.find_annotation("cells");
        a != nullptr && a->kind == obs::Annotation::Kind::kInt)
      gates += static_cast<double>(a->i);
  if (per_gate && gates <= 0.0) {
    std::fprintf(stderr,
                 "lacobs: mem: --per-gate needs planner.plan roots with a "
                 "'cells' annotation\n");
    return kExitNoInput;
  }
  const double scale = per_gate ? 1.0 / gates : 1.0;
  const char* unit = per_gate ? "B/gate" : "B";

  const auto stats = obs::aggregate_spans(loaded.roots);
  bool any_mem = false;
  for (const obs::SpanStats& s : stats) any_mem |= s.has_mem;
  if (any_mem) {
    TextTable table({"span", "count", std::string("alloc(") + unit + ")",
                     std::string("freed(") + unit + ")",
                     std::string("self_alloc(") + unit + ")",
                     std::string("peak_live(") + unit + ")"});
    for (const obs::SpanStats& s : stats) {
      if (!s.has_mem) continue;
      table.add_row(
          {s.name, std::to_string(s.count),
           format_bytes(static_cast<double>(s.alloc_bytes) * scale, per_gate),
           format_bytes(static_cast<double>(s.freed_bytes) * scale, per_gate),
           format_bytes(static_cast<double>(s.self_alloc_bytes) * scale,
                        per_gate),
           format_bytes(static_cast<double>(s.peak_live_bytes) * scale,
                        per_gate)});
    }
    std::printf("%s\n", table.to_string().c_str());
  } else {
    std::printf("no span memory data (v1 report or LAC_OBS_MEM off)\n\n");
  }

  bool any_gauge = false;
  for (const auto& [k, v] : loaded.gauges)
    any_gauge |= k.rfind("mem.", 0) == 0;
  if (any_gauge) {
    TextTable table({"gauge", std::string("value(") + unit + ")"});
    for (const auto& [k, v] : loaded.gauges) {
      if (k.rfind("mem.", 0) != 0) continue;
      // RSS is a process-wide OS number; normalising it per gate would
      // suggest a precision it does not have.
      const bool rss = k.find("rss") != std::string::npos;
      table.add_row({rss ? k + " (noisy)" : k,
                     format_bytes(v * (rss ? 1.0 : scale),
                                  per_gate && !rss)});
    }
    std::printf("%s\n", table.to_string().c_str());
  } else {
    std::printf("no mem.* gauges in the report(s)\n");
  }
  if (per_gate)
    std::printf("normalised by %s gates\n", format_double(gates, 0).c_str());
  return kExitOk;
}

int cmd_diff(const std::vector<std::string>& args) {
  obs::DiffOptions opts;
  bool as_json = false;
  std::string baseline_path, report_path;
  const auto double_flag = [&](std::size_t& i, double& out,
                               std::string& err) {
    if (i + 1 >= args.size()) {
      err = args[i] + " needs a value";
      return false;
    }
    char* end = nullptr;
    out = std::strtod(args[i + 1].c_str(), &end);
    if (end == nullptr || *end != '\0') {
      err = "bad number for " + args[i] + ": " + args[i + 1];
      return false;
    }
    ++i;
    return true;
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    std::string err;
    if (args[i] == "--time-tol") {
      if (!double_flag(i, opts.time_warn_tol, err))
        return usage_error("diff: " + err);
    } else if (args[i] == "--time-fail") {
      if (!double_flag(i, opts.time_fail_tol, err))
        return usage_error("diff: " + err);
    } else if (args[i] == "--min-seconds") {
      if (!double_flag(i, opts.min_seconds, err))
        return usage_error("diff: " + err);
    } else if (args[i] == "--timings-warn-only") {
      opts.timings_warn_only = true;
    } else if (args[i] == "--json") {
      as_json = true;
    } else if (args[i] == "--ignore") {
      if (i + 1 >= args.size())
        return usage_error("diff: --ignore needs a value");
      opts.ignore_prefixes.push_back(args[++i]);
    } else if (!args[i].empty() && args[i][0] == '-') {
      return usage_error("diff: unknown option " + args[i]);
    } else if (baseline_path.empty()) {
      baseline_path = args[i];
    } else if (report_path.empty()) {
      report_path = args[i];
    } else {
      return usage_error("diff: unexpected argument " + args[i]);
    }
  }
  if (baseline_path.empty() || report_path.empty())
    return usage_error("diff: need <baseline.json> <report.json>");

  obs::json::Value baseline, report;
  if (!load_report(baseline_path, baseline)) return kExitNoInput;
  if (!load_report(report_path, report)) return kExitNoInput;

  const obs::DiffResult res = obs::diff_reports(baseline, report, opts);

  const auto kind_name = [](obs::DiffEntry::Kind k) {
    switch (k) {
      case obs::DiffEntry::Kind::kCounter: return "counter";
      case obs::DiffEntry::Kind::kGauge: return "gauge";
      case obs::DiffEntry::Kind::kHistogram: return "histogram";
      case obs::DiffEntry::Kind::kSpanCount: return "span-count";
      case obs::DiffEntry::Kind::kSpanTime: return "span-time";
    }
    return "?";
  };
  // Counters and span counts are integers; timings get 4 decimals.
  const auto fmt = [](double v) {
    return v == static_cast<double>(static_cast<long long>(v))
               ? format_double(v, 0)
               : format_double(v, 4);
  };
  if (as_json) {
    // Machine-readable verdict (lac-obs-diff/1): overall verdict, per-class
    // counts, and every non-ok entry — the CI gate annotates failures from
    // this instead of scraping the table.
    obs::json::Writer w;
    w.begin_object();
    w.kv("schema", "lac-obs-diff/1");
    w.kv("baseline", baseline_path);
    w.kv("report", report_path);
    w.kv("verdict", obs::verdict_name(res.verdict));
    w.key("counts");
    w.begin_object();
    w.kv("ok", res.count(obs::Verdict::kOk));
    w.kv("warn", res.count(obs::Verdict::kWarn));
    w.kv("regress", res.count(obs::Verdict::kRegress));
    w.end_object();
    w.kv("comparisons", static_cast<std::int64_t>(res.entries.size()));
    w.key("entries");
    w.begin_array();
    for (const obs::DiffEntry& e : res.entries) {
      if (e.verdict == obs::Verdict::kOk) continue;
      w.begin_object();
      w.kv("verdict", obs::verdict_name(e.verdict));
      w.kv("kind", kind_name(e.kind));
      w.kv("name", e.name);
      w.kv("baseline", e.baseline);
      w.kv("current", e.current);
      w.kv("note", e.note);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    std::printf("%s\n", w.take().c_str());
    switch (res.verdict) {
      case obs::Verdict::kOk: return kExitOk;
      case obs::Verdict::kWarn: return kExitWarn;
      case obs::Verdict::kRegress: return kExitRegress;
    }
    return kExitRegress;
  }
  bool any = false;
  TextTable table({"verdict", "kind", "name", "baseline", "current", "note"});
  for (const obs::DiffEntry& e : res.entries) {
    if (e.verdict == obs::Verdict::kOk) continue;
    any = true;
    table.add_row({obs::verdict_name(e.verdict), kind_name(e.kind), e.name,
                   fmt(e.baseline), fmt(e.current), e.note});
  }
  if (any) std::printf("%s\n", table.to_string().c_str());
  std::printf("%zu comparison(s): %d ok, %d warn, %d regress\n",
              res.entries.size(), res.count(obs::Verdict::kOk),
              res.count(obs::Verdict::kWarn),
              res.count(obs::Verdict::kRegress));
  std::printf("verdict: %s\n", obs::verdict_name(res.verdict));
  switch (res.verdict) {
    case obs::Verdict::kOk: return kExitOk;
    case obs::Verdict::kWarn: return kExitWarn;
    case obs::Verdict::kRegress: return kExitRegress;
  }
  return kExitRegress;
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  out = buf.str();
  return true;
}

int cmd_strip_stream(const std::vector<std::string>& args) {
  std::string stream_path, out_path, err;
  if (!parse_report_and_output(args, stream_path, out_path, err))
    return usage_error("strip-stream: " + err);
  std::string text;
  if (!read_file(stream_path, text)) {
    std::fprintf(stderr, "lacobs: cannot read %s\n", stream_path.c_str());
    return kExitNoInput;
  }
  std::string stripped = obs::stream::strip_stream(text);
  // emit() appends one newline; the stripped stream already ends with one.
  if (!stripped.empty() && stripped.back() == '\n') stripped.pop_back();
  return emit(out_path, stripped);
}

int cmd_fold(const std::vector<std::string>& args) {
  std::string stream_path, out_path, err;
  if (!parse_report_and_output(args, stream_path, out_path, err))
    return usage_error("fold: " + err);
  const auto folded = obs::stream::fold_file(stream_path);
  if (!folded) {
    std::fprintf(stderr, "lacobs: cannot read %s or it contains no events\n",
                 stream_path.c_str());
    return kExitNoInput;
  }
  if (folded->truncated)
    std::fprintf(stderr,
                 "lacobs: warning: stream is truncated (killed run?): "
                 "folded %lld event(s),\n"
                 "lacobs: skipped %lld unparseable line(s); report is "
                 "marked \"truncated\": true\n",
                 static_cast<long long>(folded->events),
                 static_cast<long long>(folded->skipped_lines));
  return emit(out_path, obs::json::serialize(folded->report));
}

// ---------------------------------------------------------------------------
// tail: live progress from a stream.

// Per-stage aggregate over the events seen so far.
struct TailStage {
  long long done = 0;
  double total_seconds = 0.0;
  long long running = 0;
  double oldest_open_t = 0.0;  // open time of the longest-running instance
};

struct TailState {
  std::string run_name;
  std::map<std::string, TailStage> stages;
  std::map<std::int64_t, std::pair<std::string, double>> open;  // id->name,t
  double last_t = 0.0;
  long long rss_bytes = 0;
  std::string round_line;
  long long events = 0;
  bool end_seen = false;
};

void tail_add_tree(TailState& st, const obs::json::Value& span) {
  const obs::json::Value* name = span.find("name");
  if (name != nullptr && name->kind == obs::json::Value::Kind::kString) {
    TailStage& stage = st.stages[name->str];
    ++stage.done;
    if (const obs::json::Value* s = span.find("seconds");
        s != nullptr && s->kind == obs::json::Value::Kind::kNumber)
      stage.total_seconds += s->num;
  }
  if (const obs::json::Value* kids = span.find("children");
      kids != nullptr && kids->is_array())
    for (const obs::json::Value& c : kids->array)
      if (c.is_object()) tail_add_tree(st, c);
}

TailState tail_parse(const std::string& text) {
  TailState st;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    const std::string_view line =
        std::string_view(text).substr(pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) continue;
    const auto parsed = obs::json::parse(line);
    if (!parsed || !parsed->is_object()) continue;
    const obs::json::Value& ev = *parsed;
    const obs::json::Value* kind = ev.find("ev");
    if (kind == nullptr || kind->kind != obs::json::Value::Kind::kString)
      continue;
    ++st.events;
    if (const obs::json::Value* t = ev.find("t");
        t != nullptr && t->kind == obs::json::Value::Kind::kNumber)
      st.last_t = std::max(st.last_t, t->num);
    const std::string& k = kind->str;
    const auto num = [&](const char* key, double fallback) {
      const obs::json::Value* v = ev.find(key);
      return v != nullptr && v->kind == obs::json::Value::Kind::kNumber
                 ? v->num
                 : fallback;
    };
    if (k == "run") {
      if (const obs::json::Value* n = ev.find("name");
          n != nullptr && n->kind == obs::json::Value::Kind::kString)
        st.run_name = n->str;
    } else if (k == "open") {
      const obs::json::Value* n = ev.find("name");
      if (n != nullptr && n->kind == obs::json::Value::Kind::kString)
        st.open[static_cast<std::int64_t>(num("id", 0.0))] = {n->str,
                                                              num("t", 0.0)};
    } else if (k == "close") {
      const std::int64_t id = static_cast<std::int64_t>(num("id", 0.0));
      st.open.erase(id);
      if (const obs::json::Value* n = ev.find("name");
          n != nullptr && n->kind == obs::json::Value::Kind::kString) {
        TailStage& stage = st.stages[n->str];
        ++stage.done;
        stage.total_seconds += num("seconds", 0.0);
      }
    } else if (k == "span") {
      if (const obs::json::Value* root = ev.find("root");
          root != nullptr && root->is_object())
        tail_add_tree(st, *root);
    } else if (k == "hb") {
      if (const double rss = num("rss_bytes", 0.0); rss > 0)
        st.rss_bytes = static_cast<long long>(rss);
    } else if (k == "round") {
      st.round_line =
          "LAC round " + format_double(num("round", 0.0), 0) +
          ": n_foa=" + format_double(num("n_foa", 0.0), 0) +
          " best=" + format_double(num("best_n_foa", 0.0), 0) +
          " overflow=" + format_double(num("max_overflow", 0.0), 2);
      const obs::json::Value* improved = ev.find("improved");
      if (improved != nullptr &&
          improved->kind == obs::json::Value::Kind::kBool && improved->b)
        st.round_line += " (improved)";
    } else if (k == "end") {
      st.end_seen = true;
    }
  }
  // Spans still open count as running for their stage.
  for (const auto& [id, name_t] : st.open) {
    TailStage& stage = st.stages[name_t.first];
    ++stage.running;
    if (stage.running == 1 || name_t.second < stage.oldest_open_t)
      stage.oldest_open_t = name_t.second;
  }
  return st;
}

void tail_render(const TailState& st) {
  std::printf("--- %s  t=%ss  events=%lld%s\n",
              st.run_name.empty() ? "(stream)" : st.run_name.c_str(),
              format_double(st.last_t, 1).c_str(), st.events,
              st.end_seen ? "  [finished]" : "");
  if (st.rss_bytes > 0)
    std::printf("rss: %s MB\n",
                format_double(static_cast<double>(st.rss_bytes) / 1048576.0,
                              1)
                    .c_str());
  if (!st.round_line.empty()) std::printf("%s\n", st.round_line.c_str());
  if (st.stages.empty()) {
    std::printf("(no span events yet)\n");
    return;
  }
  // Largest total time first; one-screen cap.
  std::vector<std::pair<std::string, TailStage>> rows(st.stages.begin(),
                                                      st.stages.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    if (a.second.total_seconds != b.second.total_seconds)
      return a.second.total_seconds > b.second.total_seconds;
    return a.first < b.first;
  });
  if (rows.size() > 15) rows.resize(15);
  TextTable table({"stage", "done", "mean(s)", "running", "eta(s)"});
  for (const auto& [name, s] : rows) {
    const double mean =
        s.done > 0 ? s.total_seconds / static_cast<double>(s.done) : 0.0;
    // ETA of the longest-running open instance, from the mean of finished
    // instances of the same stage; "?" without history.
    std::string eta = "-";
    if (s.running > 0)
      eta = s.done > 0 ? format_double(std::max(
                             0.0, mean - (st.last_t - s.oldest_open_t)),
                                       1)
                       : "?";
    table.add_row({name, std::to_string(s.done),
                   s.done > 0 ? format_double(mean, 4) : "-",
                   std::to_string(s.running), eta});
  }
  std::printf("%s", table.to_string().c_str());
}

int cmd_tail(const std::vector<std::string>& args) {
  std::string path;
  bool once = false;
  long long interval_ms = 500;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--once") {
      once = true;
    } else if (args[i] == "--interval") {
      if (i + 1 >= args.size())
        return usage_error("tail: --interval needs a millisecond count");
      char* end = nullptr;
      interval_ms = std::strtoll(args[i + 1].c_str(), &end, 10);
      if (end == nullptr || *end != '\0' || end == args[i + 1].c_str() ||
          interval_ms <= 0)
        return usage_error("tail: bad --interval value '" + args[i + 1] +
                           "'");
      ++i;
    } else if (!args[i].empty() && args[i][0] == '-') {
      return usage_error("tail: unknown option " + args[i]);
    } else if (path.empty()) {
      path = args[i];
    } else {
      return usage_error("tail: unexpected argument " + args[i]);
    }
  }
  if (path.empty()) return usage_error("tail: missing stream path");

  std::string text;
  long long last_events = -1;
  while (true) {
    if (!read_file(path, text)) {
      std::fprintf(stderr, "lacobs: cannot read %s\n", path.c_str());
      return kExitNoInput;
    }
    const TailState st = tail_parse(text);
    // Re-render only when something new arrived (first pass always).
    if (st.events != last_events) {
      tail_render(st);
      last_events = st.events;
    }
    if (once || st.end_seen) return kExitOk;
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage_error("missing command");
  const std::string cmd = argv[1];
  const std::vector<std::string> args(argv + 2, argv + argc);

  if (cmd == "help" || cmd == "--help" || cmd == "-h") {
    print_usage(stdout);
    return kExitOk;
  }
  if (cmd == "trace") return cmd_trace(args);
  if (cmd == "summary") return cmd_summary(args);
  if (cmd == "top") return cmd_top(args);
  if (cmd == "mem") return cmd_mem(args);
  if (cmd == "diff") return cmd_diff(args);
  if (cmd == "strip-times") return cmd_strip_times(args);
  if (cmd == "fold") return cmd_fold(args);
  if (cmd == "strip-stream") return cmd_strip_stream(args);
  if (cmd == "tail") return cmd_tail(args);
  return usage_error("unknown command '" + cmd + "'");
}
