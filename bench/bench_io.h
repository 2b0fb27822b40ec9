// Shared CLI plumbing for the bench binaries: every tool accepts an
// optional output directory as its first positional argument (default
// "."), understands --help, rejects unknown options with exit 64
// (EX_USAGE), and writes a structured observability run report before
// exiting.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "base/exec_policy.h"
#include "obs/report.h"
#include "obs/stream.h"

namespace lac::bench_io {

struct Cli {
  std::string out_dir = ".";
  // --limit N: run only the first N suite circuits (table1_main); -1 =
  // whole suite.
  long long limit = -1;
  // --threads N: worker threads for every parallel stage; 0 (the default,
  // also when the flag is absent) resolves to hardware_concurrency() with
  // a floor of 1.  Negative values are rejected with exit 64.
  long long threads = 0;
  // --span-cap N: report trace capacity (RunControls::max_root_spans);
  // 0 (flag absent) keeps the default.  Spans beyond the cap are dropped
  // and counted in the report's dropped_root_spans.
  long long span_cap = 0;
  // --stream PATH (or LAC_OBS_STREAM): append the lac-obs-events/1 event
  // log here, flushed per event; empty = streaming off.  parse_cli opens
  // the sink before returning, so the stream covers the whole run.
  std::string stream;
  // --eco FILE (tools that accept it): an ECO journal, one edit per line
  // (see docs/ECO.md).  parse_cli reads the file (missing -> exit 66,
  // EX_NOINPUT); the *content* is validated by the tool, which exits 64
  // on a malformed journal.  Empty path = flag absent.
  std::string eco_path;
  std::string eco_journal;

  // The parsed --threads value as an ExecPolicy (deterministic scheduling;
  // results are bitwise-identical for any thread count).
  [[nodiscard]] base::ExecPolicy exec() const {
    base::ExecPolicy p;
    p.threads = static_cast<int>(threads);
    return p;
  }
};

inline void print_usage(std::FILE* to, const char* tool, bool with_limit,
                        bool with_eco = false) {
  std::fprintf(to,
               "usage: %s [out_dir]%s [--threads N]\n"
               "\n"
               "  out_dir     directory for the run report (and any CSVs);"
               " default \".\",\n"
               "              created if missing\n"
               "  --help, -h  show this message\n"
               "  --threads N worker threads for parallel stages; 0 or"
               " unset = all\n"
               "              hardware threads (at least 1); output is"
               " identical for\n"
               "              any thread count\n"
               "  --span-cap N\n"
               "              retain at most N root spans in the run report;"
               " 0 or unset\n"
               "              keeps the default (4096); dropped spans are"
               " counted in\n"
               "              dropped_root_spans\n"
               "  --stream PATH\n"
               "              append a live lac-obs-events/1 event log to"
               " PATH, flushed\n"
               "              per event (watch with `lacobs tail`, reduce"
               " with `lacobs\n"
               "              fold`); LAC_OBS_STREAM sets the same path when"
               " the flag is\n"
               "              absent\n",
               tool, with_limit ? " [--limit N]" : "");
  if (with_limit)
    std::fprintf(to,
                 "  --limit N   run only the first N suite circuits (CI"
                 " perf gate)\n");
  if (with_eco)
    std::fprintf(to,
                 "  --eco FILE  apply the ECO journal in FILE (one edit per"
                 " line, see\n"
                 "              docs/ECO.md) instead of the built-in edit"
                 " script\n");
}

// Parses the common bench command line.  Exits on --help (0) and on
// unknown options or surplus arguments (64).
inline Cli parse_cli(int argc, char** argv, const char* tool,
                     bool with_limit = false, bool with_eco = false) {
  Cli cli;
  bool have_out = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(stdout, tool, with_limit, with_eco);
      std::exit(0);
    }
    if (with_eco && arg == "--eco") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: --eco needs a file\n", tool);
        std::exit(64);
      }
      cli.eco_path = argv[++i];
      if (cli.eco_path.empty()) {
        std::fprintf(stderr, "%s: --eco needs a non-empty path\n", tool);
        std::exit(64);
      }
      continue;
    }
    if (with_limit && arg == "--limit") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: --limit needs a count\n", tool);
        std::exit(64);
      }
      char* end = nullptr;
      cli.limit = std::strtoll(argv[++i], &end, 10);
      if (end == nullptr || *end != '\0' || cli.limit < 0) {
        std::fprintf(stderr, "%s: bad --limit value '%s'\n", tool, argv[i]);
        std::exit(64);
      }
      continue;
    }
    if (arg == "--threads") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: --threads needs a count\n", tool);
        std::exit(64);
      }
      char* end = nullptr;
      cli.threads = std::strtoll(argv[++i], &end, 10);
      if (end == nullptr || *end != '\0' || end == argv[i] ||
          cli.threads < 0) {
        std::fprintf(stderr, "%s: bad --threads value '%s'\n", tool, argv[i]);
        std::exit(64);
      }
      continue;
    }
    if (arg == "--span-cap") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: --span-cap needs a count\n", tool);
        std::exit(64);
      }
      char* end = nullptr;
      cli.span_cap = std::strtoll(argv[++i], &end, 10);
      if (end == nullptr || *end != '\0' || end == argv[i] ||
          cli.span_cap < 0) {
        std::fprintf(stderr, "%s: bad --span-cap value '%s'\n", tool,
                     argv[i]);
        std::exit(64);
      }
      continue;
    }
    if (arg == "--stream") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: --stream needs a path\n", tool);
        std::exit(64);
      }
      cli.stream = argv[++i];
      if (cli.stream.empty()) {
        std::fprintf(stderr, "%s: --stream needs a non-empty path\n", tool);
        std::exit(64);
      }
      continue;
    }
    if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "%s: unknown option '%s'\n", tool, arg.c_str());
      print_usage(stderr, tool, with_limit, with_eco);
      std::exit(64);
    }
    if (have_out) {
      std::fprintf(stderr, "%s: unexpected argument '%s'\n", tool,
                   arg.c_str());
      print_usage(stderr, tool, with_limit, with_eco);
      std::exit(64);
    }
    if (!arg.empty()) cli.out_dir = arg;
    have_out = true;
  }
  // Tools also write CSVs straight into out_dir, so create it up front;
  // failure surfaces later as per-file warnings.
  if (cli.out_dir != ".") {
    std::error_code ec;
    std::filesystem::create_directories(cli.out_dir, ec);
  }
  if (!cli.eco_path.empty()) {
    std::ifstream in(cli.eco_path);
    if (!in) {
      std::fprintf(stderr, "%s: cannot open ECO journal '%s'\n", tool,
                   cli.eco_path.c_str());
      std::exit(66);  // EX_NOINPUT
    }
    std::ostringstream content;
    content << in.rdbuf();
    cli.eco_journal = content.str();
  }
  if (cli.stream.empty()) {
    if (const char* env = std::getenv("LAC_OBS_STREAM");
        env != nullptr && env[0] != '\0')
      cli.stream = env;
  }
  if (!cli.stream.empty()) {
    std::string error;
    if (!obs::stream::open(cli.stream, tool, &error)) {
      std::fprintf(stderr, "%s: cannot open event stream: %s\n", tool,
                   error.c_str());
      std::exit(73);  // EX_CANTCREAT
    }
  }
  return cli;
}

inline std::string join(const std::string& dir, const std::string& file) {
  if (dir.empty() || dir == ".") return file;
  if (dir.back() == '/') return dir + file;
  return dir + "/" + file;
}

// Writes `<name>_report.json` under `dir` and prints where it went.
inline void write_bench_report(
    const std::string& dir, const std::string& name,
    const std::vector<std::pair<std::string, obs::json::Value>>& meta = {}) {
  const std::string path = join(dir, name + "_report.json");
  std::string error;
  if (obs::write_report(path, name, meta, &error))
    std::printf("(run report written to %s)\n", path.c_str());
  else
    std::fprintf(stderr, "warning: failed to write %s: %s\n", path.c_str(),
                 error.c_str());
}

}  // namespace lac::bench_io
