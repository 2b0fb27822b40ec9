// Diffing two lac-obs-report documents (v1 or v2, mixed freely), with
// verdicts a CI gate can act on.
//
// strip_times is the one definition of what in a report is
// deterministic.  The diff has two halves:
//   * values — one recursive walk over strip_times(baseline) against
//     strip_times(current).  Every leaf (number, string, bool) is a
//     comparison: counters, non-noisy gauges, histogram fields, span
//     names, span annotations, meta entries and the report's own fields.
//     A number outside a 1e-9 relative epsilon, an unequal string or
//     bool, a key present on one side only, or an array of another
//     length is a kRegress.  Logical-size memory gauges
//     (mcf.network_bytes-style bytes_used() readings) belong here: they
//     are computed from container sizes, not the allocator.  The
//     top-level "schema" is not compared: reports of either generation
//     diff against each other.
//   * timings — per-span-name total wall times, timing gauges and timing
//     histogram sums, compared only when both reports carry times.  A
//     move above 15% is a kWarn, never more: one pair of runs cannot show
//     a speed change (perfbench's repeated pairs do that).
// So a kRegress means exactly "deterministic data differs".
//
// Per-span allocation deltas (alloc_bytes/freed_bytes/peak_live_bytes)
// are deliberately NOT diffed: they count requested allocation sizes,
// which are deterministic per build but shift with every standard-library
// or compiler upgrade (container growth policies, node sizes), so
// checked-in baselines would not be portable across toolchains.
// strip_times removes them, with every other noisy field.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"

namespace lac::obs {

// Ordered by severity; values double as the `lacobs diff` exit code.
enum class Verdict { kOk = 0, kWarn = 1, kRegress = 2 };

[[nodiscard]] const char* verdict_name(Verdict v);

struct DiffOptions {
  // Metric entries and spans (with their subtrees and annotations) whose
  // name starts with any of these prefixes are removed from both sides
  // before the diff.  Used to compare runs of *different* configurations
  // of the same pipeline: `--ignore mcf.` checks that two modes agree on
  // every lac.* quality counter and the span structure while exempting
  // solver-effort metrics that legitimately differ (a warm-started solve
  // does fewer augmentations than a cold one).
  std::vector<std::string> ignore_prefixes;
};

struct DiffEntry {
  enum class Kind { kValue, kTiming };

  Kind kind = Kind::kValue;
  // Metric rows carry the metric name ("mcf.augmentations",
  // "lac.round_n_foa.sum"), span rows the chain of span names
  // ("planner.plan#2/stage.timing:annotations.t_clk_ps", where #k marks
  // the k-th same-named sibling), other rows their dotted report path.
  std::string name;
  // Scalar JSON values; a container stands as its size ("[3 items]"), an
  // array-length row holds the two lengths, and nullopt means the path
  // is absent on that side.
  std::optional<json::Value> baseline;
  std::optional<json::Value> current;
  Verdict verdict = Verdict::kOk;
  std::string note;  // human-readable reason, set for non-kOk entries
};

struct DiffResult {
  Verdict verdict = Verdict::kOk;  // max over entries
  std::vector<DiffEntry> entries;

  [[nodiscard]] int count(Verdict v) const;
};

// True for metric/span names carrying wall-clock data ("mcf.solve_seconds",
// "lac.round_seconds", ...): the name contains "seconds".
[[nodiscard]] bool is_timing_name(std::string_view name);

// True for names carrying run-to-run-noisy data: timings plus RSS
// readings ("mem.peak_rss_bytes").  Noisy metric and meta names are
// exempt from the diff and dropped by strip_times.
[[nodiscard]] bool is_noisy_name(std::string_view name);

// True for the object members that hold per-run noise wherever they
// appear — in spans and in stream events: wall-clock readings ("t",
// "unix_ms", "seconds"), span allocation deltas ("alloc_bytes",
// "freed_bytes", "peak_live_bytes") and RSS readings ("rss_bytes",
// "peak_rss_bytes").  strip_span_times and stream::strip_stream drop them.
[[nodiscard]] bool is_noisy_field(std::string_view key);

// Diffs `current` against `baseline` (both parsed reports).
[[nodiscard]] DiffResult diff_reports(const json::Value& baseline,
                                      const json::Value& current,
                                      const DiffOptions& opts = {});

// Returns a copy of `report` with all wall-clock and allocator-dependent
// data removed, suitable for checking in as a byte-stable CI baseline:
//   * every span's noisy fields are dropped (structure, names and
//     annotations are kept);
//   * timing histograms keep only their deterministic "count";
//   * noisy gauges (timings, rss) and noisy meta entries are dropped;
//   * the metrics "memory" section (process facts) is dropped.
[[nodiscard]] json::Value strip_times(const json::Value& report);

// The per-span half of strip_times: one span object (and its children)
// minus its noisy fields.  obs/stream.cc uses it to strip the span trees
// embedded in `close`/`span` events.
[[nodiscard]] json::Value strip_span_times(const json::Value& span);

}  // namespace lac::obs
