// Structured JSON run reports: the fold of the process record's event log
// (obs/stream.h) — span trees and metrics — as one machine-readable
// document.
//
// Schema ("lac-obs-report/2"):
//   {
//     "schema": "lac-obs-report/2",
//     "name": <report name>,
//     "obs_enabled": <bool>,             // switch state at build time
//     "meta": { <caller-supplied> },
//     "trace": [ <span>... ],            // finished roots since the last
//                                        // report, at most max_root_spans
//     "metrics": {
//       "counters":   { name: int, ... },
//       "gauges":     { name: number, ... },
//       "histograms": { name: {count, sum, min, max,
//                              buckets: [{le, count}, ...]}, ... },
//       "memory":     { "tracking": <bool>,
//                       "peak_rss_bytes": <int> }   // only when > 0
//     },
//     "dropped_root_spans": <int>       // roots past the cap, ever
//   }
// where <span> = {"name", "seconds", "annotations": {k: v}, "children":
// [<span>...]} plus, when memory tracking was on for the span,
// "alloc_bytes" / "freed_bytes" / "peak_live_bytes" (requested-size
// deltas; see obs/memory.h).  v1 reports are identical minus the memory
// fields and parse everywhere a v2 report does.
//
// Building a report *drains* the trace, so successive reports partition
// it rather than repeating it; metrics accumulate over the process.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace lac::obs {

// One span tree as a json::Value (see schema above).
[[nodiscard]] json::Value span_to_json(const SpanNode& node);

// The "counters" / "gauges" / "histograms" sections of one accumulator
// (the schema's "metrics" minus "memory", which holds process-level
// facts).
[[nodiscard]] json::Value metrics_to_json(const Metrics& m);

// Capacity of the trace.  Defaults to 4096; configurable via
// base::RunControls::max_root_spans so long LAC loops with many plans per
// process can keep their whole trace (`lacobs summary` warns when a
// report's dropped_root_spans is nonzero).  A cap of 0 keeps spans
// recording but keeps no roots.
void set_max_root_spans(std::size_t cap);
[[nodiscard]] std::size_t max_root_spans();

// Clears the record's trace and metrics (the dropped-root count stays):
// a clean slate for tests that read one report.
void reset();

// Emits the `end` event and returns the report the record's fold closes
// with it.  `meta` entries are emitted verbatim under "meta".
[[nodiscard]] json::Value build_report(
    std::string_view name,
    const std::vector<std::pair<std::string, json::Value>>& meta = {});

// build_report() serialised to text.
[[nodiscard]] std::string render_report(
    std::string_view name,
    const std::vector<std::pair<std::string, json::Value>>& meta = {});

// Renders and writes the report to `path`, creating missing parent
// directories; false on I/O failure (the trace is drained either way).
// When `error` is non-null it receives a description of the failure
// (including strerror(errno) context) or is cleared on success.
bool write_report(
    const std::string& path, std::string_view name,
    const std::vector<std::pair<std::string, json::Value>>& meta = {},
    std::string* error = nullptr);

}  // namespace lac::obs
