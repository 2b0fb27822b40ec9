#include "obs/report.h"

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "obs/memory.h"
#include "obs/obs.h"
#include "obs/stream.h"

namespace lac::obs {

namespace {

json::Value annotation_to_json(const Annotation& a) {
  switch (a.kind) {
    case Annotation::Kind::kString: return json::Value::of(a.s);
    case Annotation::Kind::kDouble: return json::Value::of(a.d);
    case Annotation::Kind::kInt: return json::Value::of(a.i);
    case Annotation::Kind::kBool: return json::Value::of(a.b);
  }
  return {};
}

json::Value histogram_to_json(const HistogramSnapshot& h) {
  json::Value v;
  v.kind = json::Value::Kind::kObject;
  v.object.emplace_back("count", json::Value::of(h.count));
  v.object.emplace_back("sum", json::Value::of(h.sum));
  v.object.emplace_back("min", json::Value::of(h.min));
  v.object.emplace_back("max", json::Value::of(h.max));
  json::Value buckets;
  buckets.kind = json::Value::Kind::kArray;
  for (int i = 0; i < HistogramSnapshot::kNumBuckets; ++i) {
    if (h.buckets[static_cast<std::size_t>(i)] == 0) continue;  // sparse
    json::Value b;
    b.kind = json::Value::Kind::kObject;
    b.object.emplace_back("le",
                          json::Value::of(HistogramSnapshot::bucket_bound(i)));
    b.object.emplace_back(
        "count", json::Value::of(h.buckets[static_cast<std::size_t>(i)]));
    buckets.array.push_back(std::move(b));
  }
  v.object.emplace_back("buckets", std::move(buckets));
  return v;
}

}  // namespace

json::Value span_to_json(const SpanNode& node) {
  json::Value v;
  v.kind = json::Value::Kind::kObject;
  v.object.emplace_back("name", json::Value::of(node.name));
  v.object.emplace_back("seconds", json::Value::of(node.seconds));
  if (node.mem_valid) {
    v.object.emplace_back("alloc_bytes", json::Value::of(node.alloc_bytes));
    v.object.emplace_back("freed_bytes", json::Value::of(node.freed_bytes));
    v.object.emplace_back("peak_live_bytes",
                          json::Value::of(node.peak_live_bytes));
  }
  if (!node.annotations.empty()) {
    json::Value ann;
    ann.kind = json::Value::Kind::kObject;
    for (const Annotation& a : node.annotations)
      ann.object.emplace_back(a.key, annotation_to_json(a));
    v.object.emplace_back("annotations", std::move(ann));
  }
  if (!node.children.empty()) {
    json::Value kids;
    kids.kind = json::Value::Kind::kArray;
    for (const SpanNode& c : node.children)
      kids.array.push_back(span_to_json(c));
    v.object.emplace_back("children", std::move(kids));
  }
  return v;
}

json::Value metrics_to_json(const Metrics& m) {
  json::Value metrics;
  metrics.kind = json::Value::Kind::kObject;
  json::Value counters;
  counters.kind = json::Value::Kind::kObject;
  for (const auto& [k, v] : m.counters())
    counters.object.emplace_back(k, json::Value::of(v));
  metrics.object.emplace_back("counters", std::move(counters));
  json::Value gauges;
  gauges.kind = json::Value::Kind::kObject;
  for (const auto& [k, v] : m.gauges())
    gauges.object.emplace_back(k, json::Value::of(v));
  metrics.object.emplace_back("gauges", std::move(gauges));
  json::Value hists;
  hists.kind = json::Value::Kind::kObject;
  for (const auto& [k, v] : m.histograms())
    hists.object.emplace_back(k, histogram_to_json(v));
  metrics.object.emplace_back("histograms", std::move(hists));
  return metrics;
}

json::Value build_report(
    std::string_view name,
    const std::vector<std::pair<std::string, json::Value>>& meta) {
  json::Value meta_obj;
  meta_obj.kind = json::Value::Kind::kObject;
  for (const auto& [k, v] : meta) meta_obj.object.emplace_back(k, v);
  return stream::detail::emit_end(name, meta_obj, enabled(),
                                  memory::tracking_enabled(),
                                  memory::peak_rss_bytes());
}

std::string render_report(
    std::string_view name,
    const std::vector<std::pair<std::string, json::Value>>& meta) {
  return json::serialize(build_report(name, meta));
}

bool write_report(
    const std::string& path, std::string_view name,
    const std::vector<std::pair<std::string, json::Value>>& meta,
    std::string* error) {
  if (error != nullptr) error->clear();
  // Render first: the trace must be drained even when the write fails.
  const std::string text = render_report(name, meta);

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
  std::ofstream out(path);
  if (!out) {
    if (error != nullptr)
      *error = "cannot open " + path + ": " + std::strerror(errno);
    return false;
  }
  out << text << '\n';
  out.flush();
  if (!out) {
    if (error != nullptr)
      *error = "short write to " + path + ": " + std::strerror(errno);
    return false;
  }
  return true;
}

}  // namespace lac::obs
