#include "obs/compare.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <utility>

#include "obs/analyze.h"

namespace lac::obs {

namespace {

// Non-timing doubles (gauges, histogram sums) come from the same
// deterministic arithmetic as the counters; the epsilon only forgives
// decimal round-tripping through the report text.
constexpr double kExactRelTol = 1e-9;

// A timing that moves by more than this fraction is a kWarn ...
constexpr double kTimingWarnTol = 0.15;
// ... unless both sides are below this many seconds (clock noise).
constexpr double kTimingFloorSeconds = 1e-3;

bool nearly_equal(double a, double b) {
  if (std::isnan(a) && std::isnan(b)) return true;
  if (a == b) return true;
  const double scale = std::max(std::fabs(a), std::fabs(b));
  return std::fabs(a - b) <= kExactRelTol * scale;
}

// Two scalars (number, string, bool) are the same leaf.
bool same_leaf(const json::Value& a, const json::Value& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case json::Value::Kind::kBool: return a.b == b.b;
    case json::Value::Kind::kNumber: return nearly_equal(a.num, b.num);
    case json::Value::Kind::kString: return a.str == b.str;
    default: return false;
  }
}

void add(DiffResult& res, DiffEntry e) {
  if (static_cast<int>(e.verdict) > static_cast<int>(res.verdict))
    res.verdict = e.verdict;
  res.entries.push_back(std::move(e));
}

// The value a row shows for one side: scalars as they are, containers as
// their size, absent sides as nullopt.
std::optional<json::Value> shown(const json::Value* v) {
  if (v == nullptr) return std::nullopt;
  if (!v->is_array() && !v->is_object()) return *v;
  std::string size(1, v->is_array() ? '[' : '{');
  size += std::to_string(v->is_array() ? v->array.size() : v->object.size());
  size += v->is_array() ? " items]" : " keys}";
  return json::Value::of(size);
}

bool ignored(std::string_view name, const DiffOptions& opts) {
  for (const std::string& p : opts.ignore_prefixes)
    if (name.size() >= p.size() && name.compare(0, p.size(), p) == 0)
      return true;
  return false;
}

std::string_view span_name(const json::Value& span) {
  const json::Value* n = span.find("name");
  return n != nullptr && n->kind == json::Value::Kind::kString
             ? std::string_view(n->str)
             : std::string_view();
}

// The recursive walk of the values half: one row per compared leaf.
class Walk {
 public:
  Walk(DiffResult& res, const DiffOptions& opts) : res_(res), opts_(opts) {}

  void report(const json::Value& b, const json::Value& c) {
    members(b, c, [&](const std::string& key, const json::Value* bv,
                      const json::Value* cv) {
      if (key == "schema") return;  // load_report handles generations
      if (key == "trace") return spans(bv, cv, "");
      if (key == "metrics" && bv != nullptr && cv != nullptr &&
          bv->is_object() && cv->is_object())
        return members(*bv, *cv, [&](const std::string& section,
                                     const json::Value* bs,
                                     const json::Value* cs) {
          if (bs == nullptr || cs == nullptr || !bs->is_object() ||
              !cs->is_object())
            return value(bs, cs, "metrics." + section);
          members(*bs, *cs, [&](const std::string& name,
                                const json::Value* bm, const json::Value* cm) {
            if (!ignored(name, opts_)) value(bm, cm, name);
          });
        });
      value(bv, cv, key);
    });
  }

 private:
  using MemberFn = std::function<void(const std::string&, const json::Value*,
                                      const json::Value*)>;

  // Calls fn for every key of either object: baseline order first, then
  // the keys only the current side has.
  static void members(const json::Value& b, const json::Value& c,
                      const MemberFn& fn) {
    for (const auto& [k, v] : b.object) fn(k, &v, c.find(k));
    for (const auto& [k, v] : c.object)
      if (b.find(k) == nullptr) fn(k, nullptr, &v);
  }

  void row(std::string path, const json::Value* b, const json::Value* c,
           Verdict verdict, std::string note = {}) {
    add(res_, {DiffEntry::Kind::kValue, std::move(path), shown(b), shown(c),
               verdict, std::move(note)});
  }

  void length_row(std::string path, std::size_t b, std::size_t c) {
    const json::Value bl = json::Value::of(b), cl = json::Value::of(c);
    row(std::move(path), &bl, &cl, Verdict::kRegress, "array length changed");
  }

  void value(const json::Value* b, const json::Value* c,
             const std::string& path) {
    if (b == nullptr || c == nullptr) {
      return row(path, b, c, Verdict::kRegress,
                 b == nullptr ? "not in baseline (regenerate the baseline?)"
                              : "missing from current report");
    }
    if (b->is_object() && c->is_object()) {
      return members(*b, *c, [&](const std::string& k, const json::Value* bv,
                                 const json::Value* cv) {
        value(bv, cv, path + "." + k);
      });
    }
    if (b->is_array() && c->is_array()) {
      if (b->array.size() != c->array.size())
        return length_row(path, b->array.size(), c->array.size());
      for (std::size_t i = 0; i < b->array.size(); ++i)
        value(&b->array[i], &c->array[i],
              path + "[" + std::to_string(i) + "]");
      return;
    }
    // null is what the writer emits for NaN/Inf: nothing to compare.
    if (b->kind == json::Value::Kind::kNull &&
        c->kind == json::Value::Kind::kNull)
      return;
    if (same_leaf(*b, *c)) return row(path, b, c, Verdict::kOk);
    row(path, b, c, Verdict::kRegress, "deterministic value changed");
  }

  // A span list (the trace, or a span's children) under `chain`; ignored
  // spans drop out with their subtrees before the lists are paired.
  void spans(const json::Value* b, const json::Value* c,
             const std::string& chain) {
    const std::string path = chain.empty() ? "trace" : chain + ":children";
    if (b == nullptr || c == nullptr || !b->is_array() || !c->is_array())
      return value(b, c, path);
    const auto kept = [&](const json::Value& list) {
      std::vector<const json::Value*> out;
      for (const json::Value& s : list.array)
        if (!ignored(span_name(s), opts_)) out.push_back(&s);
      return out;
    };
    const std::vector<const json::Value*> bk = kept(*b), ck = kept(*c);
    if (bk.size() != ck.size()) return length_row(path, bk.size(), ck.size());
    std::map<std::string, int, std::less<>> seen;
    for (std::size_t i = 0; i < bk.size(); ++i) {
      std::string link(span_name(*bk[i]));
      if (const int k = seen[link]++; k > 0) {
        link += '#';
        link += std::to_string(k);
      }
      span(*bk[i], *ck[i], chain.empty() ? link : chain + "/" + link);
    }
  }

  void span(const json::Value& b, const json::Value& c,
            const std::string& chain) {
    if (!b.is_object() || !c.is_object()) return value(&b, &c, chain);
    members(b, c, [&](const std::string& k, const json::Value* bv,
                      const json::Value* cv) {
      if (k == "children") return spans(bv, cv, chain);
      value(bv, cv, chain + ":" + k);
    });
  }

  DiffResult& res_;
  const DiffOptions& opts_;
};

// Timing values by row name: per-span-name total seconds, timing gauges,
// and timing histogram sums ("<name>.sum").
std::map<std::string, double> timings(const json::Value& report,
                                      const DiffOptions& opts) {
  std::map<std::string, double> out;
  for (const SpanStats& s : aggregate_spans(trace_from_report(report)))
    if (!ignored(s.name, opts)) out.emplace(s.name, s.total_seconds);
  if (const json::Value* g = report.at_path({"metrics", "gauges"});
      g != nullptr && g->is_object())
    for (const auto& [k, v] : g->object)
      if (is_timing_name(k) && !ignored(k, opts) &&
          v.kind == json::Value::Kind::kNumber)
        out.emplace(k, v.num);
  if (const json::Value* h = report.at_path({"metrics", "histograms"});
      h != nullptr && h->is_object())
    for (const auto& [k, v] : h->object)
      if (const json::Value* sum = v.find("sum");
          is_timing_name(k) && !ignored(k, opts) && sum != nullptr &&
          sum->kind == json::Value::Kind::kNumber)
        out.emplace(k + ".sum", sum->num);
  return out;
}

}  // namespace

const char* verdict_name(Verdict v) {
  switch (v) {
    case Verdict::kOk: return "ok";
    case Verdict::kWarn: return "warn";
    case Verdict::kRegress: return "regress";
  }
  return "?";
}

int DiffResult::count(Verdict v) const {
  int n = 0;
  for (const DiffEntry& e : entries)
    if (e.verdict == v) ++n;
  return n;
}

bool is_timing_name(std::string_view name) {
  return name.find("seconds") != std::string_view::npos;
}

bool is_noisy_name(std::string_view name) {
  return is_timing_name(name) || name.find("rss") != std::string_view::npos;
}

bool is_noisy_field(std::string_view key) {
  static constexpr std::string_view kNoisyFields[] = {
      "t",           "unix_ms",     "seconds",
      "alloc_bytes", "freed_bytes", "peak_live_bytes",
      "rss_bytes",   "peak_rss_bytes",
  };
  return std::find(std::begin(kNoisyFields), std::end(kNoisyFields), key) !=
         std::end(kNoisyFields);
}

DiffResult diff_reports(const json::Value& baseline,
                        const json::Value& current,
                        const DiffOptions& opts) {
  DiffResult res;
  Walk(res, opts).report(strip_times(baseline), strip_times(current));

  if (!report_has_times(baseline) || !report_has_times(current)) return res;
  const std::map<std::string, double> cur = timings(current, opts);
  for (const auto& [name, b] : timings(baseline, opts)) {
    const auto it = cur.find(name);
    if (it == cur.end()) continue;  // presence is the values half's job
    const double c = it->second;
    if (b < kTimingFloorSeconds && c < kTimingFloorSeconds) continue;
    const double rel = b > 0.0 ? std::fabs(c - b) / b
                               : std::numeric_limits<double>::infinity();
    DiffEntry e{DiffEntry::Kind::kTiming, name, json::Value::of(b),
                json::Value::of(c), Verdict::kOk, {}};
    if (rel > kTimingWarnTol) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "timing moved %+.1f%%",
                    100.0 * (b > 0.0 ? (c - b) / b : 1.0));
      e.verdict = Verdict::kWarn;
      e.note = buf;
    }
    add(res, std::move(e));
  }
  return res;
}

json::Value strip_span_times(const json::Value& span) {
  json::Value out;
  out.kind = json::Value::Kind::kObject;
  for (const auto& [k, v] : span.object) {
    // The noisy fields include the allocation deltas: deterministic per
    // build, but they shift with every toolchain upgrade (container growth policies, node
    // sizes), so a checked-in baseline must not pin them.
    if (is_noisy_field(k)) continue;
    if (k == "children" && v.is_array()) {
      json::Value kids;
      kids.kind = json::Value::Kind::kArray;
      for (const json::Value& c : v.array)
        kids.array.push_back(c.is_object() ? strip_span_times(c) : c);
      out.object.emplace_back(k, std::move(kids));
      continue;
    }
    out.object.emplace_back(k, v);
  }
  return out;
}

namespace {

json::Value strip_metrics_times(const json::Value& metrics) {
  json::Value out;
  out.kind = json::Value::Kind::kObject;
  for (const auto& [k, v] : metrics.object) {
    if (k == "memory") continue;  // process facts (rss, tracking): all noisy
    if (k == "gauges" && v.is_object()) {
      json::Value gauges;
      gauges.kind = json::Value::Kind::kObject;
      for (const auto& [gk, gv] : v.object)
        if (!is_noisy_name(gk)) gauges.object.emplace_back(gk, gv);
      out.object.emplace_back(k, std::move(gauges));
      continue;
    }
    if (k == "histograms" && v.is_object()) {
      json::Value hists;
      hists.kind = json::Value::Kind::kObject;
      for (const auto& [hk, hv] : v.object) {
        if (!is_timing_name(hk) || !hv.is_object()) {
          hists.object.emplace_back(hk, hv);
          continue;
        }
        json::Value h;
        h.kind = json::Value::Kind::kObject;
        if (const json::Value* c = hv.find("count"))
          h.object.emplace_back("count", *c);
        hists.object.emplace_back(hk, std::move(h));
      }
      out.object.emplace_back(k, std::move(hists));
      continue;
    }
    out.object.emplace_back(k, v);
  }
  return out;
}

}  // namespace

json::Value strip_times(const json::Value& report) {
  if (!report.is_object()) return report;
  json::Value out;
  out.kind = json::Value::Kind::kObject;
  for (const auto& [k, v] : report.object) {
    if (k == "trace" && v.is_array()) {
      json::Value trace;
      trace.kind = json::Value::Kind::kArray;
      for (const json::Value& s : v.array)
        trace.array.push_back(s.is_object() ? strip_span_times(s) : s);
      out.object.emplace_back(k, std::move(trace));
      continue;
    }
    if (k == "metrics" && v.is_object()) {
      out.object.emplace_back(k, strip_metrics_times(v));
      continue;
    }
    if (k == "meta" && v.is_object()) {
      json::Value meta;
      meta.kind = json::Value::Kind::kObject;
      for (const auto& [mk, mv] : v.object)
        if (!is_noisy_name(mk)) meta.object.emplace_back(mk, mv);
      out.object.emplace_back(k, std::move(meta));
      continue;
    }
    out.object.emplace_back(k, v);
  }
  return out;
}

}  // namespace lac::obs
