#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/obs.h"
#include "obs/stream.h"

namespace lac::obs {

double HistogramSnapshot::bucket_bound(int i) {
  if (i >= kNumBuckets - 1) return std::numeric_limits<double>::infinity();
  return std::ldexp(1.0, i - 10);
}

void Metrics::add_counter(std::string_view name, std::int64_t delta) {
  auto it = counters_.find(name);
  if (it == counters_.end())
    counters_.emplace(std::string(name), delta);
  else
    it->second += delta;
}

void Metrics::set_gauge(std::string_view name, double value) {
  auto it = gauges_.find(name);
  if (it == gauges_.end())
    gauges_.emplace(std::string(name), value);
  else
    it->second = value;
}

void Metrics::observe(std::string_view name, double value) {
  auto it = hists_.find(name);
  if (it == hists_.end())
    it = hists_.emplace(std::string(name), HistogramSnapshot{}).first;
  HistogramSnapshot& h = it->second;
  if (h.count == 0) {
    h.min = value;
    h.max = value;
  } else {
    h.min = std::min(h.min, value);
    h.max = std::max(h.max, value);
  }
  ++h.count;
  h.sum += value;
  const double v = std::max(value, 0.0);
  int b = 0;
  while (b < HistogramSnapshot::kNumBuckets - 1 &&
         v > HistogramSnapshot::bucket_bound(b))
    ++b;
  ++h.buckets[static_cast<std::size_t>(b)];
}

void count(const char* name, std::int64_t delta) {
  if (enabled()) stream::detail::emit_count(name, delta);
}

void gauge(const char* name, double value) {
  if (enabled()) stream::detail::emit_gauge(name, value);
}

void observe(const char* name, double value) {
  if (enabled()) stream::detail::emit_observe(name, value);
}

}  // namespace lac::obs
