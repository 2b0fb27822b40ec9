// Named counters, gauges and histograms.
//
// count()/gauge()/observe() render one event each and route it like every
// other observability event (obs/stream.h): into the current task capture,
// or into the process record, whose fold accumulates the values in a
// Metrics — the same accumulator stream::fold() replays a stream into.
// The free functions check obs::enabled() first and take const char*
// names, so a disabled build performs no allocation and no locking on the
// hot path.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace lac::obs {

struct HistogramSnapshot {
  static constexpr int kNumBuckets = 24;

  // Upper bound of bucket i: 2^(i-10) (≈1e-3 .. 4096), last bucket +inf.
  // Cumulative ("le") semantics are applied at report time; the stored
  // buckets are disjoint.
  [[nodiscard]] static double bucket_bound(int i);

  std::int64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::array<std::int64_t, kNumBuckets> buckets{};
};

// An accumulator of metric events: counter sums, gauge last-writes and
// histogram accumulations, keyed and iterated by name.  Not synchronised;
// its owner (a fold) serialises access.
class Metrics {
 public:
  void add_counter(std::string_view name, std::int64_t delta);
  void set_gauge(std::string_view name, double value);
  void observe(std::string_view name, double value);

  // Sorted snapshots for report serialisation.
  [[nodiscard]] const std::map<std::string, std::int64_t, std::less<>>&
  counters() const {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, double, std::less<>>& gauges()
      const {
    return gauges_;
  }
  [[nodiscard]] const std::map<std::string, HistogramSnapshot, std::less<>>&
  histograms() const {
    return hists_;
  }

 private:
  std::map<std::string, std::int64_t, std::less<>> counters_;
  std::map<std::string, double, std::less<>> gauges_;
  std::map<std::string, HistogramSnapshot, std::less<>> hists_;
};

// One metric event each.  No-ops — with no allocation and no lock — when
// obs::enabled() is false.
void count(const char* name, std::int64_t delta = 1);
void gauge(const char* name, double value);
void observe(const char* name, double value);

}  // namespace lac::obs
