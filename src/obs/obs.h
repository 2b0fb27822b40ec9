// Process-wide observability switch.
//
// Everything in src/obs — trace spans, the metrics registry, report
// writers — consults one atomic flag.  When the flag is off, spans do not
// record, metrics calls return immediately, and neither allocates: the
// instrumented hot paths (min-cost-flow solves, LAC rounds, maze routing)
// pay one relaxed atomic load per event.
//
// The flag is initialised from the LAC_OBS environment variable ("0",
// "false", "off" or "no" disable; unset or anything else enables) and can
// be overridden programmatically (PlannerConfig::run.observability routes
// through ScopedEnable).
#pragma once

namespace lac::obs {

// Current state of the global switch.
[[nodiscard]] bool enabled();

// Sets the global switch; spans already open keep their recording state.
void set_enabled(bool on);

// Three-way setting for configs that may or may not override the
// environment default.
enum class Override {
  kEnv,  // leave the global switch as LAC_OBS / set_enabled() decided
  kOn,
  kOff,
};

// RAII override of the global switch, restoring the previous state.
class ScopedEnable {
 public:
  explicit ScopedEnable(bool on);
  ScopedEnable(const ScopedEnable&) = delete;
  ScopedEnable& operator=(const ScopedEnable&) = delete;
  ~ScopedEnable();

 private:
  bool prev_;
};

}  // namespace lac::obs
