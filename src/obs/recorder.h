// Named phase times, counters, gauges and latency histograms for one
// harness run.
//
// Split along the determinism boundary the BENCH_*.json schema encodes:
// phases are wall-clock measurements (volatile across machines and
// RDO_THREADS settings), counters and gauges are derived from the
// seeded computation and must be identical for any thread count.
// A Recorder is thread-safe so parallel Monte-Carlo tasks can report
// into one instance; merge order never affects the serialized output
// because entries accumulate under stable insertion-ordered names.
//
// Phases are usually filled by a span: TraceSpan(name, cat, recorder)
// (obs/trace.h) adds its wall time here and emits a trace event under
// the same name. Standard library + obs::Json only (rdo_obs_base).
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/histogram.h"
#include "obs/json.h"

namespace rdo::obs {

class Recorder {
 public:
  /// Add wall-clock seconds to phase `name` (created on first use;
  /// phases keep first-use order in the serialized report).
  void add_phase(const std::string& name, double seconds);

  /// Increment counter `name` by `delta`.
  void incr(const std::string& name, std::int64_t delta = 1);

  /// Set gauge `name` (last write wins).
  void set_gauge(const std::string& name, double value);

  /// Record one latency sample (seconds) into histogram `name` (created
  /// on first use); see LatencyHistogram::observe.
  void observe(const std::string& name, double seconds);

  /// Merge a whole histogram into histogram `name` without resampling
  /// (absorb_metrics, DeployStats::eval_latency). Merging an empty
  /// histogram is a no-op and creates no entry.
  void merge_histogram(const std::string& name, const LatencyHistogram& h);

  [[nodiscard]] double phase_seconds(const std::string& name) const;
  [[nodiscard]] std::int64_t counter(const std::string& name) const;

  /// `[{"name": ..., "seconds": ...}, ...]` — volatile timing section.
  [[nodiscard]] Json phases_json() const;
  /// `{name: count, ...}` — deterministic.
  [[nodiscard]] Json counters_json() const;
  /// `{name: value, ...}` — deterministic.
  [[nodiscard]] Json gauges_json() const;
  /// `{name: LatencyHistogram::json(), ...}` — wall-clock derived, so it
  /// belongs to the volatile half of the schema.
  [[nodiscard]] Json histograms_json() const;

 private:
  /// Find-or-create histogram `name`. Caller holds mu_.
  LatencyHistogram& histogram_locked(const std::string& name);

  mutable std::mutex mu_;
  std::vector<std::pair<std::string, double>> phases_;
  std::vector<std::pair<std::string, std::int64_t>> counters_;
  std::vector<std::pair<std::string, double>> gauges_;
  std::vector<std::pair<std::string, LatencyHistogram>> histograms_;
};

}  // namespace rdo::obs
