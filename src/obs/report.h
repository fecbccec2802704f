// Schema-versioned structured result documents (BENCH_*.json).
//
// Every harness produces one document:
//
//   {
//     "schema_version": 2,
//     "name":     "<harness>",
//     "env":      { ... }                      // volatile (env.h)
//     "timing":   { total_seconds, phases[] }  // volatile wall times
//     "pool":     { ... }                      // volatile thread-pool stats
//     "histograms": { name: {count, sum/min/max/p50/p95/p99_seconds,
//                            bucket_counts[]}, ... }  // volatile latencies
//     "counters": { name: int, ... }           // deterministic
//     "gauges":   { name: number, ... }        // deterministic
//     "results":  { ... }                      // deterministic, per-harness
//     "failures": [ {where, what}, ... ]       // deterministic
//   }
//
// Determinism contract: for a fixed seed, the `counters`, `gauges`,
// `results` and `failures` sections are byte-identical for any
// RDO_THREADS setting (deterministic_dump() serializes exactly those
// sections; tests/test_obs.cpp asserts the guarantee end to end).
// `env`, `timing`, `pool` and `histograms` legitimately vary and are
// excluded.
//
// One store feeds the document: the report's MetricsRegistry. Its
// counters and gauges become the `counters` and `gauges` sections, its
// histograms the `histograms` section, and each phase histogram's summed
// seconds one `timing.phases` entry {name, seconds}. A phase is filled
// by TraceSpan(name, cat, rep.metrics()) (obs/trace.h) and named after
// the phase; a histogram named `*_seconds` is a latency series
// (trial_seconds, serve_request_seconds) and is not a phase.
#pragma once

#include <cstdint>
#include <string>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/stopwatch.h"

namespace rdo::obs {

/// Version of the document layout above. Bump on breaking changes and
/// record the migration in EXPERIMENTS.md.
/// v1 -> v2: added the "histograms" section (latency distributions).
inline constexpr std::int64_t kBenchSchemaVersion = 2;

class BenchReport {
 public:
  /// `name` keys the output file (BENCH_<name>.json); `seed` is recorded
  /// in the env block. Total wall time is measured from construction.
  BenchReport(std::string name, std::uint64_t seed);

  /// Counters, gauges and phase / latency histograms (thread-safe).
  MetricsRegistry& metrics() { return metrics_; }

  /// Deterministic harness-specific payload (mutable root object).
  Json& results() { return results_; }

  /// Record a failed unit of work (grid point, scheme, ...). Failures
  /// are part of the deterministic payload and drive the exit code.
  void add_failure(const std::string& where, const std::string& what);
  [[nodiscard]] bool any_failure() const { return failures_.size() > 0; }
  [[nodiscard]] std::size_t failure_count() const { return failures_.size(); }

  /// Assemble the full document (schema above) at this instant.
  [[nodiscard]] Json document() const;

  /// Compact serialization of only the deterministic sections.
  [[nodiscard]] std::string deterministic_dump() const;

  /// Write document() to `BENCH_<name>.json` in the directory named by
  /// the RDO_BENCH_DIR environment variable (default: current
  /// directory). Returns the path written.
  std::string write() const;
  /// Write document() to an explicit path.
  void write_to(const std::string& path) const;

  /// Exit status for a harness: 0 when no failures were recorded, 1
  /// otherwise (also prints a one-line summary to stderr on failure).
  [[nodiscard]] int exit_code() const;

 private:
  std::string name_;
  std::uint64_t seed_;
  Stopwatch total_;
  MetricsRegistry metrics_;
  Json results_ = Json::object();
  Json failures_ = Json::array();
};

/// Validate a parsed document against the schema above. Returns true on
/// success; otherwise false with a diagnostic in *err (when non-null).
bool validate_bench_document(const Json& doc, std::string* err);

}  // namespace rdo::obs
