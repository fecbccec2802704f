// The one telemetry store: a registry of named counters, gauges and
// latency histograms that can be read *while the process runs*.
//
// Every number a run reports lives here. rdo_serve's instruments sit on
// the request hot path and are snapshotted live for a `stats` request or
// a periodic dump; a BenchReport (obs/report.h) owns one registry and
// builds its BENCH document from a snapshot at the end of the run, with
// harness phases as histograms filled by TraceSpan (obs/trace.h).
//
//   * Counter    monotonic int64; add() lands in one of kMetricShards
//                cache-line-padded relaxed atomics chosen per thread,
//                so concurrent increments never contend on one line.
//   * Gauge      last-write-wins double (atomic store/load).
//   * Histogram  sharded atomic log2-microsecond buckets plus a sum
//                track; snapshot() returns the shared LatencyHistogram
//                (obs/histogram.h) and merge() folds one in, so
//                histograms move between registries without resampling.
//
// Instruments are created on first use and never destroyed, so a
// resolved Counter& stays valid for the registry's lifetime — resolve
// once, then add() with no lock. snapshot() walks every instrument in
// name order under the registration lock, giving one stable, sorted
// view; snapshot_json() is a deterministic function of it.
//
// Naming convention (the metric-name lint rule): lowercase snake_case,
// subsystem prefix first ("serve_", "deploy_"), unit suffix last where
// one applies ("_seconds", "_bytes"). The BENCH names that committed
// baselines pin ("cycles", "trial_seconds", "deploy:tune") predate it.
// Standard library + obs::Json only (rdo_obs_base).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/histogram.h"
#include "obs/json.h"

namespace rdo::obs {

/// Shards per counter/histogram. 16 × 64B = 1 KiB per counter: plenty
/// of isolation for the pool's worker counts without bloating a
/// registry of dozens of instruments.
inline constexpr int kMetricShards = 16;

namespace metrics_internal {
/// Stable per-thread shard index in [0, kMetricShards), assigned
/// round-robin at first use.
int thread_shard() noexcept;

struct alignas(64) ShardedCell {
  std::atomic<std::int64_t> v{0};
};
}  // namespace metrics_internal

/// Monotonic counter. add() is wait-free on x86: one relaxed fetch_add
/// on the calling thread's shard.
class Counter {
 public:
  void add(std::int64_t delta = 1) noexcept {
    shards_[metrics_internal::thread_shard()].v.fetch_add(
        delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    std::int64_t sum = 0;
    for (const auto& s : shards_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  std::array<metrics_internal::ShardedCell, kMetricShards> shards_;
};

/// Last-write-wins gauge.
class Gauge {
 public:
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> v_{0.0};
};

/// Log2-µs latency histogram. observe() touches only the calling
/// thread's shard (bucket increment + nanosecond sum) plus two relaxed
/// CAS loops for min/max.
class Histogram {
 public:
  void observe(double seconds) noexcept;
  /// Fold a whole histogram in: equal to observing its samples (count,
  /// buckets and extremes exact; the sum to the nanosecond).
  void merge(const LatencyHistogram& h) noexcept;
  /// Point-in-time view summed over all shards.
  [[nodiscard]] LatencyHistogram snapshot() const noexcept;

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<std::int64_t>, kLatencyBuckets> buckets{};
    std::atomic<std::int64_t> sum_ns{0};
    /// Add a finite duration to sum_ns; non-finite ones are dropped.
    void add_sum(double seconds) noexcept;
  };
  /// Fold [lo, hi] into the running extremes.
  void widen(double lo, double hi) noexcept;
  std::array<Shard, kMetricShards> shards_;
  // Extremes start at ±infinity so the CAS fold works from the first
  // sample; snapshot() reports 0 for both until count > 0.
  std::atomic<double> min_seconds_{
      std::numeric_limits<double>::infinity()};
  std::atomic<double> max_seconds_{
      -std::numeric_limits<double>::infinity()};
};

/// Full registry view: instruments in sorted-name order.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::int64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, LatencyHistogram>> histograms;
};

class MetricsRegistry {
 public:
  /// Find-or-create by name. The returned reference is valid for the
  /// registry's lifetime; resolve once and cache it on hot paths.
  /// A name resolves to exactly one instrument kind — asking for a
  /// counter named like an existing gauge throws std::logic_error.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// One consistent pass over every registered instrument, sorted by
  /// name (std::map order). Values are relaxed reads — increments
  /// racing the snapshot land in this view or the next, never torn.
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// {"counters": {...}, "gauges": {...}, "histograms": {...}} with
  /// sorted member names; histogram entries are LatencyHistogram::json().
  [[nodiscard]] Json snapshot_json() const;

  /// Fold a snapshot of `other` in: counters add, gauges set,
  /// histograms merge. Empty histograms create no entry, so folding an
  /// untouched registry changes nothing.
  void merge(const MetricsRegistry& other);

 private:
  mutable std::mutex mu_;  ///< guards the maps (not the instruments)
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Process-wide registry for code without a natural owner (the deploy
/// cache counters); services that need isolated metrics (one registry
/// per InferenceService) construct their own.
MetricsRegistry& global_metrics();

/// Structural validation of a snapshot_json() document: the three
/// sections present, counters int, gauges numeric, histograms carrying
/// count/min/max/quantiles/sum_seconds and exactly kLatencyBuckets
/// bucket_counts. Diagnostic in *err on failure.
bool validate_metrics_json(const Json& doc, std::string* err);

}  // namespace rdo::obs
