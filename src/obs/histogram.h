// The one latency histogram type: a plain value holding count, sum,
// min, max and fixed log2-microsecond buckets.
//
// Every latency distribution in the repo uses it — MetricsRegistry
// histogram snapshots (the BENCH `histograms` and `timing` sections,
// the serve `stats` response) and DeployStats::eval_latency — so any two
// of them merge losslessly. Standard library + obs::Json only; lives in
// rdo_obs_base.
#pragma once

#include <array>
#include <cstdint>

#include "obs/json.h"

namespace rdo::obs {

/// Bucket i counts samples in [2^i, 2^(i+1)) microseconds, so 28
/// buckets span 1 us to ~4.5 minutes. The fixed geometry keeps the
/// serialized shape stable regardless of the samples observed.
inline constexpr int kLatencyBuckets = 28;

/// Bucket index for a latency in seconds: floor(log2(µs)), clamped to
/// [0, kLatencyBuckets). Sub-microsecond, negative and NaN samples land
/// in bucket 0.
int latency_bucket_index(double seconds);
/// Seconds at the geometric midpoint of bucket i.
double latency_bucket_midpoint_seconds(int i);

struct LatencyHistogram {
  std::int64_t count = 0;
  double sum_seconds = 0.0;  ///< finite samples only
  double min_seconds = 0.0;  ///< 0 until the first sample
  double max_seconds = 0.0;
  std::array<std::int64_t, kLatencyBuckets> buckets{};

  /// Add one sample: count, bucket and extremes always; the sum only
  /// for a finite sample, so one absurd value cannot poison it.
  void observe(double seconds);

  /// Fold `other` in: counts, sums and buckets add, extremes widen.
  /// Equal to observing the union of both sample sets. Merging an empty
  /// histogram is a no-op.
  void merge(const LatencyHistogram& other);

  /// Value at quantile q: the geometric midpoint of the rank bucket,
  /// clamped to [min_seconds, max_seconds].
  [[nodiscard]] double quantile(double q) const;

  /// `{count, sum_seconds, min_seconds, max_seconds, p50/p95/p99_seconds,
  /// bucket_counts[kLatencyBuckets]}`.
  [[nodiscard]] Json json() const;
};

}  // namespace rdo::obs
