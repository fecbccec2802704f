#include "obs/histogram.h"

#include <algorithm>
#include <cmath>

namespace rdo::obs {

int latency_bucket_index(double seconds) {
  const double us = seconds * 1e6;
  if (!(us >= 1.0)) return 0;  // sub-microsecond, NaN, negative
  int exp = 0;
  std::frexp(us, &exp);  // us = m * 2^exp, m in [0.5, 1)
  return std::min(exp - 1, kLatencyBuckets - 1);
}

double latency_bucket_midpoint_seconds(int i) {
  return std::exp2(i + 0.5) * 1e-6;
}

double latency_bucket_upper_seconds(int i) {
  return std::exp2(i + 1) * 1e-6;
}

void LatencyHistogram::observe(double seconds) {
  if (count == 0) {
    min_seconds = seconds;
    max_seconds = seconds;
  } else {
    min_seconds = std::min(min_seconds, seconds);
    max_seconds = std::max(max_seconds, seconds);
  }
  ++count;
  if (std::isfinite(seconds)) sum_seconds += seconds;
  ++buckets[static_cast<std::size_t>(latency_bucket_index(seconds))];
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  if (other.count <= 0) return;
  if (count == 0) {
    min_seconds = other.min_seconds;
    max_seconds = other.max_seconds;
  } else {
    min_seconds = std::min(min_seconds, other.min_seconds);
    max_seconds = std::max(max_seconds, other.max_seconds);
  }
  count += other.count;
  sum_seconds += other.sum_seconds;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    buckets[i] += other.buckets[i];
  }
}

double LatencyHistogram::quantile(double q) const {
  const auto rank =
      static_cast<std::int64_t>(std::ceil(q * static_cast<double>(count)));
  std::int64_t seen = 0;
  for (int i = 0; i < kLatencyBuckets; ++i) {
    seen += buckets[static_cast<std::size_t>(i)];
    if (seen >= rank) {
      return std::clamp(latency_bucket_midpoint_seconds(i), min_seconds,
                        max_seconds);
    }
  }
  return max_seconds;
}

Json LatencyHistogram::json() const {
  Json e = Json::object();
  e["count"] = count;
  e["sum_seconds"] = sum_seconds;
  e["min_seconds"] = min_seconds;
  e["max_seconds"] = max_seconds;
  e["p50_seconds"] = quantile(0.50);
  e["p95_seconds"] = quantile(0.95);
  e["p99_seconds"] = quantile(0.99);
  Json b = Json::array();
  for (const std::int64_t c : buckets) b.push_back(c);
  e["bucket_counts"] = std::move(b);
  return e;
}

}  // namespace rdo::obs
