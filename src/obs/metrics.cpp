#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace rdo::obs {

namespace metrics_internal {

int thread_shard() noexcept {
  static std::atomic<unsigned> next{0};
  thread_local const int shard = static_cast<int>(
      next.fetch_add(1, std::memory_order_relaxed) %
      static_cast<unsigned>(kMetricShards));
  return shard;
}

}  // namespace metrics_internal

namespace {

/// Relaxed CAS loop folding one sample into a running min or max.
template <typename Cmp>
void update_extreme(std::atomic<double>& slot, double sample, Cmp better) {
  double cur = slot.load(std::memory_order_relaxed);
  while (better(sample, cur) &&
         !slot.compare_exchange_weak(cur, sample,
                                     std::memory_order_relaxed)) {
  }
}

}  // namespace

void Histogram::Shard::add_sum(double seconds) noexcept {
  const double ns = seconds * 1e9;
  if (!std::isfinite(ns)) return;
  // Clamp before converting: a single absurd sample must not be UB.
  // Rounding (not truncation) lets a merged snapshot sum, itself whole
  // nanoseconds, land back on the same count of nanoseconds.
  sum_ns.fetch_add(std::llround(std::clamp(ns, -9.0e18, 9.0e18)),
                   std::memory_order_relaxed);
}

void Histogram::widen(double lo, double hi) noexcept {
  update_extreme(min_seconds_, lo, [](double a, double b) { return a < b; });
  update_extreme(max_seconds_, hi, [](double a, double b) { return a > b; });
}

void Histogram::observe(double seconds) noexcept {
  Shard& s = shards_[metrics_internal::thread_shard()];
  s.buckets[static_cast<std::size_t>(latency_bucket_index(seconds))]
      .fetch_add(1, std::memory_order_relaxed);
  s.add_sum(seconds);
  widen(seconds, seconds);
}

void Histogram::merge(const LatencyHistogram& h) noexcept {
  if (h.count <= 0) return;
  Shard& s = shards_[metrics_internal::thread_shard()];
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    if (h.buckets[i] != 0) {
      s.buckets[i].fetch_add(h.buckets[i], std::memory_order_relaxed);
    }
  }
  s.add_sum(h.sum_seconds);
  widen(h.min_seconds, h.max_seconds);
}

LatencyHistogram Histogram::snapshot() const noexcept {
  LatencyHistogram out;
  std::int64_t sum_ns = 0;
  for (const Shard& s : shards_) {
    for (int i = 0; i < kLatencyBuckets; ++i) {
      const std::int64_t c = s.buckets[static_cast<std::size_t>(i)].load(
          std::memory_order_relaxed);
      out.buckets[static_cast<std::size_t>(i)] += c;
      out.count += c;
    }
    sum_ns += s.sum_ns.load(std::memory_order_relaxed);
  }
  out.sum_seconds = static_cast<double>(sum_ns) / 1e9;
  if (out.count > 0) {
    out.min_seconds = min_seconds_.load(std::memory_order_relaxed);
    out.max_seconds = max_seconds_.load(std::memory_order_relaxed);
  }
  return out;
}

namespace {

/// Find-or-create in one of the three instrument maps, rejecting a name
/// already claimed by a different kind (one name, one instrument).
template <typename T, typename MapA, typename MapB>
T& resolve(std::mutex& mu, std::map<std::string, std::unique_ptr<T>>& own,
           const MapA& other1, const MapB& other2, const std::string& name,
           const char* kind) {
  std::lock_guard<std::mutex> lock(mu);
  auto it = own.find(name);
  if (it == own.end()) {
    if (other1.count(name) != 0 || other2.count(name) != 0) {
      throw std::logic_error("MetricsRegistry: \"" + name +
                             "\" already registered as a different "
                             "instrument kind than " + kind);
    }
    it = own.emplace(name, std::make_unique<T>()).first;
  }
  return *it->second;
}

}  // namespace

Counter& MetricsRegistry::counter(const std::string& name) {
  return resolve(mu_, counters_, gauges_, histograms_, name, "counter");
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  return resolve(mu_, gauges_, counters_, histograms_, name, "gauge");
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  return resolve(mu_, histograms_, counters_, gauges_, name, "histogram");
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot out;
  out.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    out.counters.emplace_back(name, c->value());
  }
  out.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    out.gauges.emplace_back(name, g->value());
  }
  out.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    out.histograms.emplace_back(name, h->snapshot());
  }
  return out;
}

Json MetricsRegistry::snapshot_json() const {
  const MetricsSnapshot snap = snapshot();
  Json doc = Json::object();
  Json counters = Json::object();
  for (const auto& [name, v] : snap.counters) counters[name] = v;
  doc["counters"] = std::move(counters);
  Json gauges = Json::object();
  for (const auto& [name, v] : snap.gauges) gauges[name] = v;
  doc["gauges"] = std::move(gauges);
  Json hists = Json::object();
  for (const auto& [name, h] : snap.histograms) {
    hists[name] = h.json();
  }
  doc["histograms"] = std::move(hists);
  return doc;
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  const MetricsSnapshot snap = other.snapshot();
  for (const auto& [name, v] : snap.counters) counter(name).add(v);
  for (const auto& [name, v] : snap.gauges) gauge(name).set(v);
  for (const auto& [name, h] : snap.histograms) {
    if (h.count > 0) histogram(name).merge(h);
  }
}

MetricsRegistry& global_metrics() {
  // Leaked like the tracer/logger state: instruments may be touched
  // from atexit handlers and pool workers exiting at static-destruction
  // time.
  static MetricsRegistry* g = new MetricsRegistry();
  return *g;
}

namespace {

bool mcheck(bool cond, const std::string& what, std::string* err) {
  if (cond) return true;
  if (err != nullptr) *err = what;
  return false;
}

}  // namespace

bool validate_metrics_json(const Json& doc, std::string* err) {
  if (!mcheck(doc.is_object(), "metrics document is not an object", err)) {
    return false;
  }
  const Json* counters = doc.find("counters");
  if (!mcheck(counters != nullptr && counters->is_object(),
              "missing counters object", err)) {
    return false;
  }
  for (const auto& [name, v] : counters->members()) {
    if (!mcheck(v.is_int(), "counter \"" + name + "\" is not an int", err)) {
      return false;
    }
  }
  const Json* gauges = doc.find("gauges");
  if (!mcheck(gauges != nullptr && gauges->is_object(),
              "missing gauges object", err)) {
    return false;
  }
  for (const auto& [name, v] : gauges->members()) {
    if (!mcheck(v.is_number(), "gauge \"" + name + "\" is not a number",
                err)) {
      return false;
    }
  }
  const Json* hists = doc.find("histograms");
  if (!mcheck(hists != nullptr && hists->is_object(),
              "missing histograms object", err)) {
    return false;
  }
  for (const auto& [name, h] : hists->members()) {
    const std::string at = "histogram \"" + name + "\" ";
    if (!mcheck(h.is_object(), at + "is not an object", err)) return false;
    const Json* count = h.find("count");
    if (!mcheck(count != nullptr && count->is_int(),
                at + "missing int count", err)) {
      return false;
    }
    for (const char* field : {"sum_seconds", "min_seconds", "max_seconds",
                              "p50_seconds", "p95_seconds", "p99_seconds"}) {
      const Json* v = h.find(field);
      if (!mcheck(v != nullptr && v->is_number(),
                  at + "missing numeric " + field, err)) {
        return false;
      }
    }
    const Json* buckets = h.find("bucket_counts");
    if (!mcheck(buckets != nullptr && buckets->is_array() &&
                    buckets->size() == static_cast<std::size_t>(
                                           kLatencyBuckets),
                at + "bucket_counts must have kLatencyBuckets entries",
                err)) {
      return false;
    }
    for (std::size_t i = 0; i < buckets->size(); ++i) {
      if (!mcheck(buckets->at(i).is_int(),
                  at + "bucket is not an int", err)) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace rdo::obs
