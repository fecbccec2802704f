// Deployment-as-a-service: a long-running inference service over the
// compile-once/execute-many pipeline.
//
// An InferenceService owns one trained network plus its registered
// train/test datasets and answers line-protocol requests
// (serve/protocol.h). Per request config it compiles (or re-uses) a
// DeploymentPlan and evaluates on a pooled ExecutionBackend:
//
//   request config -> plan_fingerprint -> LRU of hot plans
//                  -> per-(plan, cycle) pool of programmed backends
//                  -> evaluate() -> response line
//
// Plans are immutable pure data, so one cached plan serves any number of
// concurrent backends; backends own all mutable state, so checking one
// out gives a request exclusive use with no further locking. Plan
// compilation additionally consults the on-disk RDO_PLAN_CACHE_DIR /
// RDO_LUT_CACHE_DIR caches (core/plan.h), which is what makes a cold
// server start cheap on a warmed cache.
//
// Admission control is a bounded active-set plus a bounded FIFO wait
// queue; beyond that requests are shed with a typed "overloaded" error
// instead of queueing without bound.
//
// Telemetry: every service owns a MetricsRegistry (obs/metrics.h) whose
// sharded counters and the serve_request_seconds histogram sit on the
// request hot path; the `stats` op snapshots it live. Each request gets
// a monotonically increasing request id carried by its "serve:request"
// trace span and its log lines; requests slower than RDO_SLOW_REQUEST_MS
// (milliseconds; unset = disabled) are logged at warn level. Harnesses
// merge the registry into their BenchReport's registry at exit. Its
// gauges are point-in-time state, never wall-clock readings, so the
// folded BENCH `gauges` section stays deterministic; the service's
// uptime is only the flat `uptime_seconds` field of a stats response.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/backend.h"
#include "core/deploy.h"
#include "core/plan.h"
#include "nn/layer.h"
#include "nn/trainer.h"
#include "obs/metrics.h"
#include "obs/stopwatch.h"
#include "serve/protocol.h"

namespace rdo::serve {

struct ServeConfig {
  std::size_t max_plans = 4;             ///< LRU capacity (hot plans)
  std::size_t max_backends_per_plan = 2; ///< idle pool cap per (plan, cycle)
  int max_active = 4;                    ///< requests evaluating at once
  int max_queued = 16;                   ///< requests waiting for a slot
  std::int64_t max_request_samples = 1 << 16;  ///< eval budget per request
};

/// Service-level counters (monotonic; snapshot via counters()). This is
/// a point-in-time read of the service's MetricsRegistry, kept as a
/// plain struct for ergonomic test assertions.
struct ServeCounters {
  std::int64_t requests = 0;
  std::int64_t ok = 0;
  std::int64_t bad_request = 0;
  std::int64_t overloaded = 0;
  std::int64_t internal = 0;
  std::int64_t plan_hits = 0;
  std::int64_t plan_misses = 0;
  std::int64_t plan_evictions = 0;
  std::int64_t backend_creates = 0;
  std::int64_t backend_reuses = 0;
  std::int64_t slow_requests = 0;
};

/// Bounded admission: at most `max_active` holders at once, at most
/// `max_queued` waiters behind them; anything beyond is shed.
class AdmissionGate {
 public:
  AdmissionGate(int max_active, int max_queued)
      : max_active_(max_active), max_queued_(max_queued) {}

  /// Take a slot, waiting in the bounded queue if necessary. Returns
  /// false (without blocking) when both the active set and the queue are
  /// full — the caller sheds the request.
  bool enter();
  void leave();

  /// Block until no request holds a slot or waits in the queue — the
  /// graceful-shutdown drain. Callers must have stopped admitting new
  /// requests first or this can wait forever.
  void wait_idle();

  [[nodiscard]] int active() const;
  [[nodiscard]] int queued() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  int max_active_;
  int max_queued_;
  int active_ = 0;
  int queued_ = 0;
};

/// RAII admission slot. `admitted()` is false when the gate shed the
/// request; destruction releases the slot exactly once.
class AdmissionTicket {
 public:
  explicit AdmissionTicket(AdmissionGate& gate)
      : gate_(gate), admitted_(gate.enter()) {}
  ~AdmissionTicket() {
    if (admitted_) gate_.leave();
  }
  AdmissionTicket(const AdmissionTicket&) = delete;
  AdmissionTicket& operator=(const AdmissionTicket&) = delete;

  [[nodiscard]] bool admitted() const { return admitted_; }

 private:
  AdmissionGate& gate_;
  bool admitted_;
};

class InferenceService {
 public:
  /// `net` is cloned; `train`/`test` must outlive the service (train
  /// feeds plan compilation and PWT, test/train serve "split" selectors).
  /// The ctor reads RDO_SLOW_REQUEST_MS (milliseconds, fractional ok)
  /// for the slow-request log threshold; unset or invalid disables it.
  InferenceService(const rdo::nn::Layer& net, rdo::nn::DataView train,
                   rdo::nn::DataView test, rdo::core::DeployOptions base,
                   ServeConfig cfg);

  /// Handle one request line, returning one response line (no trailing
  /// newline). Never throws: every failure becomes a typed error
  /// response. Safe to call concurrently from transport threads.
  std::string handle_line(const std::string& line);

  [[nodiscard]] ServeCounters counters() const;
  [[nodiscard]] const ServeConfig& config() const { return cfg_; }
  /// Plans currently resident in the LRU (test hook).
  [[nodiscard]] std::size_t cached_plans() const;
  /// Idle programmed backends pooled across every hot plan and cycle.
  [[nodiscard]] std::size_t pooled_backends() const;
  /// Seconds since the service was constructed (monotonic clock).
  [[nodiscard]] double uptime_seconds() const { return uptime_.seconds(); }
  /// Admission gate (test hook: tests hold AdmissionTickets directly to
  /// drive the gate into deterministic overload states).
  [[nodiscard]] AdmissionGate& gate() { return gate_; }
  /// Live instrument registry: counters, gauges and the request-latency
  /// histogram. Harnesses merge it into a BenchReport at report time.
  [[nodiscard]] rdo::obs::MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const rdo::obs::MetricsRegistry& metrics() const {
    return metrics_;
  }

 private:
  /// One hot plan plus its pools of programmed backends, keyed by cycle
  /// salt. shared_ptr-held so a request keeps its plan alive across an
  /// LRU eviction; `plan` is declared before the pools so backends (which
  /// reference it) are destroyed first.
  struct PlanEntry {
    explicit PlanEntry(rdo::core::DeploymentPlan p) : plan(std::move(p)) {}
    rdo::core::DeploymentPlan plan;
    std::uint64_t fp = 0;
    bool from_disk_cache = false;
    std::mutex mu;  ///< guards pools
    std::map<std::uint64_t,
             std::vector<std::unique_ptr<rdo::core::EffectiveWeightBackend>>>
        pools;
  };

  std::shared_ptr<PlanEntry> get_plan(const rdo::core::DeployOptions& opt,
                                      bool& lru_hit);
  rdo::obs::Json evaluate(const ServeRequest& req);
  rdo::obs::Json stats_result();

  std::unique_ptr<rdo::nn::Layer> net_;
  rdo::nn::DataView train_;
  rdo::nn::DataView test_;
  rdo::core::DeployOptions base_;
  ServeConfig cfg_;
  AdmissionGate gate_;

  mutable std::mutex mu_;       ///< guards lru_
  std::mutex compile_mu_;       ///< serializes plan compilation
  /// Most-recently-used first; eviction drops the tail.
  std::list<std::shared_ptr<PlanEntry>> lru_;

  rdo::obs::MetricsRegistry metrics_;
  // Hot-path instruments resolved once (references stay valid for the
  // registry's lifetime, i.e. the service's).
  rdo::obs::Counter& c_requests_ = metrics_.counter("serve_requests");
  rdo::obs::Counter& c_ok_ = metrics_.counter("serve_ok");
  rdo::obs::Counter& c_bad_request_ = metrics_.counter("serve_bad_request");
  rdo::obs::Counter& c_overloaded_ = metrics_.counter("serve_overloaded");
  rdo::obs::Counter& c_internal_ = metrics_.counter("serve_internal");
  rdo::obs::Counter& c_plan_hits_ = metrics_.counter("serve_plan_hits");
  rdo::obs::Counter& c_plan_misses_ = metrics_.counter("serve_plan_misses");
  rdo::obs::Counter& c_plan_evictions_ =
      metrics_.counter("serve_plan_evictions");
  rdo::obs::Counter& c_backend_creates_ =
      metrics_.counter("serve_backend_creates");
  rdo::obs::Counter& c_backend_reuses_ =
      metrics_.counter("serve_backend_reuses");
  rdo::obs::Counter& c_slow_requests_ =
      metrics_.counter("serve_slow_requests");
  rdo::obs::Histogram& h_request_seconds_ =
      metrics_.histogram("serve_request_seconds");

  std::atomic<std::uint64_t> request_seq_{0};
  double slow_threshold_s_ = -1.0;  ///< < 0 => slow-request log disabled
  rdo::obs::Stopwatch uptime_;
};

}  // namespace rdo::serve
