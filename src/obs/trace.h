// Execution tracing: Chrome trace-event / Perfetto-compatible spans.
//
// The tracer records complete spans ("ph":"X"), counter samples
// ("ph":"C") and process/thread name metadata ("ph":"M") into an
// in-memory buffer and writes one `traceEvents` JSON document (open it
// at ui.perfetto.dev or chrome://tracing). Output reuses the obs::Json
// writer, so the serialized form is deterministic modulo timestamps:
// events are ordered by timestamp with insertion order as the
// tie-breaker, and metadata tracks are sorted by thread id.
//
// Opt-in and cost model: tracing is off unless the RDO_TRACE=<path>
// environment variable is set (resolved once) or trace_start() is
// called. When off, every instrumentation site costs a single relaxed
// atomic load — no clock read, no lock, no allocation — so the
// bit-identical determinism guarantee of the pipeline (PR 1) and the
// BENCH determinism contract (obs/report.h) are unaffected either way:
// clocks never feed back into any computation.
//
// This header lives in rdo_obs_base (json, trace, histogram and the
// metrics registry: standard library only) so the nn thread pool can
// emit per-chunk spans without creating a cycle against rdo_obs, which
// links rdo_nn for pool stats.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "obs/json.h"

namespace rdo::obs {

namespace trace_internal {
/// 0 = unresolved (first trace_enabled() call reads RDO_TRACE),
/// 1 = disabled, 2 = recording.
extern std::atomic<int> g_state;
bool resolve_from_env();
}  // namespace trace_internal

/// True while span/counter recording is active. After the first call
/// (which resolves RDO_TRACE) this is one relaxed atomic load.
inline bool trace_enabled() {
  const int s = trace_internal::g_state.load(std::memory_order_relaxed);
  if (s == 0) return trace_internal::resolve_from_env();
  return s == 2;
}

/// Programmatic start (tests, harnesses): drop any buffered events,
/// reset the trace epoch and begin recording; trace_stop() or process
/// exit writes the document to `path`. Overrides RDO_TRACE.
void trace_start(const std::string& path);

/// Write buffered events to the configured path and stop recording.
/// Returns the path written, or an empty string when tracing was not
/// active (or the write failed — diagnosed via the logger). Idempotent.
std::string trace_stop();

/// Write buffered events to the configured path *without* stopping:
/// recording continues and buffered events are kept, so a later flush
/// or stop rewrites the file with a superset. Returns the path written,
/// or an empty string when tracing is not active or the write failed.
/// This is the signal-shutdown hook — before trace_flush(), a process
/// killed between atexit registration and exit lost its whole trace.
std::string trace_flush();

/// Bind the calling thread to a stable track: `tid` becomes its thread
/// id in the trace and `name` its thread_name metadata. Pool workers
/// bind tid = worker index + 1 at thread start; unbound threads are
/// assigned tid 0 ("main") first, then 1000+k. Bindings are kept even
/// while tracing is off so long-lived workers stay labelled across
/// trace_start()/trace_stop() cycles.
void trace_bind_thread(int tid, const std::string& name);

/// Emit one counter sample (a "ph":"C" event; Perfetto renders a
/// counter track named `name`). No-op when tracing is off.
void trace_counter(const char* name, std::int64_t value);

class Histogram;
class MetricsRegistry;

/// The one RAII phase primitive. Measures construction -> destruction
/// (or finish()) once and, from that single measurement:
///   * records one "ph":"X" event on the calling thread's track while
///     tracing is on;
///   * adds the elapsed seconds to `*seconds` when a sink is given
///     (the DeployStats phase times);
///   * or observes them into the registry histogram of the same name
///     (harness phases: the BENCH `timing` section sums them).
/// The clock is read only when tracing is on or a sink is given; an
/// unsunk span with tracing off costs one relaxed atomic load and every
/// other member is a no-op. `name` is copied when the span is traced,
/// so a temporary is fine; `cat` is kept by pointer in the trace buffer
/// and must be a string literal.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, const char* cat = "rdo",
                     double* seconds = nullptr)
      : cat_(cat), seconds_(seconds) {
    traced_ = trace_enabled();
    if (traced_ || seconds_ != nullptr) begin(name);
  }
  TraceSpan(const char* name, const char* cat, MetricsRegistry& metrics);
  ~TraceSpan() { finish(); }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// End the span now: emit the event and feed the sink. Later calls
  /// and the destructor do nothing. For callers that need the elapsed
  /// time before the scope closes (request logging, latency samples).
  void finish() noexcept {
    if (timed_) end();
  }

  /// Attach a key/value to the span's `args` block (no-op when the
  /// span is not traced — guard expensive arg computation on active()).
  void arg(const char* key, std::int64_t v);
  void arg(const char* key, int v) { arg(key, static_cast<std::int64_t>(v)); }
  void arg(const char* key, double v);
  void arg(const char* key, const std::string& v);

  /// True while the span will emit a trace event.
  [[nodiscard]] bool active() const { return traced_; }

 private:
  void begin(const char* name);
  void end() noexcept;

  std::string name_;  // set only when traced
  const char* cat_;
  double* seconds_ = nullptr;
  Histogram* hist_ = nullptr;
  bool traced_ = false;  ///< emits an event at end()
  bool timed_ = false;   ///< clock read at begin(); end() pending
  std::int64_t start_ns_ = 0;
  Json args_;  // Null until the first arg() call
};

/// Structural validation of a trace document (the writer's own output
/// format): a `traceEvents` array whose entries carry name/ph/pid/tid,
/// with ts+dur on "X" events, ts+args on "C" events and args on "M"
/// events. Returns true on success; diagnostic in *err otherwise.
bool validate_trace_document(const Json& doc, std::string* err);

}  // namespace rdo::obs
