// Execution tracing (obs/trace.h): off-by-default cost model, the
// structural validator, and the end-to-end guarantee — a traced
// deployment produces a Perfetto-loadable document with at least one
// span per deploy phase, per-layer spans, and one named track per pool
// worker.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/deploy.h"
#include "core/opt/pipeline.h"
#include "core/plan.h"
#include "core/vawo.h"
#include "data/synthetic.h"
#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/parallel.h"
#include "nn/sequential.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "sim/crossbar_executor.h"

using namespace rdo;
using rdo::obs::Json;

namespace {

struct ThreadGuard {
  explicit ThreadGuard(int n) { nn::set_thread_count(n); }
  ~ThreadGuard() { nn::set_thread_count(0); }
};

std::string temp_trace_path(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          (std::string("rdo_test_trace_") + tag + ".json"))
      .string();
}

/// Count events per name, separating spans from counters and metadata.
std::map<std::string, int> span_counts(const Json& doc) {
  std::map<std::string, int> counts;
  const Json* evs = doc.find("traceEvents");
  for (std::size_t i = 0; i < evs->size(); ++i) {
    const Json& e = evs->at(i);
    if (e.find("ph")->as_string() == "X") {
      ++counts[e.find("name")->as_string()];
    }
  }
  return counts;
}

/// Busy-wait until the steady clock has visibly advanced, so a span
/// around it measures a strictly positive duration.
void spin_a_little() {
  const auto t0 = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() - t0 <
         std::chrono::microseconds(50)) {
  }
}

/// Duration (µs) of the single "X" event named `name`.
double span_dur_us(const Json& doc, const std::string& name) {
  const Json* evs = doc.find("traceEvents");
  for (std::size_t i = 0; i < evs->size(); ++i) {
    const Json& e = evs->at(i);
    if (e.find("ph")->as_string() == "X" &&
        e.find("name")->as_string() == name) {
      return e.find("dur")->as_double();
    }
  }
  return -1.0;
}

}  // namespace

TEST(Trace, SpansAreFreeWhenTracingIsOff) {
  // RDO_TRACE is unset under ctest, so recording never starts; a span
  // must stay inactive and stop must report nothing to write.
  ASSERT_EQ(rdo::obs::trace_stop(), "");
  rdo::obs::TraceSpan span("unit:test");
  EXPECT_FALSE(span.active());
  span.arg("ignored", 1);  // must be a no-op, not a crash
  rdo::obs::trace_counter("unit_counter", 42);
  EXPECT_EQ(rdo::obs::trace_stop(), "");
}

TEST(Trace, SunkSpanAddsTimeWhenOffAndEmitsExactlyOneSpanWhenOn) {
  ASSERT_EQ(rdo::obs::trace_stop(), "");
  double seconds = 0.0;
  {
    rdo::obs::TraceSpan span("unit:sunk", "unit", &seconds);
    EXPECT_FALSE(span.active());  // times, but records no event
    spin_a_little();
  }
  EXPECT_GE(seconds, 50e-6);
  EXPECT_EQ(rdo::obs::trace_stop(), "");

  const double off = seconds;
  const std::string path = temp_trace_path("sunk");
  rdo::obs::trace_start(path);
  {
    rdo::obs::TraceSpan span("unit:sunk", "unit", &seconds);
    EXPECT_TRUE(span.active());
    spin_a_little();
    span.finish();  // ends early: the sink is filled before scope exit
    EXPECT_GT(seconds, off);
    EXPECT_FALSE(span.active());
    span.arg("late", 1);  // ignored after finish()
    span.finish();        // idempotent; the destructor adds nothing
  }
  const double on = seconds - off;
  ASSERT_EQ(rdo::obs::trace_stop(), path);
  const Json doc = rdo::obs::read_json_file(path);
  std::string err;
  ASSERT_TRUE(rdo::obs::validate_trace_document(doc, &err)) << err;
  EXPECT_EQ(span_counts(doc)["unit:sunk"], 1);
  // One clock reading feeds both the event and the sink.
  EXPECT_NEAR(span_dur_us(doc, "unit:sunk"), on * 1e6, 1e-3);
  std::filesystem::remove(path);
}

TEST(Trace, RegistrySpanAddsOnePhaseAndOneSpan) {
  rdo::obs::BenchReport rep("unit_test", 1);
  const std::string path = temp_trace_path("registry");
  rdo::obs::trace_start(path);
  {
    rdo::obs::TraceSpan span("bench_unit_seconds", "harness", rep.metrics());
    EXPECT_TRUE(span.active());
    spin_a_little();
  }
  ASSERT_EQ(rdo::obs::trace_stop(), path);
  const rdo::obs::Histogram& h =
      rep.metrics().histogram("bench_unit_seconds");
  EXPECT_EQ(h.snapshot().count, 1);
  const double traced = h.snapshot().sum_seconds;
  EXPECT_GE(traced, 50e-6);
  const Json doc = rdo::obs::read_json_file(path);
  EXPECT_EQ(span_counts(doc)["bench_unit_seconds"], 1);
  // The histogram keeps whole nanoseconds of the one clock reading.
  EXPECT_NEAR(span_dur_us(doc, "bench_unit_seconds"), traced * 1e6, 2e-3);
  std::filesystem::remove(path);

  // Tracing off: the phase still accumulates under the same name, and
  // the report lists it once with the summed seconds.
  {
    rdo::obs::TraceSpan span("bench_unit_seconds", "harness", rep.metrics());
    spin_a_little();
  }
  EXPECT_EQ(h.snapshot().count, 2);
  const Json report = rep.document();
  const Json* listed = report.find("timing")->find("phases");
  ASSERT_EQ(listed->size(), 1u);
  EXPECT_EQ(listed->at(0).find("name")->as_string(), "bench_unit_seconds");
  EXPECT_GT(listed->at(0).find("seconds")->as_double(), traced);
  EXPECT_EQ(listed->at(0).find("seconds")->as_double(),
            h.snapshot().sum_seconds);
}

TEST(Trace, OptimizerPipelineEmitsOneSpanPerPass) {
  // Pass span names are built at run time ("opt:" + pass name, longer
  // than the short-string buffer): the span must own its name, or the
  // event is written from freed memory.
  nn::Rng rng(11);
  nn::Sequential net;
  net.emplace<nn::Dense>(6, 4, rng);
  nn::Tensor images({12, 6});
  for (std::int64_t i = 0; i < images.size(); ++i) {
    images[i] = 0.2f * static_cast<float>(i % 7) - 0.6f;
  }
  std::vector<int> labels;
  for (int i = 0; i < 12; ++i) labels.push_back(i % 4);
  core::DeployOptions o;
  o.scheme = core::Scheme::VAWOStar;
  o.weight_bits = 4;
  o.offsets.m = 2;
  o.offsets.offset_bits = 4;
  o.variation.sigma = 0.5;
  o.lut_k_sets = 2;
  o.lut_j_cycles = 2;
  o.grad_samples = 12;
  o.seed = 11;
  core::DeploymentPlan plan = core::compile_plan(net, o, {&images, &labels});

  const std::string path = temp_trace_path("opt");
  rdo::obs::trace_start(path);
  core::opt::run_pipeline(plan, core::opt::registered_passes());
  ASSERT_EQ(rdo::obs::trace_stop(), path);

  const Json doc = rdo::obs::read_json_file(path);
  std::string err;
  ASSERT_TRUE(rdo::obs::validate_trace_document(doc, &err)) << err;
  std::map<std::string, int> expected = {{"opt:pipeline", 1}};
  for (const std::string& pass : core::opt::registered_passes()) {
    expected["opt:" + pass] = 1;
  }
  std::map<std::string, int> opt_spans;
  for (const auto& [name, n] : span_counts(doc)) {
    if (name.rfind("opt:", 0) == 0) opt_spans[name] = n;
  }
  EXPECT_EQ(opt_spans, expected);
  std::filesystem::remove(path);
}

TEST(Trace, ValidatorCatchesStructuralViolations) {
  std::string err;
  EXPECT_FALSE(rdo::obs::validate_trace_document(Json::parse("[]"), &err));
  EXPECT_FALSE(
      rdo::obs::validate_trace_document(Json::parse("{}"), &err));
  // An X event without dur must be rejected.
  Json doc = Json::parse(
      R"({"traceEvents":[{"name":"a","ph":"X","ts":1.0,"pid":1,"tid":0}]})");
  EXPECT_FALSE(rdo::obs::validate_trace_document(doc, &err));
  // Same event with a dur passes.
  Json ok = Json::parse(
      R"({"traceEvents":[{"name":"a","ph":"X","ts":1.0,"dur":2.0,)"
      R"("pid":1,"tid":0}]})");
  EXPECT_TRUE(rdo::obs::validate_trace_document(ok, &err)) << err;
  // Counter events need args.
  Json counter = Json::parse(
      R"({"traceEvents":[{"name":"c","ph":"C","ts":1.0,"pid":1,"tid":0}]})");
  EXPECT_FALSE(rdo::obs::validate_trace_document(counter, &err));
}

TEST(Trace, StartStopWritesAndSecondStopIsIdempotent) {
  const std::string path = temp_trace_path("startstop");
  rdo::obs::trace_start(path);
  {
    rdo::obs::TraceSpan span("unit:scope");
    EXPECT_TRUE(span.active());
    span.arg("k", 7);
  }
  EXPECT_EQ(rdo::obs::trace_stop(), path);
  EXPECT_EQ(rdo::obs::trace_stop(), "");  // already stopped
  const Json doc = rdo::obs::read_json_file(path);
  std::string err;
  EXPECT_TRUE(rdo::obs::validate_trace_document(doc, &err)) << err;
  EXPECT_EQ(span_counts(doc)["unit:scope"], 1);
  std::filesystem::remove(path);
}

TEST(Trace, DeploymentTraceCoversEveryPhaseAndWorkerTrack) {
  ThreadGuard guard(4);
  // Spawn the helper workers before recording: worker tracks must stay
  // registered across trace_start (bindings outlive individual traces).
  nn::parallel_for(1024, [](std::int64_t, std::int64_t) {}, /*grain=*/1);

  data::SyntheticSpec spec = data::mnist_like();
  spec.height = spec.width = 8;
  spec.classes = 4;
  spec.train_per_class = 16;
  spec.test_per_class = 8;
  spec.seed = 5;
  const data::SyntheticDataset ds = data::make_synthetic(spec);
  nn::Rng rng(9);
  nn::Sequential net;
  net.emplace<nn::Flatten>();
  net.emplace<nn::Dense>(64, 16, rng);
  net.emplace<nn::ReLU>();
  net.emplace<nn::Dense>(16, 4, rng);

  core::DeployOptions o;
  o.scheme = core::Scheme::VAWOStarPWT;  // covers VAWO, program, PWT, eval
  o.offsets.m = 8;
  o.cell = {rram::CellKind::SLC, 200.0};
  o.variation.sigma = 0.4;
  o.lut_k_sets = 4;
  o.lut_j_cycles = 2;
  o.grad_samples = 32;
  o.pwt.epochs = 1;
  o.pwt.max_samples = 32;
  o.seed = 3;

  const std::string path = temp_trace_path("deploy");
  rdo::obs::trace_start(path);
  (void)core::run_scheme(net, o, ds.train(), ds.test(), /*repeats=*/2);
  // A dispatched loop inside the recording window guarantees pool spans
  // and counter samples even if the tiny deployment above ran its loops
  // inline.
  nn::parallel_for(1024, [](std::int64_t, std::int64_t) {}, /*grain=*/1);
  {
    // Device-level layer: per-layer / per-tile sim spans.
    quant::LayerQuant lq;
    lq.bits = 8;
    lq.rows = 16;
    lq.cols = 8;
    lq.scale = 0.01f;
    lq.zero = 128;
    lq.q.assign(static_cast<std::size_t>(lq.rows * lq.cols), 100);
    const core::VawoResult assign = core::plain_layer(lq, 8);
    sim::ExecutorConfig cfg;
    cfg.xbar.rows = 16;
    cfg.xbar.cols = 32;
    cfg.xbar.cell = {rram::CellKind::SLC, 200.0};
    cfg.xbar.variation.sigma = 0.2;
    cfg.xbar.active_wordlines = 4;
    cfg.offsets.m = 8;
    nn::Rng xrng(17);
    const sim::CrossbarLayerExecutor exec(lq, assign, cfg, xrng);
    (void)exec.measure_crw();
  }
  ASSERT_EQ(rdo::obs::trace_stop(), path);

  const Json doc = rdo::obs::read_json_file(path);
  std::string err;
  ASSERT_TRUE(rdo::obs::validate_trace_document(doc, &err)) << err;

  // >= 1 span per deploy phase; per-layer spans from both the deploy
  // pipeline (two Dense layers x two cycles) and the device level.
  const std::map<std::string, int> spans = span_counts(doc);
  for (const char* phase :
       {"deploy:lut_build", "deploy:prepare", "deploy:vawo_solve",
        "deploy:program", "deploy:tune", "deploy:evaluate", "pwt:epoch",
        "pwt:batch", "pool:parallel_for", "pool:chunk"}) {
    EXPECT_GE(spans.count(phase) ? spans.at(phase) : 0, 1) << phase;
  }
  EXPECT_GE(spans.at("vawo:layer"), 2);
  EXPECT_GE(spans.at("program:layer"), 4);  // 2 layers x 2 cycles
  EXPECT_GE(spans.at("sim:build_layer"), 1);
  EXPECT_GE(spans.at("sim:program_tile"), 1);
  EXPECT_GE(spans.at("sim:measure_crw"), 1);

  // Counter tracks and thread metadata: one named track per pool worker
  // (4 threads -> 3 helpers), plus the main thread; tids unique.
  std::map<std::string, std::string> tracks;  // name -> tid dump
  std::map<std::string, int> counters;
  const Json* evs = doc.find("traceEvents");
  for (std::size_t i = 0; i < evs->size(); ++i) {
    const Json& e = evs->at(i);
    const std::string ph = e.find("ph")->as_string();
    if (ph == "M" && e.find("name")->as_string() == "thread_name") {
      const std::string name = e.find("args")->find("name")->as_string();
      EXPECT_EQ(tracks.count(name), 0u) << "duplicate track " << name;
      tracks[name] = e.find("tid")->dump();
    } else if (ph == "C") {
      ++counters[e.find("name")->as_string()];
    }
  }
  EXPECT_EQ(tracks.count("main"), 1u);
  for (const char* worker :
       {"pool-worker-1", "pool-worker-2", "pool-worker-3"}) {
    EXPECT_EQ(tracks.count(worker), 1u) << worker;
  }
  EXPECT_GE(counters["device_pulses"], 2);  // one per program_cycle
  EXPECT_GE(counters["pool_chunks_executed"], 1);
  EXPECT_GE(counters["pool_chunks_stolen"], 1);
  std::filesystem::remove(path);
}
