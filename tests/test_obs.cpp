// Tests for the observability layer (src/obs): JSON round-trips, the
// latency histogram, BENCH documents built from one registry, schema
// validation, and the end-to-end determinism contract — the
// deterministic sections of a report are byte-identical across
// RDO_THREADS settings for a fixed seed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>

#include <gtest/gtest.h>

#include "core/backend.h"
#include "core/deploy.h"
#include "core/plan.h"
#include "obs/envvar.h"
#include "data/synthetic.h"
#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/parallel.h"
#include "nn/sequential.h"
#include "obs/env.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "quant/act_quant.h"
#include "sim/device_backend.h"

using rdo::obs::Json;

namespace {

/// Restores the pool width on scope exit (pattern from test_parallel.cpp).
class ThreadGuard {
 public:
  explicit ThreadGuard(int n) : prev_(rdo::nn::thread_count()) {
    rdo::nn::set_thread_count(n);
  }
  ~ThreadGuard() { rdo::nn::set_thread_count(prev_); }

 private:
  int prev_;
};

Json sample_doc() {
  Json doc = Json::object();
  doc["int"] = std::int64_t{42};
  doc["negative"] = -7;
  doc["pi"] = 3.141592653589793;
  doc["tenth"] = 0.1;
  doc["third"] = 1.0 / 3.0;
  doc["tiny"] = 1.25e-7;
  doc["flag"] = true;
  doc["off"] = false;
  doc["nothing"];  // null
  doc["text"] = "quote \" backslash \\ newline \n tab \t";
  Json arr = Json::array();
  arr.push_back(1);
  arr.push_back(2.5);
  arr.push_back("three");
  doc["list"] = std::move(arr);
  Json nested = Json::object();
  nested["a"] = 1;
  nested["b"] = Json::array();
  doc["nested"] = std::move(nested);
  return doc;
}

}  // namespace

TEST(Json, CompactRoundTripIsByteStable) {
  const Json doc = sample_doc();
  const std::string once = doc.dump();
  const Json reparsed = Json::parse(once);
  EXPECT_EQ(reparsed.dump(), once);
}

TEST(Json, PrettyFormParsesToTheSameDocument) {
  const Json doc = sample_doc();
  const Json reparsed = Json::parse(doc.dump(2));
  EXPECT_EQ(reparsed.dump(), doc.dump());
}

TEST(Json, ObjectKeepsInsertionOrder) {
  Json doc = Json::object();
  doc["zebra"] = 1;
  doc["alpha"] = 2;
  doc["mid"] = 3;
  EXPECT_EQ(doc.dump(), "{\"zebra\":1,\"alpha\":2,\"mid\":3}");
}

TEST(Json, NumbersKeepTheirTypeThroughAReparse) {
  const Json i = Json::parse("7");
  EXPECT_TRUE(i.is_int());
  EXPECT_EQ(i.as_int(), 7);
  const Json d = Json::parse("7.0");
  EXPECT_TRUE(d.is_double());
  EXPECT_DOUBLE_EQ(d.as_double(), 7.0);
  // A dumped Double reparses as Double even for integral values.
  const Json round = Json::parse(Json(2.0).dump());
  EXPECT_TRUE(round.is_double());
}

TEST(Json, DoubleFormattingRoundTripsExactly) {
  for (double v : {0.1, 1.0 / 3.0, 2.5, 1e-7, 123456789.125,
                   -0.0078125, 3.141592653589793}) {
    const Json parsed = Json::parse(Json(v).dump());
    EXPECT_EQ(parsed.as_double(), v) << Json(v).dump();
  }
}

TEST(Json, UnicodeEscapesParse) {
  const Json j = Json::parse("\"\\u0041\\u0042\"");
  EXPECT_EQ(j.as_string(), "AB");
}

TEST(Json, MalformedInputThrows) {
  for (const char* bad :
       {"", "{", "[1,", "tru", "1 2", "{\"a\":}", "\"unterminated",
        "{\"a\" 1}", "[1 2]", "nul"}) {
    EXPECT_THROW(Json::parse(bad), std::runtime_error) << bad;
  }
}

TEST(Json, TypeMismatchThrows) {
  const Json j = Json::parse("{\"a\":1}");
  EXPECT_THROW((void)j.as_string(), std::logic_error);
  EXPECT_THROW((void)j.as_int(), std::logic_error);
  EXPECT_EQ(j.find("a")->as_int(), 1);
  EXPECT_EQ(j.find("missing"), nullptr);
}

TEST(Json, FileRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "rdo_test_obs.json").string();
  const Json doc = sample_doc();
  rdo::obs::write_json_file(doc, path);
  const Json back = rdo::obs::read_json_file(path);
  EXPECT_EQ(back.dump(), doc.dump());
  std::filesystem::remove(path);
}

TEST(BenchReport, PhasesCountersAndGaugesComeFromOneRegistry) {
  rdo::obs::BenchReport rep("unit_test", 1);
  rdo::obs::MetricsRegistry& m = rep.metrics();
  m.histogram("bench_beta_seconds").observe(0.25);
  m.histogram("bench_alpha_seconds").observe(1.5);
  m.histogram("bench_alpha_seconds").observe(0.5);
  m.counter("bench_widgets").add();
  m.counter("bench_widgets").add(4);
  m.gauge("bench_ratio").set(0.75);
  m.gauge("bench_ratio").set(0.5);  // last write wins
  EXPECT_EQ(rep.deterministic_dump(),
            "{\"counters\":{\"bench_widgets\":5},"
            "\"gauges\":{\"bench_ratio\":0.5},"
            "\"results\":{},\"failures\":[]}");
  // Every histogram is a phase: its summed seconds, in name order.
  const Json doc = rep.document();
  const Json* phases = doc.find("timing")->find("phases");
  ASSERT_EQ(phases->size(), 2u);
  EXPECT_EQ(phases->at(0).find("name")->as_string(), "bench_alpha_seconds");
  EXPECT_DOUBLE_EQ(phases->at(0).find("seconds")->as_double(), 2.0);
  EXPECT_EQ(phases->at(1).find("name")->as_string(), "bench_beta_seconds");
  EXPECT_DOUBLE_EQ(phases->at(1).find("seconds")->as_double(), 0.25);
  const Json* alpha = doc.find("histograms")->find("bench_alpha_seconds");
  EXPECT_EQ(alpha->find("count")->as_int(), 2);
}

TEST(BenchReport, DocumentValidatesAgainstSchema) {
  rdo::obs::BenchReport rep("unit_test", 99);
  rep.metrics().counter("bench_things").add(3);
  rep.metrics().gauge("bench_level").set(0.5);
  rep.results()["answer"] = 42;
  const Json doc = rep.document();
  std::string err;
  EXPECT_TRUE(rdo::obs::validate_bench_document(doc, &err)) << err;
  EXPECT_EQ(doc.find("schema_version")->as_int(),
            rdo::obs::kBenchSchemaVersion);
  EXPECT_EQ(doc.find("name")->as_string(), "unit_test");
  EXPECT_EQ(doc.find("env")->find("seed")->as_int(), 99);
  EXPECT_EQ(rep.exit_code(), 0);
}

TEST(BenchReport, ValidationCatchesBrokenDocuments) {
  rdo::obs::BenchReport rep("unit_test", 1);
  std::string err;

  Json wrong_version = rep.document();
  wrong_version["schema_version"] = 999;
  EXPECT_FALSE(rdo::obs::validate_bench_document(wrong_version, &err));

  Json no_name = rep.document();
  no_name["name"] = "";
  EXPECT_FALSE(rdo::obs::validate_bench_document(no_name, &err));

  Json bad_counters = rep.document();
  bad_counters["counters"]["oops"] = "not a number";
  EXPECT_FALSE(rdo::obs::validate_bench_document(bad_counters, &err));

  EXPECT_FALSE(rdo::obs::validate_bench_document(Json::parse("[]"), &err));
}

TEST(BenchReport, FailuresDriveTheExitCode) {
  rdo::obs::BenchReport rep("unit_test", 1);
  EXPECT_EQ(rep.exit_code(), 0);
  rep.add_failure("grid point 3", "boom");
  EXPECT_TRUE(rep.any_failure());
  EXPECT_EQ(rep.failure_count(), 1u);
  EXPECT_EQ(rep.exit_code(), 1);
  std::string err;
  const Json doc = rep.document();
  EXPECT_TRUE(rdo::obs::validate_bench_document(doc, &err)) << err;
  ASSERT_NE(doc.find("failures"), nullptr);
  EXPECT_EQ(doc.find("failures")->at(0).find("what")->as_string(), "boom");
}

TEST(Env, CaptureHasTheContractedKeys) {
  const Json env = rdo::obs::capture_env(7);
  EXPECT_EQ(env.find("seed")->as_int(), 7);
  EXPECT_GE(env.find("threads")->as_int(), 1);
  EXPECT_FALSE(env.find("build_type")->as_string().empty());
  EXPECT_FALSE(env.find("git_sha")->as_string().empty());
}

namespace {

/// Runs a small deployment under `threads` pool threads and returns the
/// deterministic sections of the resulting report.
std::string deterministic_report(int threads) {
  ThreadGuard guard(threads);

  rdo::data::SyntheticSpec spec = rdo::data::mnist_like();
  spec.train_per_class = 20;
  spec.test_per_class = 10;
  const rdo::data::SyntheticDataset ds = rdo::data::make_synthetic(spec);

  rdo::nn::Rng rng(11);
  rdo::nn::Sequential net;
  net.emplace<rdo::nn::Flatten>();
  net.emplace<rdo::quant::ActQuant>(8);
  net.emplace<rdo::nn::Dense>(28 * 28, 16, rng);
  net.emplace<rdo::nn::ReLU>();
  net.emplace<rdo::quant::ActQuant>(8);
  net.emplace<rdo::nn::Dense>(16, 10, rng);

  rdo::core::DeployOptions o;
  o.scheme = rdo::core::Scheme::VAWOStarPWT;
  o.offsets.m = 8;
  o.cell = {rdo::rram::CellKind::SLC, 200.0};
  o.variation.sigma = 0.4;
  o.lut_k_sets = 4;
  o.lut_j_cycles = 2;
  o.grad_samples = 32;
  o.pwt.epochs = 1;
  o.pwt.max_samples = 64;
  o.seed = 7;

  const rdo::core::SchemeResult res =
      rdo::core::run_scheme(net, o, ds.train(), ds.test(), /*repeats=*/3);

  rdo::obs::BenchReport rep("determinism_probe", o.seed);
  rep.results()["stats"] = rdo::core::deploy_stats_json(res.stats);
  Json per_cycle = Json::array();
  for (float a : res.per_cycle) per_cycle.push_back(static_cast<double>(a));
  rep.results()["per_cycle"] = std::move(per_cycle);
  rep.metrics().counter("bench_cycles").add(res.stats.cycles);
  rep.metrics().counter("bench_device_pulses").add(
      res.stats.device_pulses);
  rdo::core::add_deploy_phase_times(rep.metrics(), res.stats);
  for (const std::string& e : res.errors) {
    if (!e.empty()) rep.add_failure("trial", e);
  }
  return rep.deterministic_dump();
}

}  // namespace

TEST(Determinism, ReportIsByteIdenticalAcrossThreadCounts) {
  const std::string serial = deterministic_report(1);
  const std::string parallel = deterministic_report(8);
  EXPECT_EQ(serial, parallel);
  // Sanity: the probe actually ran the pipeline.
  const Json doc = Json::parse(serial);
  EXPECT_EQ(doc.find("counters")->find("bench_cycles")->as_int(), 3);
  EXPECT_GT(doc.find("counters")->find("bench_device_pulses")->as_int(), 0);
}

TEST(Determinism, TracingDoesNotPerturbTheReport) {
  // Tracing must never feed back into the computation or the report:
  // trace counters go to the trace file, not the registry, and spans
  // only read the clock. The deterministic sections (which include the
  // counters) must be byte-identical with tracing on and off.
  const std::string untraced = deterministic_report(2);
  const std::string path =
      (std::filesystem::temp_directory_path() / "rdo_test_obs_trace.json")
          .string();
  rdo::obs::trace_start(path);
  const std::string traced = deterministic_report(2);
  ASSERT_EQ(rdo::obs::trace_stop(), path);
  EXPECT_EQ(traced, untraced);
  std::filesystem::remove(path);
}

TEST(DeployStats, MergeFoldsTheEvalLatencyHistogram) {
  rdo::core::DeployStats a, b;
  a.eval_latency.observe(0.25);
  b.eval_latency.observe(0.5);
  b.eval_latency.observe(2.0);
  a.merge(b);
  EXPECT_EQ(a.eval_latency.count, 3);
  EXPECT_EQ(a.eval_latency.sum_seconds, 2.75);
  EXPECT_EQ(a.eval_latency.min_seconds, 0.25);
  EXPECT_EQ(a.eval_latency.max_seconds, 2.0);
  // Wall times stay out of the deterministic record...
  EXPECT_EQ(rdo::core::deploy_stats_json(a).dump().find("seconds"),
            std::string::npos);
  // ...and reach a report as the deploy:evaluate phase histogram, one
  // sample per evaluate() call.
  rdo::obs::MetricsRegistry m;
  rdo::core::add_deploy_phase_times(m, a);
  const Json phases = m.snapshot_json();
  const Json* h = phases.find("histograms")->find("deploy:evaluate");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->find("count")->as_int(), 3);
  EXPECT_EQ(h->find("sum_seconds")->as_double(), 2.75);
  EXPECT_EQ(h->find("min_seconds")->as_double(), 0.25);
  EXPECT_EQ(h->find("max_seconds")->as_double(), 2.0);
  // The other phases get one sample per call.
  EXPECT_EQ(phases.find("histograms")->size(), 6u);
  EXPECT_EQ(phases.find("histograms")->find("deploy:tune")->find("count")
                ->as_int(),
            1);
}

TEST(DeployStats, ThousandsOfEvaluatesKeepEvalLatencyFixedSize) {
  // A pooled rdo_serve backend evaluates once per request for its whole
  // life; its latency record is a value with no heap storage, so it
  // cannot grow with the number of calls.
  static_assert(std::is_trivially_copyable_v<rdo::obs::LatencyHistogram>);
  rdo::data::SyntheticSpec spec = rdo::data::mnist_like();
  spec.train_per_class = 5;
  spec.test_per_class = 1;
  const rdo::data::SyntheticDataset ds = rdo::data::make_synthetic(spec);
  rdo::nn::Rng rng(3);
  rdo::nn::Sequential net;
  net.emplace<rdo::nn::Flatten>();
  net.emplace<rdo::nn::Dense>(28 * 28, 10, rng);
  rdo::core::DeployOptions o;
  o.lut_k_sets = 4;
  o.lut_j_cycles = 2;
  const rdo::core::DeploymentPlan plan =
      rdo::core::compile_plan(net, o, ds.train());
  rdo::core::EffectiveWeightBackend backend(plan, net);
  backend.program_cycle(0);
  constexpr int kCalls = 3000;
  for (int i = 0; i < kCalls; ++i) (void)backend.evaluate(ds.test());
  const rdo::obs::LatencyHistogram& lat = backend.stats().eval_latency;
  EXPECT_EQ(lat.count, kCalls);
  std::int64_t total = 0;
  for (const std::int64_t c : lat.buckets) total += c;
  EXPECT_EQ(total, kCalls);
  EXPECT_GT(lat.sum_seconds, 0.0);
  EXPECT_LE(lat.min_seconds, lat.max_seconds);
  // Per-cycle accuracies belong to the run_grid harness, not the backend.
  EXPECT_TRUE(backend.stats().eval_accuracy.empty());
}

TEST(DeployStats, DeviceSimEvaluatesKeepNoAccuracyTrace) {
  rdo::data::SyntheticSpec spec = rdo::data::mnist_like();
  spec.train_per_class = 5;
  spec.test_per_class = 2;
  const rdo::data::SyntheticDataset ds = rdo::data::make_synthetic(spec);
  rdo::nn::Rng rng(3);
  rdo::nn::Sequential net;
  net.emplace<rdo::nn::Flatten>();
  net.emplace<rdo::nn::Dense>(28 * 28, 10, rng);
  rdo::core::DeployOptions o;
  o.lut_k_sets = 4;
  o.lut_j_cycles = 2;
  const rdo::core::DeploymentPlan plan =
      rdo::core::compile_plan(net, o, ds.train());
  rdo::sim::DeviceSimOptions d;
  d.eval_max_samples = 4;
  rdo::sim::DeviceSimBackend backend(plan, net, d);
  backend.program_cycle(0);
  constexpr int kCalls = 5;
  for (int i = 0; i < kCalls; ++i) (void)backend.evaluate(ds.test());
  EXPECT_EQ(backend.stats().eval_latency.count, kCalls);
  EXPECT_TRUE(backend.stats().eval_accuracy.empty());
}

TEST(Json, NanAndInfinitySerializeAsNull) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(Json(nan).dump(), "null");
  EXPECT_EQ(Json(inf).dump(), "null");
  EXPECT_EQ(Json(-inf).dump(), "null");
  // Round trip: a document holding non-finite values stays parseable
  // (values come back as JSON null, never as a bogus literal like 1e999).
  Json doc = Json::object();
  doc["nan"] = nan;
  doc["pos_inf"] = inf;
  doc["neg_inf"] = -inf;
  doc["finite"] = 2.5;
  const Json back = Json::parse(doc.dump());
  EXPECT_TRUE(back.find("nan")->is_null());
  EXPECT_TRUE(back.find("pos_inf")->is_null());
  EXPECT_TRUE(back.find("neg_inf")->is_null());
  EXPECT_DOUBLE_EQ(back.find("finite")->as_double(), 2.5);
  EXPECT_EQ(Json::parse(back.dump()).dump(), back.dump());
}

TEST(LatencyHistogram, PlacesSamplesInPowerOfTwoBuckets) {
  rdo::obs::LatencyHistogram h;
  h.observe(2e-6);    // 2 us -> bucket 1
  h.observe(1e-3);    // 1000 us -> bucket 9
  h.observe(1.0);     // 1e6 us -> bucket 19
  h.observe(1e-7);    // sub-microsecond clamps to bucket 0
  h.observe(1e9);     // beyond the range clamps to the last bucket
  const Json lat = h.json();
  EXPECT_EQ(lat.find("count")->as_int(), 5);
  EXPECT_DOUBLE_EQ(lat.find("min_seconds")->as_double(), 1e-7);
  EXPECT_DOUBLE_EQ(lat.find("max_seconds")->as_double(), 1e9);
  const Json* buckets = lat.find("bucket_counts");
  ASSERT_NE(buckets, nullptr);
  ASSERT_EQ(buckets->size(),
            static_cast<std::size_t>(rdo::obs::kLatencyBuckets));
  std::int64_t total = 0;
  for (std::size_t i = 0; i < buckets->size(); ++i) {
    total += buckets->at(i).as_int();
  }
  EXPECT_EQ(total, 5);
  EXPECT_EQ(buckets->at(0).as_int(), 1);
  EXPECT_EQ(buckets->at(1).as_int(), 1);
  EXPECT_EQ(buckets->at(9).as_int(), 1);
  EXPECT_EQ(buckets->at(19).as_int(), 1);
  EXPECT_EQ(buckets->at(rdo::obs::kLatencyBuckets - 1).as_int(), 1);

  // A registry histogram places the same samples in the same buckets.
  rdo::obs::MetricsRegistry m;
  for (const double s : {2e-6, 1e-3, 1.0, 1e-7, 1e9}) {
    m.histogram("bench_lat_seconds").observe(s);
  }
  EXPECT_EQ(m.histogram("bench_lat_seconds").snapshot().buckets, h.buckets);
}

TEST(LatencyHistogram, QuantilesAreBucketMidpointsClampedToRange) {
  // All mass in one bucket: every quantile collapses to the observed
  // value because the midpoint is clamped to [min, max].
  rdo::obs::LatencyHistogram tight;
  for (int i = 0; i < 100; ++i) tight.observe(1e-3);
  EXPECT_DOUBLE_EQ(tight.quantile(0.50), 1e-3);
  EXPECT_DOUBLE_EQ(tight.quantile(0.95), 1e-3);
  EXPECT_DOUBLE_EQ(tight.quantile(0.99), 1e-3);
  const Json tight_doc = tight.json();
  EXPECT_DOUBLE_EQ(tight_doc.find("p99_seconds")->as_double(), 1e-3);

  // Spread mass: p50 lands on the middle sample's bucket midpoint,
  // p95/p99 on the top bucket; ordering and bounds must hold.
  rdo::obs::LatencyHistogram spread;
  spread.observe(2e-6);
  spread.observe(1e-3);
  spread.observe(1.0);
  const double p50 = spread.quantile(0.50);
  const double p95 = spread.quantile(0.95);
  const double p99 = spread.quantile(0.99);
  EXPECT_DOUBLE_EQ(p50, std::exp2(9.5) * 1e-6);   // bucket 9 midpoint
  EXPECT_DOUBLE_EQ(p95, std::exp2(19.5) * 1e-6);  // bucket 19 midpoint
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_GE(p50, spread.min_seconds);
  EXPECT_LE(p99, spread.max_seconds);
}

TEST(BenchReport, HistogramsAreVolatileButValidated) {
  rdo::obs::BenchReport rep("unit_test", 1);
  rep.metrics().histogram("bench_trial_seconds").observe(0.25);
  const Json doc = rep.document();
  std::string err;
  EXPECT_TRUE(rdo::obs::validate_bench_document(doc, &err)) << err;
  ASSERT_NE(doc.find("histograms"), nullptr);
  EXPECT_NE(doc.find("histograms")->find("bench_trial_seconds"), nullptr);
  // Histograms are wall-clock derived, so they are excluded from the
  // deterministic sections.
  EXPECT_EQ(rep.deterministic_dump().find("histograms"), std::string::npos);

  // The validator still accepts v1 documents (no histograms required)...
  Json v1 = rep.document();
  v1["schema_version"] = std::int64_t{1};
  EXPECT_TRUE(rdo::obs::validate_bench_document(v1, &err)) << err;
  // ...but a v2 document with a malformed histograms section fails.
  Json bad = rep.document();
  bad["histograms"] = 5;
  EXPECT_FALSE(rdo::obs::validate_bench_document(bad, &err));
  Json bad_entry = rep.document();
  bad_entry["histograms"]["bench_trial_seconds"]["bucket_counts"] = "nope";
  EXPECT_FALSE(rdo::obs::validate_bench_document(bad_entry, &err));
}

TEST(BenchReport, WriteSurfacesUnusableBenchDirWithPath) {
  // RDO_BENCH_DIR that cannot be created (a path component is a regular
  // file): write() must throw with the offending path in the message,
  // not silently write into the current directory.
  namespace fs = std::filesystem;
  const fs::path blocker =
      fs::temp_directory_path() / "rdo_bench_dir_blocker";
  { std::ofstream f(blocker); }
  const std::string dir = (blocker / "sub").string();
  const char* old = rdo::obs::env_knob("RDO_BENCH_DIR");
  const std::string saved = old != nullptr ? old : "";
  ::setenv("RDO_BENCH_DIR", dir.c_str(), 1);

  rdo::obs::BenchReport rep("unit_test_dir_error", 1);
  try {
    (void)rep.write();
    ADD_FAILURE() << "write() succeeded into an uncreatable RDO_BENCH_DIR";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(dir), std::string::npos)
        << e.what();
  }

  if (old != nullptr) {
    ::setenv("RDO_BENCH_DIR", saved.c_str(), 1);
  } else {
    ::unsetenv("RDO_BENCH_DIR");
  }
  fs::remove(blocker);
}
