// The BENCH regression gate (obs/diff.h): deterministic sections are
// compared exactly or within an explicit tolerance, volatile sections
// are informational only, and failures never get tolerance.
#include <gtest/gtest.h>

#include <string>

#include "obs/diff.h"
#include "obs/json.h"

using rdo::obs::DiffOptions;
using rdo::obs::DiffReport;
using rdo::obs::Json;
using rdo::obs::diff_bench_documents;

namespace {

/// A minimal but schema-shaped BENCH document.
Json base_doc() {
  return Json::parse(R"({
    "schema_version": 2,
    "name": "probe",
    "env": {"threads": 4, "seed": 7},
    "timing": {"total_seconds": 1.5},
    "pool": {"chunks_executed": 100},
    "histograms": {},
    "counters": {"cycles": 3, "device_pulses": 1200},
    "gauges": {"accuracy": 0.912, "read_power_ratio": 1.31},
    "results": {"per_cycle": [0.9, 0.91, 0.92], "config": {"m": 8}},
    "failures": []
  })");
}

}  // namespace

TEST(BenchDiff, SelfCompareIsClean) {
  const Json doc = base_doc();
  const DiffReport rep = diff_bench_documents(doc, doc, DiffOptions{});
  EXPECT_TRUE(rep.ok());
  EXPECT_TRUE(rep.regressions.empty());
  EXPECT_TRUE(rep.infos.empty());
}

TEST(BenchDiff, CountersAreExactUnlessGivenTolerance) {
  const Json a = base_doc();
  Json b = base_doc();
  b["counters"]["device_pulses"] = std::int64_t{1212};  // +1%
  EXPECT_FALSE(diff_bench_documents(a, b, DiffOptions{}).ok());
  DiffOptions loose;
  loose.counter_rel_tol = 0.05;
  const DiffReport rep = diff_bench_documents(a, b, loose);
  EXPECT_TRUE(rep.ok());
  EXPECT_FALSE(rep.infos.empty());  // tolerated drift is still reported
  EXPECT_EQ(rep.tolerated, 1u);
  loose.counter_rel_tol = 0.001;
  EXPECT_FALSE(diff_bench_documents(a, b, loose).ok());
}

TEST(BenchDiff, GaugesHonourAbsoluteAndRelativeTolerance) {
  const Json a = base_doc();
  Json b = base_doc();
  b["gauges"]["accuracy"] = 0.902;  // -0.01 absolute
  EXPECT_FALSE(diff_bench_documents(a, b, DiffOptions{}).ok());
  DiffOptions abs;
  abs.abs_tol = 0.02;
  EXPECT_TRUE(diff_bench_documents(a, b, abs).ok());
  DiffOptions rel;
  rel.rel_tol = 0.02;
  EXPECT_TRUE(diff_bench_documents(a, b, rel).ok());
  rel.rel_tol = 0.001;
  EXPECT_FALSE(diff_bench_documents(a, b, rel).ok());
}

TEST(BenchDiff, ResultsAreComparedDeeply) {
  const Json a = base_doc();
  Json nested = base_doc();
  nested["results"]["config"]["m"] = std::int64_t{16};
  EXPECT_FALSE(diff_bench_documents(a, nested, DiffOptions{}).ok());

  Json shorter = base_doc();
  shorter["results"]["per_cycle"] = Json::parse("[0.9, 0.91]");
  EXPECT_FALSE(diff_bench_documents(a, shorter, DiffOptions{}).ok());

  Json drifted = base_doc();
  drifted["results"]["per_cycle"] = Json::parse("[0.9, 0.91, 0.925]");
  DiffOptions tol;
  tol.abs_tol = 0.01;
  EXPECT_TRUE(diff_bench_documents(a, drifted, tol).ok());

  Json retyped = base_doc();
  retyped["results"]["config"] = "m=8";  // object -> string
  EXPECT_FALSE(diff_bench_documents(a, retyped, DiffOptions{}).ok());
}

TEST(BenchDiff, MissingAndExtraMembersRegress) {
  const Json a = base_doc();
  Json missing = base_doc();  // drop results.config
  missing["results"] = Json::parse(R"({"per_cycle": [0.9, 0.91, 0.92]})");
  EXPECT_FALSE(diff_bench_documents(a, missing, DiffOptions{}).ok());
  // Extra member in current is also a divergence.
  Json extra = base_doc();
  extra["results"]["surprise"] = 1;
  EXPECT_FALSE(diff_bench_documents(a, extra, DiffOptions{}).ok());
}

TEST(BenchDiff, FailuresNeverGetTolerance) {
  const Json a = base_doc();
  Json b = base_doc();
  b["failures"] = Json::parse(R"([{"where": "grid", "what": "boom"}])");
  DiffOptions very_loose;
  very_loose.abs_tol = 1e9;
  very_loose.rel_tol = 1e9;
  very_loose.counter_rel_tol = 1e9;
  const DiffReport rep = diff_bench_documents(a, b, very_loose);
  EXPECT_FALSE(rep.ok());
}

TEST(BenchDiff, DifferentHarnessesOrMissingSectionsRegress) {
  const Json a = base_doc();
  Json renamed = base_doc();
  renamed["name"] = "other_harness";
  EXPECT_FALSE(diff_bench_documents(a, renamed, DiffOptions{}).ok());

  const Json truncated = Json::parse(R"({"schema_version": 2,
                                         "name": "probe"})");
  EXPECT_FALSE(diff_bench_documents(a, truncated, DiffOptions{}).ok());
}

TEST(BenchDiff, VolatileSectionsAreInformationalOnly) {
  const Json a = base_doc();
  Json b = base_doc();
  b["timing"]["total_seconds"] = 99.0;
  b["pool"]["chunks_executed"] = std::int64_t{4};
  b["env"]["threads"] = std::int64_t{16};
  b["schema_version"] = std::int64_t{1};
  const DiffReport rep = diff_bench_documents(a, b, DiffOptions{});
  EXPECT_TRUE(rep.ok()) << (rep.regressions.empty()
                                ? ""
                                : rep.regressions.front());
  EXPECT_FALSE(rep.infos.empty());
  // Volatile notes are not drift accepted within tolerance.
  EXPECT_EQ(rep.tolerated, 0u);
}
