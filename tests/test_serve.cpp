// Deployment-as-a-service: protocol parsing, the plan LRU, backend
// pooling, admission control and end-to-end parity of served evaluate()
// against a directly driven ExecutionBackend.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/backend.h"
#include "core/plan.h"
#include "nn/dense.h"
#include "nn/sequential.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "serve/protocol.h"
#include "serve/server.h"

using namespace rdo;
using obs::Json;

namespace {

/// Small deterministic service fixture: one Dense net, 20 train / 10
/// test samples, a cheap LUT protocol so per-request compilation stays
/// fast.
struct ServeFixture {
  std::unique_ptr<nn::Sequential> net;
  nn::Tensor train_images{{20, 6}};
  std::vector<int> train_labels;
  nn::Tensor test_images{{10, 6}};
  std::vector<int> test_labels;
  core::DeployOptions base;

  ServeFixture() {
    nn::Rng rng(5);
    net = std::make_unique<nn::Sequential>();
    net->emplace<nn::Dense>(6, 4, rng);
    for (std::int64_t i = 0; i < train_images.size(); ++i) {
      train_images[i] = 0.15f * static_cast<float>(i % 11) - 0.7f;
    }
    for (int i = 0; i < 20; ++i) train_labels.push_back(i % 4);
    for (std::int64_t i = 0; i < test_images.size(); ++i) {
      test_images[i] = 0.15f * static_cast<float>((i + 3) % 11) - 0.7f;
    }
    for (int i = 0; i < 10; ++i) test_labels.push_back((i + 1) % 4);
    base.weight_bits = 4;
    base.offsets.m = 2;
    base.offsets.offset_bits = 4;
    base.lut_k_sets = 2;
    base.lut_j_cycles = 2;
    base.grad_samples = 8;
    base.seed = 5;
  }

  [[nodiscard]] nn::DataView train() const {
    return {&train_images, &train_labels};
  }
  [[nodiscard]] nn::DataView test() const {
    return {&test_images, &test_labels};
  }

  [[nodiscard]] serve::InferenceService make_service(
      serve::ServeConfig cfg = {}) const {
    return {*net, train(), test(), base, cfg};
  }
};

Json reply(serve::InferenceService& svc, const std::string& line) {
  return Json::parse(svc.handle_line(line));
}

void expect_bad_request(const Json& r, const std::string& line) {
  ASSERT_NE(r.find("ok"), nullptr) << line;
  EXPECT_FALSE(r.find("ok")->as_bool()) << line;
  const Json* err = r.find("error");
  ASSERT_NE(err, nullptr) << line;
  EXPECT_EQ(err->find("code")->as_string(), "bad_request") << line;
}

}  // namespace

TEST(Serve, PingEchoesIdAndStatsCountRequests) {
  const ServeFixture f;
  serve::InferenceService svc = f.make_service();

  const Json pong = reply(svc, R"({"id": "a1", "op": "ping"})");
  EXPECT_EQ(pong.find("id")->as_string(), "a1");
  EXPECT_TRUE(pong.find("ok")->as_bool());
  EXPECT_TRUE(pong.find("result")->find("pong")->as_bool());

  const Json stats = reply(svc, R"({"id": 2, "op": "stats"})");
  EXPECT_EQ(stats.find("id")->as_int(), 2);
  const Json* r = stats.find("result");
  EXPECT_EQ(r->find("requests")->as_int(), 2);
  EXPECT_EQ(r->find("ok")->as_int(), 1);  // snapshot before this reply
  EXPECT_EQ(r->find("cached_plans")->as_int(), 0);
  EXPECT_EQ(r->find("pooled_backends")->as_int(), 0);
  EXPECT_GE(r->find("uptime_seconds")->as_double(), 0.0);
  EXPECT_EQ(r->find("plan_hit_rate")->as_double(), 0.0);
  // The nested live-registry snapshot is structurally valid and agrees
  // with the flat counters.
  const Json* metrics = r->find("metrics");
  ASSERT_NE(metrics, nullptr);
  std::string err;
  EXPECT_TRUE(obs::validate_metrics_json(*metrics, &err)) << err;
  EXPECT_EQ(metrics->find("counters")->find("serve_requests")->as_int(), 2);
  EXPECT_EQ(
      metrics->find("gauges")->find("serve_active_requests")->as_double(),
      0.0);
  const Json* hist =
      metrics->find("histograms")->find("serve_request_seconds");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->find("count")->as_int(), 1);  // snapshot mid-request #2
}

TEST(Serve, StatsReflectsKnownRequestAndCacheCounts) {
  const ServeFixture f;
  serve::InferenceService svc = f.make_service();
  const std::string eval_line =
      R"({"op": "evaluate", "data": {"split": "test", "count": 4}})";
  const Json first = reply(svc, eval_line);
  ASSERT_TRUE(first.find("ok")->as_bool());
  const Json second = reply(svc, eval_line);
  ASSERT_TRUE(second.find("ok")->as_bool());
  expect_bad_request(reply(svc, "nope"), "nope");

  const Json stats = reply(svc, R"({"op": "stats"})");
  const Json* r = stats.find("result");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->find("requests")->as_int(), 4);
  EXPECT_EQ(r->find("ok")->as_int(), 2);
  EXPECT_EQ(r->find("bad_request")->as_int(), 1);
  EXPECT_EQ(r->find("plan_hits")->as_int(), 1);
  EXPECT_EQ(r->find("plan_misses")->as_int(), 1);
  EXPECT_EQ(r->find("cached_plans")->as_int(), 1);
  EXPECT_EQ(r->find("pooled_backends")->as_int(), 1);
  EXPECT_EQ(r->find("plan_hit_rate")->as_double(), 0.5);
  EXPECT_EQ(r->find("active")->as_int(), 0);
  EXPECT_EQ(r->find("queued")->as_int(), 0);
  const Json* counters = r->find("metrics")->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->find("serve_backend_creates")->as_int(), 1);
  EXPECT_EQ(counters->find("serve_backend_reuses")->as_int(), 1);
}

TEST(Serve, EvaluateMatchesDirectBackendBitIdentically) {
  const ServeFixture f;
  serve::InferenceService svc = f.make_service();

  const Json r = reply(svc,
                       R"({"id": 1, "op": "evaluate",)"
                       R"( "config": {"scheme": "VAWO*", "sigma": 0.6},)"
                       R"( "cycle": 2, "data": {"split": "test"}})");
  ASSERT_TRUE(r.find("ok")->as_bool()) << r.dump();
  const Json* res = r.find("result");
  EXPECT_EQ(res->find("samples")->as_int(), 10);
  EXPECT_EQ(res->find("cycle")->as_int(), 2);
  EXPECT_FALSE(res->find("cached_plan")->as_bool());

  // Drive the pipeline directly with the same effective options.
  core::DeployOptions opt = f.base;
  opt.scheme = core::Scheme::VAWOStar;
  opt.variation.sigma = 0.6;
  const core::DeploymentPlan plan = core::compile_plan(*f.net, opt, f.train());
  core::EffectiveWeightBackend backend(plan, *f.net);
  backend.program_cycle(2);
  backend.tune(f.train());
  const float direct = backend.evaluate(f.test(), 64);

  EXPECT_EQ(res->find("accuracy")->as_double(),
            static_cast<double>(direct));

  // Fingerprint on the wire matches plan_fingerprint of the same config.
  const std::uint64_t fp = core::plan_fingerprint(*f.net, opt, f.train());
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(fp));
  EXPECT_EQ(res->find("plan_fingerprint")->as_string(), hex);

  // Same request again: plan LRU hit, pooled backend reused, identical
  // accuracy.
  const Json r2 = reply(svc,
                        R"({"id": 2, "op": "evaluate",)"
                        R"( "config": {"scheme": "VAWO*", "sigma": 0.6},)"
                        R"( "cycle": 2, "data": {"split": "test"}})");
  ASSERT_TRUE(r2.find("ok")->as_bool()) << r2.dump();
  EXPECT_TRUE(r2.find("result")->find("cached_plan")->as_bool());
  EXPECT_EQ(r2.find("result")->find("accuracy")->as_double(),
            r.find("result")->find("accuracy")->as_double());
  const serve::ServeCounters c = svc.counters();
  EXPECT_EQ(c.plan_misses, 1);
  EXPECT_EQ(c.plan_hits, 1);
  EXPECT_EQ(c.backend_creates, 1);
  EXPECT_EQ(c.backend_reuses, 1);
}

TEST(Serve, DiskPlanCacheWarmsAFreshServiceInstance) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "rdo_serve_plan_cache";
  fs::remove_all(dir);
  fs::create_directories(dir);
  ::setenv("RDO_PLAN_CACHE_DIR", dir.string().c_str(), 1);

  const ServeFixture f;
  const std::string line =
      R"({"op": "evaluate", "data": {"split": "test", "count": 4}})";
  {
    serve::InferenceService cold = f.make_service();
    const Json r = reply(cold, line);
    ASSERT_TRUE(r.find("ok")->as_bool()) << r.dump();
    EXPECT_FALSE(r.find("result")->find("plan_from_disk_cache")->as_bool());
  }
  {
    // A fresh service (empty LRU) must warm-start from the on-disk plan:
    // not an LRU hit, but loaded instead of recompiled.
    serve::InferenceService warm = f.make_service();
    const Json r = reply(warm, line);
    ASSERT_TRUE(r.find("ok")->as_bool()) << r.dump();
    EXPECT_FALSE(r.find("result")->find("cached_plan")->as_bool());
    EXPECT_TRUE(r.find("result")->find("plan_from_disk_cache")->as_bool());
  }
  ::unsetenv("RDO_PLAN_CACHE_DIR");
  fs::remove_all(dir);
}

TEST(Serve, InlineDataMatchesSplitSlice) {
  const ServeFixture f;
  serve::InferenceService svc = f.make_service();

  // First 6 test samples shipped inline.
  std::ostringstream req;
  req << R"({"id": 1, "op": "evaluate", "data": {"shape": [6, 6],)"
      << R"( "images": [)";
  for (std::int64_t i = 0; i < 36; ++i) {
    if (i > 0) req << ", ";
    req << static_cast<double>(f.test_images[i]);
  }
  req << R"(], "labels": [)";
  for (int i = 0; i < 6; ++i) {
    if (i > 0) req << ", ";
    req << f.test_labels[static_cast<std::size_t>(i)];
  }
  req << "]}}";
  const Json inline_r = reply(svc, req.str());
  ASSERT_TRUE(inline_r.find("ok")->as_bool()) << inline_r.dump();

  const Json slice_r = reply(
      svc,
      R"({"id": 2, "op": "evaluate",)"
      R"( "data": {"split": "test", "offset": 0, "count": 6}})");
  ASSERT_TRUE(slice_r.find("ok")->as_bool()) << slice_r.dump();

  EXPECT_EQ(inline_r.find("result")->find("accuracy")->as_double(),
            slice_r.find("result")->find("accuracy")->as_double());
  EXPECT_EQ(inline_r.find("result")->find("samples")->as_int(), 6);
}

TEST(Serve, LruEvictsLeastRecentlyUsedPlan) {
  const ServeFixture f;
  serve::ServeConfig cfg;
  cfg.max_plans = 2;
  serve::InferenceService svc = f.make_service(cfg);

  const auto eval_sigma = [&](const char* sigma) {
    const Json r = reply(
        svc, std::string(R"({"id": 1, "op": "evaluate", "config": )") +
                 R"({"sigma": )" + sigma +
                 R"(}, "data": {"split": "test", "count": 4}})");
    ASSERT_TRUE(r.find("ok")->as_bool()) << r.dump();
  };
  eval_sigma("0.3");
  eval_sigma("0.5");
  eval_sigma("0.7");  // evicts the 0.3 plan
  EXPECT_EQ(svc.cached_plans(), 2u);
  serve::ServeCounters c = svc.counters();
  EXPECT_EQ(c.plan_misses, 3);
  EXPECT_EQ(c.plan_evictions, 1);

  eval_sigma("0.5");  // still hot: most recently used before 0.7
  EXPECT_EQ(svc.counters().plan_hits, 1);
  eval_sigma("0.3");  // was evicted: recompiled
  c = svc.counters();
  EXPECT_EQ(c.plan_misses, 4);
  EXPECT_EQ(c.plan_evictions, 2);
  EXPECT_EQ(svc.cached_plans(), 2u);
}

TEST(Serve, AdmissionShedsWhenActiveAndQueueAreFull) {
  const ServeFixture f;
  serve::ServeConfig cfg;
  cfg.max_active = 1;
  cfg.max_queued = 0;
  serve::InferenceService svc = f.make_service(cfg);

  std::optional<serve::AdmissionTicket> holder;
  holder.emplace(svc.gate());
  ASSERT_TRUE(holder->admitted());

  const Json r = reply(svc, R"({"id": 9, "op": "evaluate"})");
  EXPECT_FALSE(r.find("ok")->as_bool());
  EXPECT_EQ(r.find("error")->find("code")->as_string(), "overloaded");
  EXPECT_EQ(r.find("id")->as_int(), 9);
  EXPECT_EQ(svc.counters().overloaded, 1);

  // Ping and stats are not admission-gated: the control plane stays
  // responsive under load.
  const Json ping = reply(svc, R"({"op": "ping"})");
  EXPECT_TRUE(ping.find("ok")->as_bool());

  holder.reset();
  const Json ok = reply(svc, R"({"id": 10, "op": "evaluate"})");
  EXPECT_TRUE(ok.find("ok")->as_bool()) << ok.dump();
}

TEST(Serve, QueuedRequestProceedsWhenSlotFrees) {
  const ServeFixture f;
  serve::ServeConfig cfg;
  cfg.max_active = 1;
  cfg.max_queued = 1;
  serve::InferenceService svc = f.make_service(cfg);

  std::optional<serve::AdmissionTicket> holder;
  holder.emplace(svc.gate());
  ASSERT_TRUE(holder->admitted());

  std::string queued_response;
  std::thread waiter([&] {
    queued_response = svc.handle_line(R"({"id": "q", "op": "evaluate"})");
  });
  // Wait until the request is parked in the bounded queue, then free the
  // slot it is waiting for.
  while (svc.gate().queued() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  holder.reset();
  waiter.join();

  const Json r = Json::parse(queued_response);
  EXPECT_TRUE(r.find("ok")->as_bool()) << queued_response;
  EXPECT_EQ(svc.counters().overloaded, 0);
  EXPECT_EQ(svc.gate().active(), 0);
  EXPECT_EQ(svc.gate().queued(), 0);
}

TEST(Serve, MalformedRequestsGetTypedBadRequestErrors) {
  const ServeFixture f;
  serve::InferenceService svc = f.make_service();
  const std::vector<std::string> bad = {
      "not json at all",
      "[1, 2, 3]",
      R"({"op": "reboot"})",
      R"({"op": "ping", "extra": 1})",
      R"({"id": {"nested": true}, "op": "ping"})",
      R"({"op": "evaluate", "config": {"voltage": 5}})",
      R"({"op": "evaluate", "config": {"scheme": "bogus"}})",
      R"({"op": "evaluate", "config": {"sigma": -1}})",
      R"({"op": "evaluate", "config": {"cell": "MLC2", "weight_bits": 3}})",
      R"({"op": "evaluate", "data": {"split": "validation"}})",
      R"({"op": "evaluate", "data": {"split": "test", "offset": 99}})",
      R"({"op": "evaluate", "data": {"split": "test", "count": 99}})",
      R"({"op": "evaluate", "data": {"shape": [2, 6], "images": [0.0],)"
      R"( "labels": [0, 1]}})",
      // A finite value beyond float range has no float to convert to.
      R"({"op": "evaluate", "data": {"shape": [1, 2], "images": [0.5, 1e300],)"
      R"( "labels": [0]}})",
      R"({"op": "evaluate", "data": {"shape": [1, 2], "images": [-1e39, 0.5],)"
      R"( "labels": [0]}})",
      R"({"op": "evaluate", "batch": 0})",
      R"({"op": "evaluate", "config": {"opt_passes": "bogus_pass"}})",
      R"({"op": "evaluate", "config": {"opt_passes": 3}})",
      R"({"op": "evaluate", "config": )"
      R"({"opt_passes": "tune_group_size,tune_group_size"}})",
  };
  for (const std::string& line : bad) {
    expect_bad_request(reply(svc, line), line);
  }
  const serve::ServeCounters c = svc.counters();
  EXPECT_EQ(c.bad_request, static_cast<std::int64_t>(bad.size()));
  EXPECT_EQ(c.ok, 0);
  // Nothing malformed ever reached the pipeline.
  EXPECT_EQ(c.plan_misses, 0);
  EXPECT_EQ(svc.cached_plans(), 0u);
}

TEST(Serve, OptPassesOverrideCompilesDistinctPlan) {
  const ServeFixture f;
  serve::InferenceService svc = f.make_service();
  const Json plain = reply(
      svc, R"({"op": "evaluate", "data": {"split": "test", "count": 4}})");
  ASSERT_TRUE(plain.find("ok")->as_bool()) << plain.dump();
  const Json opt = reply(
      svc,
      R"({"op": "evaluate", "config": {"opt_passes": )"
      R"("color_offset_registers"}, "data": {"split": "test", "count": 4}})");
  ASSERT_TRUE(opt.find("ok")->as_bool()) << opt.dump();
  // The pass list is part of the plan cache key: the override compiled
  // (and cached) a second, distinct plan.
  EXPECT_EQ(svc.cached_plans(), 2u);
  EXPECT_EQ(svc.counters().plan_misses, 2);
}

TEST(Serve, BackendPoolIsKeyedByCycle) {
  const ServeFixture f;
  serve::InferenceService svc = f.make_service();
  const auto eval_cycle = [&](const char* cycle) {
    const Json r = reply(
        svc, std::string(R"({"op": "evaluate", "cycle": )") + cycle + "}");
    ASSERT_TRUE(r.find("ok")->as_bool()) << r.dump();
  };
  eval_cycle("0");
  eval_cycle("0");  // same (plan, cycle): pooled backend, no reprogram
  eval_cycle("1");  // different cycle: distinct programmed state
  const serve::ServeCounters c = svc.counters();
  EXPECT_EQ(c.backend_creates, 2);
  EXPECT_EQ(c.backend_reuses, 1);
  EXPECT_EQ(c.plan_misses, 1);
  EXPECT_EQ(c.plan_hits, 2);
}

TEST(Serve, LatencyAndCountersLandInBenchReport) {
  const ServeFixture f;
  serve::InferenceService svc = f.make_service();
  const Json ev = reply(svc, R"({"op": "evaluate"})");
  ASSERT_TRUE(ev.find("ok")->as_bool()) << ev.dump();
  const Json ping = reply(svc, R"({"op": "ping"})");
  ASSERT_TRUE(ping.find("ok")->as_bool());
  expect_bad_request(reply(svc, "nope"), "nope");

  // Report-time fold: the live registry merges into the report's
  // registry once, instead of the service writing the report per event.
  obs::BenchReport rep("serve_probe", 1);
  rep.metrics().merge(svc.metrics());
  const Json doc = rep.document();

  const Json* counters = doc.find("counters");
  EXPECT_EQ(counters->find("serve_requests")->as_int(), 3);
  EXPECT_EQ(counters->find("serve_ok")->as_int(), 2);
  EXPECT_EQ(counters->find("serve_bad_request")->as_int(), 1);
  EXPECT_EQ(counters->find("serve_plan_misses")->as_int(), 1);
  const Json* lat = doc.find("histograms")->find("serve_request_seconds");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->find("count")->as_int(), 3);
  std::string err;
  EXPECT_TRUE(obs::validate_bench_document(doc, &err)) << err;
}

TEST(Serve, IdenticalTrafficFoldsToIdenticalDeterministicReports) {
  // Everything a service folds into the deterministic BENCH sections
  // is a function of the request lines, never of the clock.
  const ServeFixture f;
  const std::vector<std::string> lines = {
      R"({"id": 1, "op": "ping"})",
      R"({"id": 2, "op": "evaluate", "data": {"split": "test", "count": 4}})",
      R"({"id": 3, "op": "evaluate", "data": {"split": "test", "count": 4}})",
      "this is not json",
      R"({"id": 5, "op": "stats"})",
  };
  std::vector<std::string> dumps;
  for (int run = 0; run < 2; ++run) {
    serve::InferenceService svc = f.make_service();
    for (const std::string& line : lines) (void)svc.handle_line(line);
    // Later in the second run, so any clock reading would differ.
    if (run == 1) std::this_thread::sleep_for(std::chrono::milliseconds(5));
    (void)svc.handle_line(R"({"op": "stats"})");
    obs::BenchReport rep("serve_probe", 1);
    rep.metrics().merge(svc.metrics());
    dumps.push_back(rep.deterministic_dump());
  }
  EXPECT_EQ(dumps[0], dumps[1]);
  const Json doc = Json::parse(dumps[0]);
  EXPECT_EQ(doc.find("counters")->find("serve_requests")->as_int(), 6);
  EXPECT_NE(doc.find("gauges")->find("serve_cached_plans"), nullptr);
}

TEST(Serve, InlineValueAtFloatRangeEdgeIsAccepted) {
  const ServeFixture f;
  const serve::ServeRequest req = serve::parse_request(
      Json::parse(R"({"op": "evaluate", "data": {"shape": [1, 2],)"
                  R"( "images": [0.5, 3.4e38], "labels": [0]}})"),
      f.base);
  EXPECT_EQ(req.data.inline_images[1], 3.4e38f);
}

#ifdef RDO_SERVE_BIN
#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iterator>

namespace {

/// Line-oriented client over one TCP connection.
class TcpClient {
 public:
  bool connect_to(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)) == 0;
  }
  ~TcpClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  std::string request(const std::string& line) {
    const std::string out = line + "\n";
    if (::write(fd_, out.data(), out.size()) !=
        static_cast<ssize_t>(out.size())) {
      return {};
    }
    std::string in;
    char c = 0;
    while (::read(fd_, &c, 1) == 1 && c != '\n') in += c;
    return in;
  }

 private:
  int fd_ = -1;
};

}  // namespace

// End-to-end over the real binary and a real socket: spawn rdo_serve on
// an ephemeral port, parse the advertised port, drive a ping + two
// evaluates + a malformed line, and let --max-requests end the process.
TEST(ServeTcp, EndToEndOverRealSocket) {
  const std::string cmd =
      std::string("'") + RDO_SERVE_BIN +
      "' --port 0 --epochs 0 --train-per-class 3 --test-per-class 3"
      " --max-requests 4 2>/dev/null";
  std::FILE* proc = ::popen(cmd.c_str(), "r");
  ASSERT_NE(proc, nullptr);

  // First stdout line advertises the bound port.
  char line[256] = {0};
  ASSERT_NE(std::fgets(line, sizeof(line), proc), nullptr);
  int port = 0;
  ASSERT_EQ(std::sscanf(line, "rdo_serve: listening on 127.0.0.1:%d", &port),
            1)
      << line;
  ASSERT_GT(port, 0);

  TcpClient client;
  ASSERT_TRUE(client.connect_to(port));
  const Json pong = Json::parse(client.request(R"({"op": "ping"})"));
  EXPECT_TRUE(pong.find("ok")->as_bool());

  const std::string eval_line =
      R"({"op": "evaluate", "config": {"sigma": 0.4},)"
      R"( "data": {"split": "test", "count": 6}})";
  const Json a = Json::parse(client.request(eval_line));
  ASSERT_TRUE(a.find("ok")->as_bool()) << a.dump();
  const Json b = Json::parse(client.request(eval_line));
  ASSERT_TRUE(b.find("ok")->as_bool()) << b.dump();
  // Deterministic service: the repeated request is served from the hot
  // plan with the identical result.
  EXPECT_TRUE(b.find("result")->find("cached_plan")->as_bool());
  EXPECT_EQ(a.find("result")->find("accuracy")->as_double(),
            b.find("result")->find("accuracy")->as_double());

  const Json bad = Json::parse(client.request("garbage"));
  EXPECT_FALSE(bad.find("ok")->as_bool());
  EXPECT_EQ(bad.find("error")->find("code")->as_string(), "bad_request");

  EXPECT_EQ(::pclose(proc), 0);
}

// Graceful shutdown end-to-end: SIGTERM must exit 0 after draining, the
// RDO_TRACE file must be flushed and valid (not lost to the signal), and
// stderr must carry the shutdown, slow-request and final-snapshot log
// lines. `echo $$; exec env ... bin` makes the popen'd shell print its
// own PID and then *become* the server, so line 1 is the PID to kill.
TEST(ServeTcp, SigtermDrainsFlushesTraceAndSnapshot) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "rdo_serve_sigterm";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string trace = (dir / "trace.json").string();
  const std::string errfile = (dir / "stderr.log").string();
  const std::string cmd = "echo $$; exec env RDO_TRACE='" + trace +
                          "' RDO_METRICS_INTERVAL_S=0.1"
                          " RDO_SLOW_REQUEST_MS=0 '" +
                          RDO_SERVE_BIN +
                          "' --port 0 --epochs 0 --train-per-class 3"
                          " --test-per-class 3 2>'" +
                          errfile + "'";
  std::FILE* proc = ::popen(cmd.c_str(), "r");
  ASSERT_NE(proc, nullptr);

  char line[256] = {0};
  ASSERT_NE(std::fgets(line, sizeof(line), proc), nullptr);
  int pid = 0;
  ASSERT_EQ(std::sscanf(line, "%d", &pid), 1) << line;
  ASSERT_GT(pid, 0);
  ASSERT_NE(std::fgets(line, sizeof(line), proc), nullptr);
  int port = 0;
  ASSERT_EQ(std::sscanf(line, "rdo_serve: listening on 127.0.0.1:%d", &port),
            1)
      << line;

  {
    TcpClient client;
    ASSERT_TRUE(client.connect_to(port));
    const Json pong = Json::parse(client.request(R"({"op": "ping"})"));
    EXPECT_TRUE(pong.find("ok")->as_bool());
    const Json stats = Json::parse(client.request(R"({"op": "stats"})"));
    EXPECT_TRUE(stats.find("ok")->as_bool());
    EXPECT_EQ(stats.find("result")->find("requests")->as_int(), 2);
  }
  // Give the periodic dumper (0.1 s interval) time to fire at least once,
  // then interrupt the accept() wait.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  EXPECT_EQ(::pclose(proc), 0);  // graceful: drained and exited 0

  std::string err;
  const Json doc = obs::read_json_file(trace);
  EXPECT_TRUE(obs::validate_trace_document(doc, &err)) << err;

  std::ifstream errs(errfile);
  const std::string stderr_text((std::istreambuf_iterator<char>(errs)),
                                std::istreambuf_iterator<char>());
  EXPECT_NE(stderr_text.find("shutdown signal received"), std::string::npos)
      << stderr_text;
  EXPECT_NE(stderr_text.find("final metrics snapshot"), std::string::npos)
      << stderr_text;
  EXPECT_NE(stderr_text.find("metrics dump"), std::string::npos)
      << stderr_text;
  EXPECT_NE(stderr_text.find("slow request"), std::string::npos)
      << stderr_text;
  fs::remove_all(dir);
}
#endif  // RDO_SERVE_BIN
