// Repository benchmark runner: runs one workload through the public API
// and writes its raw measurements as JSON. run.py builds this file,
// prepares the model cache, runs it once per workload and turns the raw
// file into the reported metrics. See README.md in this directory.
//
//   rdo_perfbench prepare --cache DIR
//   rdo_perfbench run --workload sweep_pwt|sweep_vawo|serve_mix --seed N
//                     --seconds S --trace 0|1 --cache DIR --out FILE
//
// Every run is one process with one caller thread on a 2-thread nn pool.
// Workloads are closed loops: the next op is issued when the previous one
// returns. The data and a fixed prefix of ops, which the timed loop
// always finishes and over which accuracy_pct is taken, are the same for
// every --seed; the seed drives the ops after that prefix (the cycles of
// later sweep rounds, the later serve request lines).
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/backend.h"
#include "core/opt/pipeline.h"
#include "core/plan.h"
#include "data/synthetic.h"
#include "models/lenet.h"
#include "models/resnet.h"
#include "nn/matrix_op.h"
#include "nn/optimizer.h"
#include "nn/parallel.h"
#include "nn/sequential.h"
#include "nn/serialize.h"
#include "nn/trainer.h"
#include "obs/json.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "sim/device_backend.h"

namespace {

using rdo::obs::Json;
using Clock = std::chrono::steady_clock;
namespace core = rdo::core;
namespace nn = rdo::nn;

constexpr int kPoolThreads = 2;
constexpr int kSetupRepeats = 3;
constexpr double kSigmaStar = 0.3;  // calibrated sigma* (bench/common.h)

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
double ms_since(Clock::time_point a) {
  return 1e3 * seconds_between(a, Clock::now());
}

[[noreturn]] void fail(const std::string& msg) {
  throw std::runtime_error(msg);
}

// ---------------------------------------------------------------------
// In-memory spans around the public calls (traced runs only).

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {
    if (on_) spans_.reserve(1 << 16);
  }
  [[nodiscard]] bool on() const { return on_; }

  /// Opens a span; ops with a negative id (warm-up, re-runs) are not
  /// traced.
  int open(const char* name, std::int64_t op) {
    if (!on_ || op < 0) return 0;
    const auto a = Clock::now();
    spans_.push_back({current_, op, name, since_epoch(a), 0.0});
    current_ = static_cast<int>(spans_.size());
    book_s_ += seconds_between(a, Clock::now());
    return current_;
  }
  void close(int id) {
    if (!on_ || id == 0) return;
    const auto a = Clock::now();
    Span& s = spans_[static_cast<std::size_t>(id - 1)];
    s.t1 = since_epoch(a);
    current_ = s.parent;
    book_s_ += seconds_between(a, Clock::now());
  }
  /// Time spent inside open()/close() themselves.
  [[nodiscard]] double bookkeeping_s() const { return book_s_; }

  [[nodiscard]] Json to_json() const {
    Json arr = Json::array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      Json j = Json::object();
      j["id"] = static_cast<std::int64_t>(i + 1);
      j["parent"] = s.parent;
      j["op"] = s.op;
      j["name"] = s.name;
      j["start_us"] = s.t0 * 1e6;
      j["end_us"] = s.t1 * 1e6;
      arr.push_back(std::move(j));
    }
    return arr;
  }

 private:
  struct Span {
    int parent;
    std::int64_t op;
    const char* name;
    double t0, t1;
  };
  [[nodiscard]] double since_epoch(Clock::time_point t) const {
    return seconds_between(epoch_, t);
  }
  bool on_;
  std::vector<Span> spans_;
  int current_ = 0;
  double book_s_ = 0.0;
  Clock::time_point epoch_ = Clock::now();
};

class Span {
 public:
  Span(Tracer& t, const char* name, std::int64_t op)
      : t_(t), id_(t.open(name, op)) {}
  ~Span() { t_.close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& t_;
  int id_;
};

// ---------------------------------------------------------------------
// Models, data and the model cache.

enum class Model { LeNet, ResNet };

const char* model_name(Model m) {
  return m == Model::LeNet ? "lenet" : "resnet";
}

/// The fixed task each model is trained on; the benchmark's data are
/// fixed orders and subsets of this pool.
rdo::data::SyntheticSpec pool_spec(Model m) {
  rdo::data::SyntheticSpec s =
      m == Model::LeNet ? rdo::data::mnist_like() : rdo::data::cifar_like();
  s.train_per_class = m == Model::LeNet ? 100 : 70;
  s.test_per_class = m == Model::LeNet ? 30 : 25;
  s.noise = 0.25;
  return s;
}

std::unique_ptr<nn::Sequential> blank_model(Model m) {
  if (m == Model::LeNet) {
    nn::Rng rng(31);
    return rdo::models::make_lenet({}, rng);
  }
  nn::Rng rng(41);
  rdo::models::ResNetConfig cfg;
  cfg.base_channels = 8;
  cfg.blocks_per_stage = 1;
  return rdo::models::make_resnet(cfg, rng);
}

std::string model_path(const std::string& cache, Model m) {
  return cache + "/" + model_name(m) + ".bin";
}

/// Train both models (the bench/ recipes) into the cache unless there.
void prepare_models(const std::string& cache) {
  std::filesystem::create_directories(cache);
  for (Model m : {Model::LeNet, Model::ResNet}) {
    const std::string path = model_path(cache, m);
    if (std::filesystem::exists(path)) continue;
    const auto t0 = Clock::now();
    const auto pool = rdo::data::make_synthetic(pool_spec(m));
    auto net = blank_model(m);
    nn::Rng rng(m == Model::LeNet ? 32 : 42);
    nn::SGD opt(net->params(), 0.02f, 0.9f, 1e-4f);
    const int epochs = m == Model::LeNet ? 12 : 15;
    for (int e = 0; e < epochs; ++e) {
      if (m == Model::ResNet && e == 10) opt.set_lr(0.005f);
      nn::train_epoch(*net, opt, pool.train(), 32, rng);
    }
    const float acc = nn::evaluate(*net, pool.test(), 64).accuracy;
    if (acc < 0.9f) {
      fail(std::string("trained ") + model_name(m) + " reaches only " +
           std::to_string(acc) + " test accuracy");
    }
    const std::string tmp = path + ".tmp";
    nn::save_params(*net, tmp);
    std::filesystem::rename(tmp, path);
    std::fprintf(stderr, "[perfbench] trained %s in %.1f s (acc %.3f)\n",
                 model_name(m), seconds_between(t0, Clock::now()), acc);
  }
}

struct Split {
  nn::Tensor images;
  std::vector<int> labels;
  [[nodiscard]] nn::DataView view() const { return {&images, &labels}; }
  [[nodiscard]] std::int64_t size() const { return images.dim(0); }
};

Split take(const nn::Tensor& images, const std::vector<int>& labels,
           const std::vector<std::int64_t>& idx) {
  Split s;
  s.images = nn::gather_batch(images, idx);
  for (std::int64_t i : idx) {
    s.labels.push_back(labels[static_cast<std::size_t>(i)]);
  }
  return s;
}

/// `n` distinct indices of [0, total) in seeded order.
std::vector<std::int64_t> seeded_subset(std::int64_t total, std::int64_t n,
                                        nn::Rng rng) {
  std::vector<std::int64_t> idx(static_cast<std::size_t>(total));
  for (std::int64_t i = 0; i < total; ++i) {
    idx[static_cast<std::size_t>(i)] = i;
  }
  std::shuffle(idx.begin(), idx.end(), rng.engine());
  idx.resize(static_cast<std::size_t>(n));
  return idx;
}

struct Loaded {
  Split train, test;
  std::unique_ptr<nn::Sequential> net;
  double generate_s = 0.0;
  double load_s = 0.0;
};

/// The train split is the whole pool in a fixed shuffled order (the
/// order decides which samples calibration, VAWO gradients and PWT see);
/// the test split is the whole pool (LeNet) or a fixed half of it (ResNet,
/// to keep trials short). Neither depends on --seed, so accuracy_pct is
/// the same in every run.
Loaded load(Model m, const std::string& cache) {
  Loaded l;
  auto t0 = Clock::now();
  const auto pool = rdo::data::make_synthetic(pool_spec(m));
  const nn::Rng rng(0x5EED0000ull);
  const std::int64_t n_train = pool.train_images.dim(0);
  const std::int64_t n_test = pool.test_images.dim(0);
  l.train = take(pool.train_images, pool.train_labels,
                 seeded_subset(n_train, n_train, rng.split(1)));
  l.test = take(pool.test_images, pool.test_labels,
                seeded_subset(n_test, m == Model::LeNet ? n_test : n_test / 2,
                              rng.split(2)));
  l.generate_s = seconds_between(t0, Clock::now());
  t0 = Clock::now();
  l.net = blank_model(m);
  const std::string path = model_path(cache, m);
  if (!nn::load_params(*l.net, path)) {
    fail("model cache " + path + " is missing; run `rdo_perfbench prepare`");
  }
  l.load_s = seconds_between(t0, Clock::now());
  return l;
}

/// Multiply-accumulates per image of every crossbar-mapped layer, from
/// the layer shapes (each leaf runs once on a zero input of its shape).
std::int64_t macs_per_image(nn::Layer& layer, nn::Tensor& x) {
  if (auto* seq = dynamic_cast<nn::Sequential*>(&layer)) {
    std::int64_t macs = 0;
    for (nn::Layer* c : seq->children()) macs += macs_per_image(*c, x);
    return macs;
  }
  if (auto* res = dynamic_cast<nn::Residual*>(&layer)) {
    const std::vector<nn::Layer*> kids = res->children();
    nn::Tensor in = x;
    std::int64_t macs = macs_per_image(*kids[0], x);
    if (kids.size() > 1) macs += macs_per_image(*kids[1], in);
    return macs;
  }
  auto leaf = layer.clone();
  nn::Tensor y = leaf->forward(x, false);
  std::int64_t macs = 0;
  if (auto* op = dynamic_cast<nn::MatrixOp*>(leaf.get())) {
    macs = op->fan_in() * y.size();  // batch of one: y.size() = outputs
  }
  x = std::move(y);
  return macs;
}

std::int64_t macs_per_image(const nn::Sequential& net, const Split& data) {
  auto twin = net.clone();
  std::vector<std::int64_t> shape = data.images.shape();
  shape[0] = 1;
  nn::Tensor x(shape);
  return macs_per_image(*twin, x);
}

core::DeployOptions deploy_options(core::Scheme scheme,
                                   rdo::rram::CellKind cell, int m,
                                   std::int64_t pwt_samples) {
  core::DeployOptions o;
  o.scheme = scheme;
  o.offsets.m = m;
  o.cell = {cell, 200.0};
  o.variation.sigma = kSigmaStar;
  o.lut_k_sets = 16;
  o.lut_j_cycles = 8;
  o.grad_samples = 256;
  o.pwt.epochs = 2;
  o.pwt.max_samples = pwt_samples;
  o.seed = 2021;  // the harnesses' master seed (bench/common.cpp)
  return o;
}

std::string full_pipeline() {
  std::string s;
  for (const std::string& p : core::opt::registered_passes()) {
    s += s.empty() ? p : "," + p;
  }
  return s;
}

// ---------------------------------------------------------------------
// Run record shared by all workloads.

struct OpRecord {
  std::string kind;
  double ms = 0.0;
  bool ok = false;        ///< completed with the expected outcome
  double read_ms = -1.0;  ///< evaluate latency, when the op has one
  double write_ms = -1.0; ///< backend-building latency, when it has one
  std::int64_t images = 0; ///< images evaluated
};

struct Run {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  Tracer tracer;
  std::vector<double> setup_s, generate_s, load_s;
  std::vector<OpRecord> ops;
  double acc_weighted = 0.0;  ///< sum of accuracy * samples (fixed prefix)
  std::int64_t acc_samples = 0;
  Json checks = Json::array();
  Json counters = Json::object();
  Json samples = Json::object();
  double window_s = 0.0;
  double window_bookkeeping_s = 0.0;  ///< tracer time inside the window
  double peak_rss_mb = 0.0;  ///< VmHWM when the window closes
  nn::PoolStats pool_delta;

  Run(std::string w, std::uint64_t s, double secs, bool trace)
      : workload(std::move(w)), seed(s), seconds(secs), tracer(trace) {}

  void check(const std::string& name, bool ok, const std::string& detail) {
    Json j = Json::object();
    j["name"] = name;
    j["ok"] = ok;
    j["detail"] = detail;
    checks.push_back(std::move(j));
    if (!ok) {
      std::fprintf(stderr, "[perfbench] CHECK FAILED %s: %s\n", name.c_str(),
                   detail.c_str());
    }
  }
  void add(const std::string& key, double v) {
    Json& slot = counters[key];
    slot = slot.is_null() ? Json(v) : Json(slot.as_double() + v);
  }
  void count_accuracy(float acc, std::int64_t n) {
    acc_weighted += static_cast<double>(acc) * static_cast<double>(n);
    acc_samples += n;
  }
};

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  fail("VmHWM missing from /proc/self/status");
}

/// Measurement hygiene: refuse anything that would not time the
/// shipped Release code paths.
void require_clean_timing_setup() {
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (build_type != "Release") {
    fail("refusing to time a " + build_type + " build (need Release)");
  }
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  fail("refusing to time a sanitizer build");
#endif
  for (const char* var : {"RDO_TRACE", "RDO_PLAN_CACHE_DIR",
                          "RDO_LUT_CACHE_DIR", "RDO_OPT_PASSES",
                          "RDO_THREADS"}) {
    if (std::getenv(var) != nullptr) {
      fail(std::string("refusing to time with ") + var + " set");
    }
  }
}

/// Timed phase: deadline plus the pool counters around it.
class Window {
 public:
  explicit Window(Run& run) : run_(run) {
    before_ = nn::pool_stats();
    book_before_ = run.tracer.bookkeeping_s();
    start_ = Clock::now();
  }
  [[nodiscard]] bool expired() const {
    return seconds_between(start_, Clock::now()) >= run_.seconds;
  }
  /// Also reads VmHWM, before the checks and oracles add memory of
  /// their own.
  void finish() {
    run_.window_s = seconds_between(start_, Clock::now());
    run_.peak_rss_mb = peak_rss_mb();
    run_.window_bookkeeping_s = run_.tracer.bookkeeping_s() - book_before_;
    const nn::PoolStats after = nn::pool_stats();
    run_.pool_delta.parallel_loops = after.parallel_loops - before_.parallel_loops;
    run_.pool_delta.inline_loops = after.inline_loops - before_.inline_loops;
    run_.pool_delta.chunks_executed =
        after.chunks_executed - before_.chunks_executed;
    run_.pool_delta.chunks_stolen = after.chunks_stolen - before_.chunks_stolen;
  }

 private:
  Run& run_;
  nn::PoolStats before_;
  double book_before_ = 0.0;
  Clock::time_point start_;
};

void record_setup(Run& run, Clock::time_point t0, const Loaded& l) {
  run.setup_s.push_back(seconds_between(t0, Clock::now()));
  run.generate_s.push_back(l.generate_s);
  run.load_s.push_back(l.load_s);
}

/// Direct plan_fingerprint timings on the given inputs (traced runs).
void sample_fingerprint(Run& run, const nn::Layer& net,
                        const core::DeployOptions& opt,
                        const nn::DataView& train, int reps) {
  Json arr = Json::array();
  for (int i = 0; i < reps; ++i) {
    const auto t = Clock::now();
    (void)core::plan_fingerprint(net, opt, train);
    arr.push_back(ms_since(t));
  }
  run.samples["core.plan_fingerprint_ms"] = std::move(arr);
}

// ---------------------------------------------------------------------
// Sweeps: compile each grid point once, then trials round-robin.

struct Trial {
  float acc = 0.0f;
  std::int64_t images = 0;
  double write_ms = 0.0, read_ms = 0.0;
  core::DeployStats stats;
};

core::DeploymentPlan compile(Run& run, const nn::Layer& net,
                             const core::DeployOptions& opt,
                             const nn::DataView& train, std::int64_t op) {
  core::DeploymentPlan plan = [&] {
    Span s(run.tracer, "core.compile_plan", op);
    return core::compile_plan(net, opt, train);
  }();
  if (run.tracer.on()) {
    run.add("compile.lut_build_s", plan.compile_stats.lut_build_s);
    run.add("compile.prepare_s", plan.compile_stats.prepare_s);
    run.add("compile.vawo_solve_s", plan.compile_stats.vawo_solve_s);
  }
  return plan;
}

void count_backend(Run& run, const core::DeployStats& st, const char* side,
                   std::int64_t images, std::int64_t op) {
  if (!run.tracer.on() || op < 0) return;
  run.add("rram.weights_programmed", static_cast<double>(st.weights_programmed));
  run.add("rram.device_pulses", static_cast<double>(st.device_pulses));
  run.add("rram.program_cycles", static_cast<double>(st.cycles));
  run.add("pwt.batches", static_cast<double>(st.pwt_batches));
  run.add("pwt.offset_updates", static_cast<double>(st.pwt_offset_updates));
  run.add(std::string(side) + ".eval_images", static_cast<double>(images));
}

/// Span names of one backend's calls.
struct TrialSpans {
  const char* op;
  const char* construct;
  const char* program;
  const char* tune;
  const char* evaluate;
  const char* side;  ///< counter prefix for evaluated images
};
constexpr TrialSpans kCoreTrial{"op:trial",           "core.backend_construct",
                                "core.program_cycle", "core.tune",
                                "core.evaluate",      "core"};
constexpr TrialSpans kSimTrial{"op:sim_trial",      "sim.construct",
                               "sim.program_cycle", "sim.tune",
                               "sim.evaluate",      "sim"};

/// One trial: construct -> program_cycle -> tune (the write) ->
/// evaluate (the read).
template <typename Backend>
Trial run_trial(Run& run, const TrialSpans& names,
                const core::DeploymentPlan& plan, const nn::Layer& net,
                std::uint64_t cycle, const nn::DataView& train,
                const nn::DataView& test, std::int64_t op) {
  Span top(run.tracer, names.op, op);
  Trial t;
  const auto t0 = Clock::now();
  std::unique_ptr<Backend> b;
  {
    Span s(run.tracer, names.construct, op);
    b = std::make_unique<Backend>(plan, net);
  }
  {
    Span s(run.tracer, names.program, op);
    b->program_cycle(cycle);
  }
  {
    Span s(run.tracer, names.tune, op);
    b->tune(train);
  }
  t.write_ms = ms_since(t0);
  const auto t1 = Clock::now();
  {
    Span s(run.tracer, names.evaluate, op);
    t.acc = b->evaluate(test);
  }
  t.read_ms = ms_since(t1);
  t.images = test.size();
  t.stats = b->stats();
  count_backend(run, t.stats, names.side, t.images, op);
  return t;
}

Trial ew_trial(Run& run, const core::DeploymentPlan& plan,
               const nn::Layer& net, std::uint64_t cycle,
               const nn::DataView& train, const nn::DataView& test,
               std::int64_t op) {
  return run_trial<core::EffectiveWeightBackend>(run, kCoreTrial, plan, net,
                                                 cycle, train, test, op);
}

Trial sim_trial(Run& run, const core::DeploymentPlan& plan,
                const nn::Layer& net, std::uint64_t cycle,
                const nn::DataView& train, const nn::DataView& slice,
                std::int64_t op) {
  return run_trial<rdo::sim::DeviceSimBackend>(run, kSimTrial, plan, net,
                                               cycle, train, slice, op);
}

/// One sweep: its model, its grid and the shape of a round.
struct SweepShape {
  Model model = Model::LeNet;
  std::vector<core::DeployOptions> points;
  int trials_per_round = 1;  ///< effective-weight trials per point
  int prefix_rounds = 1;     ///< rounds that always complete (accuracy_pct)
  /// Test images of the one device-level trial per point and round
  /// (0 = no device-level trials).
  std::int64_t sim_slice = 0;
};

SweepShape sweep_shape(const std::string& workload) {
  using core::Scheme;
  using rdo::rram::CellKind;
  SweepShape s;
  if (workload == "sweep_pwt") {
    // Fig. 5(b)/(c): scaled ResNet, {PWT, VAWO*+PWT} x {SLC, MLC2}; two
    // rounds so accuracy_pct averages two cycles per point.
    s.model = Model::ResNet;
    s.prefix_rounds = 2;
    for (Scheme sc : {Scheme::PWT, Scheme::VAWOStarPWT}) {
      for (CellKind c : {CellKind::SLC, CellKind::MLC2}) {
        s.points.push_back(deploy_options(sc, c, 16, 128));
      }
    }
    return s;
  }
  // Fig. 5(a)/Table I: LeNet, {VAWO, VAWO*} x {SLC, MLC2} x m {16, 64};
  // every other point runs the full optimizer pipeline.
  s.trials_per_round = 4;
  s.sim_slice = 32;
  const std::string passes = full_pipeline();
  for (Scheme sc : {Scheme::VAWO, Scheme::VAWOStar}) {
    for (CellKind c : {CellKind::SLC, CellKind::MLC2}) {
      for (int m : {16, 64}) {
        core::DeployOptions o = deploy_options(sc, c, m, 0);
        if (s.points.size() % 2 == 1) o.opt_passes = passes;
        s.points.push_back(std::move(o));
      }
    }
  }
  return s;
}

std::string stats_digest(const Trial& t) {
  return core::deploy_stats_json(t.stats).dump();
}

void run_sweep(Run& run, const std::string& cache) {
  const SweepShape shape = sweep_shape(run.workload);
  const bool with_sim = shape.sim_slice > 0;
  Loaded data;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const auto t0 = Clock::now();
    data = load(shape.model, cache);
    record_setup(run, t0, data);
  }
  const nn::Layer& net = *data.net;
  const nn::DataView train = data.train.view();
  const nn::DataView test = data.test.view();
  std::vector<std::int64_t> first_idx;
  for (std::int64_t i = 0; i < shape.sim_slice; ++i) first_idx.push_back(i);
  const Split slice = with_sim
                          ? take(data.test.images, data.test.labels, first_idx)
                          : Split{};

  // One untimed op of each kind.
  {
    const auto plan = core::compile_plan(net, shape.points.back(), train);
    (void)ew_trial(run, plan, net, 1u << 20, train, test, -1);
    if (with_sim) {
      (void)sim_trial(run, plan, net, 1u << 20, train, slice.view(), -1);
    }
  }

  // Round 0 compiles each point; the prefix rounds always complete and
  // run cycles 0, 1, ... (accuracy_pct); later rounds run cycles drawn
  // from --seed until the window closes.
  std::vector<std::unique_ptr<core::DeploymentPlan>> plans(shape.points.size());
  Trial first_ew, first_sim;
  std::int64_t op = 0;
  nn::Rng seeded_cycles(0xC1C1E000ull + run.seed);
  Window window(run);
  for (std::uint64_t round = 0;; ++round) {
    const bool prefix = round < static_cast<std::uint64_t>(shape.prefix_rounds);
    if (!prefix && window.expired()) break;
    auto cycle_of = [&](std::uint64_t fixed) {
      return prefix ? fixed
                    : static_cast<std::uint64_t>(
                          seeded_cycles.uniform_int(1 << 21, 1LL << 40));
    };
    auto record = [&](const char* kind, const Trial& t, double ms) {
      const bool ok = std::isfinite(t.acc) && t.acc >= 0.0f;
      run.ops.push_back({kind, ms, ok, t.read_ms, t.write_ms, t.images});
      if (prefix) run.count_accuracy(t.acc, t.images);
      ++op;
    };
    for (std::size_t p = 0; p < shape.points.size(); ++p) {
      if (!prefix && window.expired()) break;
      if (plans[p] == nullptr) {
        Span top(run.tracer, "op:compile", op);
        const auto t0 = Clock::now();
        plans[p] = std::make_unique<core::DeploymentPlan>(
            compile(run, net, shape.points[p], train, op));
        run.ops.push_back({"compile", ms_since(t0), true, -1.0, -1.0, 0});
        ++op;
      }
      for (int e = 0; e < shape.trials_per_round; ++e) {
        if (!prefix && window.expired()) break;
        const std::uint64_t cycle = cycle_of(round * shape.trials_per_round + e);
        const auto t0 = Clock::now();
        const Trial t = ew_trial(run, *plans[p], net, cycle, train, test, op);
        record("trial", t, ms_since(t0));
        if (round == 0 && p == 0 && e == 0) first_ew = t;
      }
      if (!with_sim || (!prefix && window.expired())) continue;
      const auto t0 = Clock::now();
      const Trial t = sim_trial(run, *plans[p], net, cycle_of(round), train,
                                slice.view(), op);
      record("sim_trial", t, ms_since(t0));
      if (round == 0 && p == 0) first_sim = t;
    }
  }
  window.finish();

  // Output checks: the first trials again, bit for bit.
  const Trial again = ew_trial(run, *plans[0], net, 0, train, test, -2);
  run.check("rerun_first_trial",
            again.acc == first_ew.acc &&
                stats_digest(again) == stats_digest(first_ew),
            "accuracy " + std::to_string(first_ew.acc) + " vs " +
                std::to_string(again.acc));
  if (with_sim) {
    const Trial sim_again =
        sim_trial(run, *plans[0], net, 0, train, slice.view(), -2);
    run.check("rerun_first_device_trial",
              sim_again.acc == first_sim.acc &&
                  stats_digest(sim_again) == stats_digest(first_sim),
              "accuracy " + std::to_string(first_sim.acc) + " vs " +
                  std::to_string(sim_again.acc));
  }
  std::size_t n_ok = 0;
  for (const OpRecord& r : run.ops) n_ok += r.ok ? 1 : 0;
  run.check("every_op_ok", n_ok == run.ops.size(),
            std::to_string(n_ok) + " of " + std::to_string(run.ops.size()) +
                " ops with a finite accuracy");
  run.counters["macs_per_image"] = macs_per_image(*data.net, data.test);
  if (run.tracer.on()) {
    sample_fingerprint(run, net, shape.points[0], train, 5);
  }
}

// ---------------------------------------------------------------------
// serve_mix: seeded request lines through InferenceService::handle_line.

enum class Kind { SmallRead, LargeRead, HotWrite, ColdWrite, Stats, Malformed };

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::SmallRead: return "read_small";
    case Kind::LargeRead: return "read_large";
    case Kind::HotWrite: return "write_hot";
    case Kind::ColdWrite: return "write_cold";
    case Kind::Stats: return "stats";
    case Kind::Malformed: return "malformed";
  }
  return "?";
}
bool is_read(Kind k) { return k == Kind::SmallRead || k == Kind::LargeRead; }
bool is_write(Kind k) { return k == Kind::HotWrite || k == Kind::ColdWrite; }

/// A request configuration: JSON "config" overrides plus the options the
/// service derives from them (rebuilt here independently for the
/// direct-evaluate oracle).
struct ServeCfg {
  std::string json;  ///< "" = the base config
  core::DeployOptions opt;
};

struct Request {
  std::int64_t id = 0;
  Kind kind = Kind::SmallRead;
  int cfg = 0;  ///< index into the config table
  std::uint64_t cycle = 0;
  std::int64_t offset = 0, count = 0;
  std::string line;
  bool expect_eviction = false;
};

class TrafficGen {
 public:
  static constexpr int kHot = 3;
  static constexpr std::size_t kMaxPlans = rdo::serve::ServeConfig{}.max_plans;
  /// Requests that always complete (accuracy_pct). They come from blocks
  /// drawn from a fixed stream, so they are the same for every seed.
  static constexpr std::int64_t kFixedRequests = 200;

  TrafficGen(std::uint64_t seed, const core::DeployOptions& base,
             std::int64_t test_size)
      : rng_(nn::Rng(0x7AFF1C00ull)), seed_(seed), test_size_(test_size) {
    using core::Scheme;
    auto with = [&](const std::string& json,
                    const std::function<void(core::DeployOptions&)>& f) {
      ServeCfg c{json, base};
      f(c.opt);
      cfgs_.push_back(std::move(c));
    };
    // Hot set: the full method plus two VAWO* points.
    with("", [](core::DeployOptions&) {});
    with(R"({"scheme":"VAWO*"})",
         [](core::DeployOptions& o) { o.scheme = Scheme::VAWOStar; });
    with(R"({"scheme":"VAWO*","cell":"MLC2"})", [](core::DeployOptions& o) {
      o.scheme = Scheme::VAWOStar;
      o.cell.kind = rdo::rram::CellKind::MLC2;
    });
    // Configs outside the hot set (sigma / m / opt_passes), in rotation.
    with(R"({"sigma":0.28})",
         [](core::DeployOptions& o) { o.variation.sigma = 0.28; });
    with(R"({"m":32})", [](core::DeployOptions& o) { o.offsets.m = 32; });
    with(R"({"opt_passes":"color_offset_registers"})",
         [](core::DeployOptions& o) {
           o.opt_passes = "color_offset_registers";
         });
    with(R"({"sigma":0.32})",
         [](core::DeployOptions& o) { o.variation.sigma = 0.32; });
    pooled_.resize(kHot);
  }

  [[nodiscard]] const std::vector<ServeCfg>& cfgs() const { return cfgs_; }

  /// Warm-up: a 1-image read on cycles 0 and 1 of every hot config
  /// (compiles the hot plans, fills their pools).
  std::vector<Request> warmup() {
    std::vector<Request> out;
    for (int c = 0; c < kHot; ++c) {
      for (std::uint64_t cycle : {0u, 1u}) {
        Request r = make(Kind::SmallRead);
        r.cfg = c;
        r.cycle = cycle;
        r.count = 1;
        r.offset = 0;
        finish(r);
        pooled_[static_cast<std::size_t>(c)].push_back(cycle);
        out.push_back(std::move(r));
      }
    }
    return out;
  }

  /// One request of the given kind, as the generator would issue it.
  Request make_kind(Kind k) {
    Request r = make(k);
    fill(r);
    return r;
  }

  /// The next request of the mix. Blocks of 20 requests hold exactly one
  /// write (every fifth a config miss); every fifth block one malformed
  /// line and, offset by two, one stats request; reads come in groups of
  /// 10 with exactly 7 small and 3 large. The first kFixedBlocks blocks
  /// (at least kFixedRequests requests) are the same for every seed;
  /// later blocks are drawn from --seed.
  Request next() {
    if (queue_.empty()) refill();
    Request r = std::move(queue_.front());
    queue_.erase(queue_.begin());
    return r;
  }

 private:
  // Each block holds at least 20 requests (guard reads come on top).
  static constexpr std::int64_t kFixedBlocks = kFixedRequests / 20;

  nn::Rng rng_;
  std::uint64_t seed_;
  std::int64_t test_size_;
  std::vector<ServeCfg> cfgs_;
  std::vector<std::vector<std::uint64_t>> pooled_;  ///< per hot config
  std::vector<int> lru_;  ///< plan-LRU model, most recent first
  std::vector<Request> queue_;
  std::vector<Kind> read_sizes_;
  std::int64_t next_id_ = 1;
  std::int64_t block_ = 0;
  std::uint64_t next_cycle_ = 100;
  int next_cold_ = 0;

  std::int64_t uniform(std::int64_t lo, std::int64_t hi) {
    return rng_.uniform_int(lo, hi);
  }

  Request make(Kind k) {
    Request r;
    r.id = next_id_++;
    r.kind = k;
    return r;
  }

  void touch(int cfg, bool& evicted) {
    evicted = false;
    auto it = std::find(lru_.begin(), lru_.end(), cfg);
    if (it != lru_.end()) lru_.erase(it);
    lru_.insert(lru_.begin(), cfg);
    if (lru_.size() > kMaxPlans) {
      lru_.pop_back();
      evicted = true;
    }
  }

  Kind next_read_size() {
    if (read_sizes_.empty()) {
      read_sizes_.assign(7, Kind::SmallRead);
      read_sizes_.insert(read_sizes_.end(), 3, Kind::LargeRead);
      std::shuffle(read_sizes_.begin(), read_sizes_.end(), rng_.engine());
    }
    const Kind k = read_sizes_.back();
    read_sizes_.pop_back();
    return k;
  }

  /// A read of a pooled cycle of hot config `cfg`.
  void read_on(Request& r, int cfg) {
    r.cfg = cfg;
    const auto& cyc = pooled_[static_cast<std::size_t>(cfg)];
    r.cycle = cyc[static_cast<std::size_t>(
        uniform(0, static_cast<std::int64_t>(cyc.size()) - 1))];
    r.count = r.kind == Kind::SmallRead ? uniform(1, 8) : uniform(64, 256);
    r.offset = uniform(0, test_size_ - r.count);
  }

  /// Choose config/cycle/slice for `r` and render its line.
  void fill(Request& r) {
    switch (r.kind) {
      case Kind::SmallRead:
      case Kind::LargeRead:
        read_on(r, static_cast<int>(uniform(0, kHot - 1)));
        break;
      case Kind::HotWrite:
        r.cfg = 0;
        r.cycle = next_cycle_++;
        r.count = uniform(1, 8);
        r.offset = uniform(0, test_size_ - r.count);
        pooled_[0].push_back(r.cycle);
        break;
      case Kind::ColdWrite:
        r.cfg = kHot + next_cold_;
        next_cold_ = (next_cold_ + 1) % (static_cast<int>(cfgs_.size()) - kHot);
        r.cycle = static_cast<std::uint64_t>(uniform(0, 7));
        r.count = uniform(1, 8);
        r.offset = uniform(0, test_size_ - r.count);
        break;
      case Kind::Stats:
      case Kind::Malformed:
        break;
    }
    finish(r);
  }

  void finish(Request& r) {
    const std::string id = std::to_string(r.id);
    if (r.kind == Kind::Stats) {
      r.line = R"({"id":)" + id + R"(,"op":"stats"})";
      return;
    }
    if (r.kind == Kind::Malformed) {
      switch (uniform(0, 3)) {
        case 0:
          r.line = R"({"id":)" + id + R"(,"op":"evaluate","data":{"spl)";
          break;
        case 1:
          r.line = R"({"id":)" + id + R"(,"op":"predict"})";
          break;
        case 2:
          r.line = R"({"id":)" + id +
                   R"(,"op":"evaluate","config":{"sigmaa":0.3}})";
          break;
        default:
          r.line = R"({"id":)" + id +
                   R"(,"op":"evaluate","data":{"split":"test","offset":0,"count":-4}})";
          break;
      }
      return;
    }
    bool evicted = false;
    touch(r.cfg, evicted);
    r.expect_eviction = evicted;
    const ServeCfg& c = cfgs_[static_cast<std::size_t>(r.cfg)];
    r.line = R"({"id":)" + id + R"(,"op":"evaluate")" +
             (c.json.empty() ? "" : R"(,"config":)" + c.json) +
             R"(,"cycle":)" + std::to_string(r.cycle) +
             R"(,"data":{"split":"test","offset":)" +
             std::to_string(r.offset) + R"(,"count":)" +
             std::to_string(r.count) + "}}";
  }

  void refill() {
    const std::int64_t b = block_++;
    if (b == kFixedBlocks) rng_ = rng_.split(seed_);
    std::vector<Kind> kinds(20, Kind::SmallRead);  // placeholder = read
    std::vector<std::size_t> slots(20);
    for (std::size_t i = 0; i < slots.size(); ++i) slots[i] = i;
    std::shuffle(slots.begin(), slots.end(), rng_.engine());
    kinds[slots[0]] = b % 5 == 3 ? Kind::ColdWrite : Kind::HotWrite;
    if (b % 5 == 2) kinds[slots[1]] = Kind::Malformed;
    if (b % 5 == 4) kinds[slots[1]] = Kind::Stats;
    for (std::size_t i = 0; i < kinds.size(); ++i) {
      Kind k = kinds[i];
      if (k == Kind::SmallRead) k = next_read_size();
      if (k == Kind::ColdWrite) {
        // Keep the hot set resident: touch any hot plan that is next in
        // line for eviction with a read first.
        while (lru_.size() == kMaxPlans && lru_.back() < kHot) {
          Request guard = make(next_read_size());
          read_on(guard, lru_.back());
          finish(guard);
          queue_.push_back(std::move(guard));
        }
      }
      Request r = make(k);
      fill(r);
      queue_.push_back(std::move(r));
    }
  }
};

struct Observed {
  bool ok = false;
  std::string error;
  bool cached_plan = false;
  bool has_accuracy = false;
  double accuracy = 0.0;
  std::int64_t samples = 0;
};

Observed observe(const std::string& response) {
  Observed o;
  const Json doc = Json::parse(response);
  o.ok = doc.find("ok") != nullptr && doc.find("ok")->as_bool();
  if (!o.ok) {
    const Json* err = doc.find("error");
    if (err != nullptr && err->find("code") != nullptr) {
      o.error = err->find("code")->as_string();
    }
    return o;
  }
  const Json& r = *doc.find("result");
  if (const Json* a = r.find("accuracy")) {
    o.has_accuracy = true;
    o.accuracy = a->as_double();
    o.samples = r.find("samples")->as_int();
    o.cached_plan = r.find("cached_plan")->as_bool();
  }
  return o;
}

/// Did the service do what the generator intended? Compares the response
/// and the counters() delta against the request's kind.
bool as_intended(const Request& r, const Observed& o,
                 const rdo::serve::ServeCounters& a,
                 const rdo::serve::ServeCounters& b, std::string& why) {
  const std::int64_t creates = b.backend_creates - a.backend_creates;
  const std::int64_t reuses = b.backend_reuses - a.backend_reuses;
  const std::int64_t misses = b.plan_misses - a.plan_misses;
  const std::int64_t evictions = b.plan_evictions - a.plan_evictions;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%s: ok=%d err=%s cached=%d creates=%lld reuses=%lld "
                "misses=%lld evictions=%lld",
                kind_name(r.kind), o.ok ? 1 : 0, o.error.c_str(),
                o.cached_plan ? 1 : 0, static_cast<long long>(creates),
                static_cast<long long>(reuses),
                static_cast<long long>(misses),
                static_cast<long long>(evictions));
  why = buf;
  switch (r.kind) {
    case Kind::Malformed:
      return !o.ok && o.error == "bad_request";
    case Kind::Stats:
      return o.ok && !o.has_accuracy && creates == 0 && misses == 0;
    case Kind::SmallRead:
    case Kind::LargeRead:
      return o.ok && o.has_accuracy && o.cached_plan && reuses == 1 &&
             creates == 0 && misses == 0 && evictions == 0 &&
             o.samples == r.count;
    case Kind::HotWrite:
      return o.ok && o.has_accuracy && o.cached_plan && creates == 1 &&
             misses == 0 && evictions == 0;
    case Kind::ColdWrite:
      return o.ok && o.has_accuracy && !o.cached_plan && creates == 1 &&
             misses == 1 && evictions == (r.expect_eviction ? 1 : 0);
  }
  return false;
}

struct Served {
  Request req;
  Observed obs;
};

void run_serve(Run& run, const std::string& cache) {
  constexpr std::int64_t kPrefix = TrafficGen::kFixedRequests;
  std::unique_ptr<TrafficGen> gen;
  std::unique_ptr<rdo::serve::InferenceService> svc;
  Loaded data;
  core::DeployOptions base;
  auto serve = [&](const Request& r) {
    const std::string resp = svc->handle_line(r.line);
    return observe(resp);
  };
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    svc.reset();
    const auto t0 = Clock::now();
    data = load(Model::LeNet, cache);
    base = deploy_options(core::Scheme::VAWOStarPWT, rdo::rram::CellKind::SLC,
                          16, 200);
    svc = std::make_unique<rdo::serve::InferenceService>(
        *data.net, data.train.view(), data.test.view(), base,
        rdo::serve::ServeConfig{});
    gen = std::make_unique<TrafficGen>(run.seed, base, data.test.size());
    for (const Request& r : gen->warmup()) {
      const Observed o = serve(r);
      if (!o.ok) fail("warm-up request failed: " + r.line);
    }
    record_setup(run, t0, data);
  }

  // One untimed op of each kind.
  for (Kind k : {Kind::SmallRead, Kind::LargeRead, Kind::HotWrite,
                 Kind::ColdWrite, Kind::Stats, Kind::Malformed}) {
    (void)serve(gen->make_kind(k));
  }

  std::vector<Served> served;
  std::int64_t op = 0;
  rdo::serve::ServeCounters c_before_window = svc->counters();
  const std::size_t pooled_before = svc->pooled_backends();
  Window window(run);
  while (op < kPrefix || !window.expired()) {
    Request r = gen->next();
    Span top(run.tracer, is_read(r.kind)    ? "op:read"
                         : is_write(r.kind) ? "op:write"
                                            : "op:other",
             op);
    const rdo::serve::ServeCounters a = svc->counters();
    const auto t0 = Clock::now();
    std::string resp;
    {
      Span s(run.tracer, "serve.handle_line", op);
      resp = svc->handle_line(r.line);
    }
    const double ms = ms_since(t0);
    rdo::serve::ServeCounters b;
    {
      Span s(run.tracer, "serve.counters", op);
      b = svc->counters();
    }
    const Observed o = observe(resp);
    std::string why;
    const bool ok = as_intended(r, o, a, b, why);
    if (!ok) run.check("request_" + std::to_string(r.id), false, why);
    run.ops.push_back({kind_name(r.kind), ms, ok,
                       is_read(r.kind) ? ms : -1.0,
                       is_write(r.kind) ? ms : -1.0, o.samples});
    if (op < kPrefix && o.has_accuracy) {
      run.count_accuracy(static_cast<float>(o.accuracy), o.samples);
    }
    served.push_back({std::move(r), o});
    ++op;
  }
  window.finish();
  const rdo::serve::ServeCounters c_end = svc->counters();

  std::int64_t malformed = 0, bad = 0, others = 0, ok_others = 0;
  for (const Served& s : served) {
    if (s.req.kind == Kind::Malformed) {
      ++malformed;
      bad += s.obs.error == "bad_request" ? 1 : 0;
    } else {
      ++others;
      ok_others += s.obs.ok ? 1 : 0;
    }
  }
  run.check("malformed_lines_get_bad_request", bad == malformed,
            std::to_string(bad) + " of " + std::to_string(malformed));
  run.check("other_lines_get_ok", ok_others == others,
            std::to_string(ok_others) + " of " + std::to_string(others));

  // Oracle: sampled responses against a fresh EffectiveWeightBackend
  // (construct, program_cycle, tune, evaluate) of the same (config, cycle,
  // slice) on a directly compiled plan. Traced runs replay more of them;
  // the replay's spans give the core layer on this workload.
  const std::size_t want_small = run.tracer.on() ? 16 : 2;
  const std::size_t want_large = run.tracer.on() ? 8 : 2;
  const std::size_t want_writes = run.tracer.on() ? 2 : 1;
  std::size_t n_small = 0, n_large = 0, n_hot = 0, n_cold = 0;
  std::map<int, std::unique_ptr<core::DeploymentPlan>> plans;
  std::int64_t replayed = 0, matched = 0;
  std::int64_t rop = 1 << 30;
  for (const Served& s : served) {
    std::size_t* n = nullptr;
    std::size_t want = 0;
    switch (s.req.kind) {
      case Kind::SmallRead: n = &n_small; want = want_small; break;
      case Kind::LargeRead: n = &n_large; want = want_large; break;
      case Kind::HotWrite: n = &n_hot; want = want_writes; break;
      case Kind::ColdWrite: n = &n_cold; want = want_writes; break;
      default: break;
    }
    if (n == nullptr || *n >= want) continue;
    ++*n;
    const ServeCfg& cfg = gen->cfgs()[static_cast<std::size_t>(s.req.cfg)];
    auto& plan = plans[s.req.cfg];
    if (plan == nullptr) {
      Span top(run.tracer, "op:compile", rop);
      plan = std::make_unique<core::DeploymentPlan>(
          compile(run, *data.net, cfg.opt, data.train.view(), rop));
    }
    std::vector<std::int64_t> idx;
    for (std::int64_t i = 0; i < s.req.count; ++i) {
      idx.push_back(s.req.offset + i);
    }
    const Split slice = take(data.test.images, data.test.labels, idx);
    constexpr TrialSpans kReplay{"op:replay",          "core.backend_construct",
                                 "core.program_cycle", "core.tune",
                                 "core.evaluate",      "core"};
    const float acc = run_trial<core::EffectiveWeightBackend>(
                          run, kReplay, *plan, *data.net, s.req.cycle,
                          data.train.view(), slice.view(), rop)
                          .acc;
    ++replayed;
    if (static_cast<double>(acc) == s.obs.accuracy) {
      ++matched;
    } else {
      run.check("oracle_" + std::to_string(s.req.id), false,
                "served " + std::to_string(s.obs.accuracy) + " direct " +
                    std::to_string(acc));
    }
    ++rop;
  }
  run.check("served_equals_direct", replayed > 0 && matched == replayed,
            std::to_string(matched) + " of " + std::to_string(replayed) +
                " sampled responses bit-identical");

  run.counters["macs_per_image"] = macs_per_image(*data.net, data.test);
  run.counters["serve.plan_hits"] =
      c_end.plan_hits - c_before_window.plan_hits;
  run.counters["serve.plan_misses"] =
      c_end.plan_misses - c_before_window.plan_misses;
  run.counters["serve.plan_evictions"] =
      c_end.plan_evictions - c_before_window.plan_evictions;
  run.counters["serve.backend_creates"] =
      c_end.backend_creates - c_before_window.backend_creates;
  run.counters["serve.backend_reuses"] =
      c_end.backend_reuses - c_before_window.backend_reuses;
  run.counters["serve.pooled_backends_start"] =
      static_cast<std::int64_t>(pooled_before);
  run.counters["serve.pooled_backends"] =
      static_cast<std::int64_t>(svc->pooled_backends());

  if (run.tracer.on()) {
    // Parse cost of the same lines, and the per-request fingerprint.
    Json parse_us = Json::array();
    for (const Served& s : served) {
      const auto t = Clock::now();
      try {
        (void)rdo::serve::parse_request(Json::parse(s.req.line), base);
      } catch (const std::exception&) {
        // malformed lines are expected to fail here
      }
      parse_us.push_back(1e3 * ms_since(t));
    }
    run.samples["serve.parse_us"] = std::move(parse_us);
    sample_fingerprint(run, *data.net, base, data.train.view(), 20);
  }
}

// ---------------------------------------------------------------------

int cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

struct Args {
  std::string mode, workload, cache, out;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
};

Args parse_args(int argc, char** argv) {
  if (argc < 2) fail("usage: rdo_perfbench prepare|run [options]");
  Args a;
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) fail("missing value for " + k);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--cache") {
      a.cache = v;
    } else if (k == "--out") {
      a.out = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') fail("bad --seed " + v);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(a.seconds > 0.0)) {
        fail("bad --seconds " + v);
      }
    } else if (k == "--trace") {
      if (v != "0" && v != "1") fail("bad --trace " + v);
      a.trace = v == "1" ? 1 : 0;
    } else {
      fail("unknown option " + k);
    }
  }
  if (a.cache.empty()) fail("--cache is required");
  if (a.mode == "run") {
    if (a.workload != "sweep_pwt" && a.workload != "sweep_vawo" &&
        a.workload != "serve_mix") {
      fail("unknown --workload '" + a.workload + "'");
    }
    if (a.out.empty() || a.seconds <= 0.0 || a.trace < 0) {
      fail("run needs --out, --seconds and --trace");
    }
  } else if (a.mode != "prepare") {
    fail("unknown mode " + a.mode);
  }
  return a;
}

Json run_json(const Run& run) {
  Json j = Json::object();
  j["workload"] = run.workload;
  j["seed"] = run.seed;
  j["seconds"] = run.seconds;
  Json env = Json::object();
  env["nproc"] = cpu_count();
  env["pool_threads"] = nn::thread_count();
  env["compiler"] = PERFBENCH_COMPILER;
  env["build_type"] = PERFBENCH_BUILD_TYPE;
  j["env"] = std::move(env);
  auto list = [](const std::vector<double>& v) {
    Json a = Json::array();
    for (double x : v) a.push_back(x);
    return a;
  };
  j["setup_s"] = list(run.setup_s);
  j["data_generate_s"] = list(run.generate_s);
  j["model_load_s"] = list(run.load_s);
  j["window_s"] = run.window_s;
  Json ops = Json::array();
  for (const OpRecord& r : run.ops) {
    Json o = Json::object();
    o["kind"] = r.kind;
    o["ms"] = r.ms;
    o["ok"] = r.ok;
    if (r.read_ms >= 0.0) o["read_ms"] = r.read_ms;
    if (r.write_ms >= 0.0) o["write_ms"] = r.write_ms;
    o["images"] = r.images;
    ops.push_back(std::move(o));
  }
  j["ops"] = std::move(ops);
  j["accuracy_weighted"] = run.acc_weighted;
  j["accuracy_samples"] = run.acc_samples;
  j["checks"] = run.checks;
  Json pool = Json::object();
  pool["parallel_loops"] = run.pool_delta.parallel_loops;
  pool["inline_loops"] = run.pool_delta.inline_loops;
  pool["chunks_executed"] = run.pool_delta.chunks_executed;
  pool["chunks_stolen"] = run.pool_delta.chunks_stolen;
  j["pool"] = std::move(pool);
  j["counters"] = run.counters;
  j["samples"] = run.samples;
  j["trace_bookkeeping_s"] = run.window_bookkeeping_s;
  j["spans"] = run.tracer.to_json();
  j["peak_rss_mb"] = run.peak_rss_mb;
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    nn::set_thread_count(kPoolThreads);
    if (args.mode == "prepare") {
      prepare_models(args.cache);
      return 0;
    }
    require_clean_timing_setup();
    for (Model m : {Model::LeNet, Model::ResNet}) {
      if (!std::filesystem::exists(model_path(args.cache, m))) {
        fail("model cache " + model_path(args.cache, m) +
             " is missing; refusing to time (run `prepare` first)");
      }
    }
    Run run(args.workload, args.seed, args.seconds, args.trace == 1);
    if (args.workload == "serve_mix") {
      run_serve(run, args.cache);
    } else {
      run_sweep(run, args.cache);
    }
    rdo::obs::write_json_file(run_json(run), args.out);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[perfbench] error: %s\n", e.what());
    return 2;
  }
}
