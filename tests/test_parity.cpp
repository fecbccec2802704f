// Cross-backend parity: core::EffectiveWeightBackend and
// sim::DeviceSimBackend execute the same compiled core::DeploymentPlan,
// so their deterministic DeployStats counters must be bit-identical for
// every scheme and cell kind, and their reported accuracies must agree
// up to ADC/floating-point summation effects. These tests carry the
// `parity` ctest label and run in CI under several RDO_THREADS settings.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <vector>

#include "core/backend.h"
#include "core/plan.h"
#include "data/synthetic.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/optimizer.h"
#include "nn/pooling.h"
#include "nn/sequential.h"
#include "sim/device_backend.h"

using namespace rdo;
using namespace rdo::core;

namespace {

/// One tiny trained LeNet-class CNN on an 8x8 synthetic task, shared by
/// every parity case (device-level evaluation is slow, so the fixture is
/// deliberately small).
struct Fixture {
  data::SyntheticDataset ds;
  nn::Sequential net;

  Fixture() {
    data::SyntheticSpec spec = data::mnist_like();
    spec.height = spec.width = 8;
    spec.classes = 4;
    spec.train_per_class = 20;
    spec.test_per_class = 8;
    spec.seed = 73;
    ds = data::make_synthetic(spec);
    nn::Rng rng(12);
    net.emplace<nn::Conv2D>(1, 4, 3, 1, 1, rng);
    net.emplace<nn::ReLU>();
    net.emplace<nn::MaxPool2D>(2);
    net.emplace<nn::Flatten>();
    net.emplace<nn::Dense>(4 * 4 * 4, 4, rng);
    nn::SGD opt(net.params(), 0.05f);
    for (int e = 0; e < 6; ++e) {
      nn::train_epoch(net, opt, ds.train(), 16, rng);
    }
  }

  DeployOptions options(Scheme s, rram::CellKind cell) const {
    DeployOptions o;
    o.scheme = s;
    o.offsets.m = 8;
    o.cell = {cell, 200.0};
    o.variation.sigma = 0.4;
    o.lut_k_sets = 4;
    o.lut_j_cycles = 4;
    o.grad_samples = 48;
    o.pwt.epochs = 1;
    o.pwt.max_samples = 48;
    o.seed = 29;
    return o;
  }

  /// Device geometry matching the m = 8 offset groups (the group size
  /// must be a multiple of the activated wordlines, paper Sec. III-A).
  sim::DeviceSimOptions geometry() const {
    sim::DeviceSimOptions d;
    d.xbar_rows = 32;
    d.xbar_cols = 32;
    d.active_wordlines = 8;
    return d;
  }

  /// Snapshot of every parameter value of the caller's network, for the
  /// byte-identity check.
  std::vector<float> param_bytes() {
    std::vector<float> out;
    for (nn::Param* p : net.params()) {
      const float* d = p->value.data();
      out.insert(out.end(), d, d + p->value.size());
    }
    return out;
  }
};

Fixture& fx() {
  static Fixture f;
  return f;
}

/// Full program/tune/evaluate pipeline over `cycles` programming cycles
/// on an already-constructed backend; returns the per-cycle accuracies.
std::vector<float> run_pipeline(ExecutionBackend& backend,
                                const nn::DataView& train,
                                const nn::DataView& test, int cycles) {
  std::vector<float> accs;
  for (int c = 0; c < cycles; ++c) {
    backend.program_cycle(static_cast<std::uint64_t>(c));
    backend.tune(train);
    accs.push_back(backend.evaluate(test));
  }
  return accs;
}

}  // namespace

TEST(Parity, DeterministicCountersMatchAcrossBackendsAllSchemes) {
  auto& f = fx();
  const Scheme kSchemes[] = {Scheme::Plain, Scheme::VAWO, Scheme::VAWOStar,
                             Scheme::PWT, Scheme::VAWOStarPWT};
  for (rram::CellKind cell : {rram::CellKind::SLC, rram::CellKind::MLC2}) {
    for (Scheme s : kSchemes) {
      SCOPED_TRACE(std::string(to_string(s)) + "/" +
                   (cell == rram::CellKind::SLC ? "SLC" : "MLC2"));
      const DeploymentPlan plan =
          compile_plan(f.net, f.options(s, cell), f.ds.train());
      EffectiveWeightBackend ew(plan, f.net);
      sim::DeviceSimBackend dev(plan, f.net, f.geometry());
      const std::vector<float> acc_a =
          run_pipeline(ew, f.ds.train(), f.ds.test(), /*cycles=*/2);
      const std::vector<float> acc_b =
          run_pipeline(dev, f.ds.train(), f.ds.test(), /*cycles=*/2);
      const DeployStats& a = ew.stats();
      const DeployStats& b = dev.stats();

      // Every deterministic pipeline counter must be bit-identical: both
      // backends draw devices and run PWT from the same seeded streams.
      EXPECT_EQ(a.cycles, b.cycles);
      EXPECT_EQ(a.weights_programmed, b.weights_programmed);
      EXPECT_EQ(a.device_pulses, b.device_pulses);
      EXPECT_EQ(a.pwt_epochs, b.pwt_epochs);
      EXPECT_EQ(a.pwt_batches, b.pwt_batches);
      EXPECT_EQ(a.pwt_offset_updates, b.pwt_offset_updates);
      ASSERT_EQ(a.pwt_epoch_loss.size(), b.pwt_epoch_loss.size());
      for (std::size_t i = 0; i < a.pwt_epoch_loss.size(); ++i) {
        EXPECT_FLOAT_EQ(a.pwt_epoch_loss[i], b.pwt_epoch_loss[i])
            << "pwt epoch " << i;
      }

      // Accuracies agree up to the ADC model and floating-point
      // summation order (the device path accumulates per-crossbar).
      ASSERT_EQ(acc_a.size(), acc_b.size());
      for (std::size_t i = 0; i < acc_a.size(); ++i) {
        EXPECT_NEAR(acc_a[i], acc_b[i], 0.15f) << "cycle " << i;
      }
    }
  }
}

TEST(Parity, SchemeCountersActuallyDiffer) {
  // Guard against the parity test passing vacuously: the counters it
  // compares must respond to the scheme (PWT adds tuning work).
  auto& f = fx();
  const DeploymentPlan plain = compile_plan(
      f.net, f.options(Scheme::Plain, rram::CellKind::SLC), f.ds.train());
  const DeploymentPlan full = compile_plan(
      f.net, f.options(Scheme::VAWOStarPWT, rram::CellKind::SLC),
      f.ds.train());
  EffectiveWeightBackend a(plain, f.net);
  EffectiveWeightBackend b(full, f.net);
  run_pipeline(a, f.ds.train(), f.ds.test(), 1);
  run_pipeline(b, f.ds.train(), f.ds.test(), 1);
  EXPECT_EQ(a.stats().pwt_epochs, 0);
  EXPECT_GT(b.stats().pwt_epochs, 0);
  EXPECT_GT(b.stats().pwt_batches, 0);
  EXPECT_GT(a.stats().device_pulses, 0);
}

TEST(Parity, CallerNetworkBytesUntouchedByBothBackends) {
  // Backends deploy onto private twins; the caller's trained parameters
  // must be byte-identical after a full pipeline on each backend.
  auto& f = fx();
  const std::vector<float> before = f.param_bytes();
  {
    const DeploymentPlan plan = compile_plan(
        f.net, f.options(Scheme::VAWOStarPWT, rram::CellKind::MLC2),
        f.ds.train());
    EffectiveWeightBackend ew(plan, f.net);
    run_pipeline(ew, f.ds.train(), f.ds.test(), 1);
    sim::DeviceSimBackend dev(plan, f.net, f.geometry());
    run_pipeline(dev, f.ds.train(), f.ds.test(), 1);
  }
  const std::vector<float> after = f.param_bytes();
  ASSERT_EQ(before.size(), after.size());
  EXPECT_EQ(0, std::memcmp(before.data(), after.data(),
                           before.size() * sizeof(float)));
}

TEST(Parity, SharedPlanSupportsManyIndependentBackends) {
  // Compile once, execute many: two effective-weight backends over the
  // same plan and the same cycle salt land identical accuracies, and an
  // interleaved third backend does not perturb them.
  auto& f = fx();
  const DeploymentPlan plan = compile_plan(
      f.net, f.options(Scheme::VAWOStar, rram::CellKind::SLC), f.ds.train());
  EffectiveWeightBackend b1(plan, f.net);
  EffectiveWeightBackend b2(plan, f.net);
  EffectiveWeightBackend noise(plan, f.net);
  b1.program_cycle(3);
  noise.program_cycle(5);  // different salt, interleaved
  b2.program_cycle(3);
  const float a1 = b1.evaluate(f.ds.test());
  (void)noise.evaluate(f.ds.test());
  const float a2 = b2.evaluate(f.ds.test());
  EXPECT_FLOAT_EQ(a1, a2);
}

TEST(Parity, ThrowingProgramCycleLeavesBackendDestructibleAndRetryable) {
  // Teardown regression: a plan corrupted to hold an out-of-range CTW
  // makes WeightProgrammer::slice throw mid-pipeline. The backend must
  // survive the throw (destruction and retry both safe), and the caller's
  // network must stay untouched.
  auto& f = fx();
  const std::vector<float> before = f.param_bytes();
  const DeployOptions o = f.options(Scheme::VAWOStarPWT, rram::CellKind::SLC);
  const DeploymentPlan clean = compile_plan(f.net, o, f.ds.train());

  DeploymentPlan corrupt = clean;  // plans are pure data: copyable
  ASSERT_FALSE(corrupt.layers.empty());
  ASSERT_FALSE(corrupt.layers[0].assign.ctw.empty());
  corrupt.layers[0].assign.ctw[0] = 1 << 20;  // far outside the weight range

  {
    EffectiveWeightBackend backend(corrupt, f.net);
    EXPECT_THROW(backend.program_cycle(0), std::invalid_argument);
    // The pipeline never reached deployment, so downstream stages refuse
    // to run instead of computing on half-programmed state.
    EXPECT_THROW(backend.tune(f.ds.train()), std::logic_error);
    EXPECT_THROW(backend.evaluate(f.ds.test()), std::logic_error);
    EXPECT_THROW(backend.program_cycle(0), std::invalid_argument);
  }  // first destruction: the backend, then its twin — must not throw
  // The device backend lays the nominal CTWs onto crossbars at
  // construction, so the corrupt plan is rejected before any cycle runs.
  EXPECT_THROW(sim::DeviceSimBackend(corrupt, f.net, f.geometry()),
               std::invalid_argument);

  // A fresh backend over the clean plan is unaffected by the failed runs.
  EffectiveWeightBackend good(clean, f.net);
  good.program_cycle(0);
  EXPECT_GT(good.evaluate(f.ds.test()), 0.0f);

  const std::vector<float> after = f.param_bytes();
  EXPECT_EQ(0, std::memcmp(before.data(), after.data(),
                           before.size() * sizeof(float)));
}
