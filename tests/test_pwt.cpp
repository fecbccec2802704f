// Post-writing tuning (paper §III-D): offsets trained by backprop.
#include <gtest/gtest.h>

#include <cmath>

#include "core/backend.h"
#include "core/deploy.h"
#include "core/plan.h"
#include "data/synthetic.h"
#include "core/check.h"
#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/pooling.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"

using namespace rdo;
using namespace rdo::core;

namespace {

struct Fixture {
  data::SyntheticDataset ds;
  nn::Sequential net;

  Fixture() {
    data::SyntheticSpec spec = data::mnist_like();
    spec.height = spec.width = 10;
    spec.classes = 6;
    spec.train_per_class = 25;
    spec.test_per_class = 10;
    spec.seed = 9;
    ds = data::make_synthetic(spec);
    nn::Rng rng(4);
    net.emplace<nn::Flatten>();
    net.emplace<nn::Dense>(100, 24, rng);
    net.emplace<nn::ReLU>();
    net.emplace<nn::Dense>(24, 6, rng);
    nn::SGD opt(net.params(), 0.1f);
    for (int e = 0; e < 8; ++e) {
      nn::train_epoch(net, opt, ds.train(), 16, rng);
    }
  }

  DeployOptions options(Scheme s) const {
    DeployOptions o;
    o.scheme = s;
    o.offsets.m = 8;
    o.cell = {rram::CellKind::SLC, 200.0};
    o.variation.sigma = 0.5;
    o.lut_k_sets = 8;
    o.lut_j_cycles = 8;
    o.pwt.epochs = 3;
    o.seed = 11;
    return o;
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

/// Training loss of a backend's deployed twin (the caller's network never
/// carries deployed weights, so loss probes must go through the backend).
float deployed_loss(EffectiveWeightBackend& backend,
                    const nn::DataView& data) {
  return nn::evaluate(backend.network(), data, 64).loss;
}

}  // namespace

TEST(Pwt, TuningReducesTrainingLoss) {
  auto& f = fixture();
  DeployOptions o = f.options(Scheme::PWT);
  const DeploymentPlan plan = compile_plan(f.net, o, f.ds.train());
  EffectiveWeightBackend backend(plan, f.net);
  backend.program_cycle(0);
  const float loss_before = deployed_loss(backend, f.ds.train());
  backend.tune(f.ds.train());
  const float loss_after = deployed_loss(backend, f.ds.train());
  EXPECT_LT(loss_after, loss_before);
}

TEST(Pwt, TuningImprovesTestAccuracy) {
  auto& f = fixture();
  DeployOptions plain = f.options(Scheme::Plain);
  DeployOptions pwt = f.options(Scheme::PWT);
  const float a_plain =
      run_scheme(f.net, plain, f.ds.train(), f.ds.test(), 2).mean_accuracy;
  const float a_pwt =
      run_scheme(f.net, pwt, f.ds.train(), f.ds.test(), 2).mean_accuracy;
  EXPECT_GT(a_pwt, a_plain + 0.05f);
}

TEST(Pwt, OffsetsLandOnRegisterGrid) {
  auto& f = fixture();
  DeployOptions o = f.options(Scheme::PWT);
  const DeploymentPlan plan = compile_plan(f.net, o, f.ds.train());
  EffectiveWeightBackend backend(plan, f.net);
  backend.program_cycle(0);
  backend.tune(f.ds.train());
  for (const EffectiveWeightBackend::LayerState& ls : backend.layers()) {
    for (float b : ls.offsets) {
      EXPECT_FLOAT_EQ(b, std::round(b));
      EXPECT_GE(b, -128.0f);
      EXPECT_LE(b, 127.0f);
    }
  }
}

TEST(Pwt, SomeOffsetsBecomeNonZero) {
  auto& f = fixture();
  DeployOptions o = f.options(Scheme::PWT);
  const DeploymentPlan plan = compile_plan(f.net, o, f.ds.train());
  EffectiveWeightBackend backend(plan, f.net);
  backend.program_cycle(0);
  backend.tune(f.ds.train());
  int nonzero = 0;
  for (const EffectiveWeightBackend::LayerState& ls : backend.layers()) {
    for (float b : ls.offsets) {
      if (b != 0.0f) ++nonzero;
    }
  }
  EXPECT_GT(nonzero, 0);
}

TEST(Pwt, TuneIsNoOpForNonPwtSchemes) {
  auto& f = fixture();
  DeployOptions o = f.options(Scheme::VAWOStar);
  const DeploymentPlan plan = compile_plan(f.net, o, f.ds.train());
  EffectiveWeightBackend backend(plan, f.net);
  backend.program_cycle(0);
  std::vector<float> before;
  for (const EffectiveWeightBackend::LayerState& ls : backend.layers()) {
    before.insert(before.end(), ls.offsets.begin(), ls.offsets.end());
  }
  backend.tune(f.ds.train());
  std::size_t k = 0;
  for (const EffectiveWeightBackend::LayerState& ls : backend.layers()) {
    for (float b : ls.offsets) EXPECT_FLOAT_EQ(b, before[k++]);
  }
}

TEST(Pwt, EachCycleStartsFromAPrioriOffsets) {
  // After tuning cycle 0, programming cycle 1 must reset the working
  // offsets to the VAWO (a-priori) values from the plan before re-tuning.
  auto& f = fixture();
  DeployOptions o = f.options(Scheme::VAWOStarPWT);
  const DeploymentPlan plan = compile_plan(f.net, o, f.ds.train());
  EffectiveWeightBackend backend(plan, f.net);
  backend.program_cycle(0);
  backend.tune(f.ds.train());
  backend.program_cycle(1);
  for (std::size_t li = 0; li < backend.layers().size(); ++li) {
    const auto& offsets = backend.layers()[li].offsets;
    const auto& apriori = plan.layers[li].assign.offsets;
    ASSERT_EQ(offsets.size(), apriori.size());
    for (std::size_t i = 0; i < offsets.size(); ++i) {
      EXPECT_FLOAT_EQ(offsets[i], apriori[i]);
    }
  }
}

TEST(Pwt, DoesNotHurtACleanDeployment) {
  // With zero variation there is nothing to repair; tuning must not make
  // the deployed network meaningfully worse.
  auto& f = fixture();
  DeployOptions o = f.options(Scheme::PWT);
  o.variation.sigma = 0.0;
  const DeploymentPlan plan = compile_plan(f.net, o, f.ds.train());
  EffectiveWeightBackend backend(plan, f.net);
  backend.program_cycle(0);
  const float clean = backend.evaluate(f.ds.test());
  backend.tune(f.ds.train());
  const float tuned = backend.evaluate(f.ds.test());
  EXPECT_GE(tuned, clean - 0.05f);
}

TEST(Pwt, ComplementedGroupsTuneWithFlippedSign) {
  // VAWO*+PWT on a high-variation deployment: tuning must still reduce
  // the training loss even when many groups are stored complemented.
  auto& f = fixture();
  DeployOptions o = f.options(Scheme::VAWOStarPWT);
  o.variation.sigma = 0.8;
  const DeploymentPlan plan = compile_plan(f.net, o, f.ds.train());
  int complemented = 0;
  for (const PlanLayer& pl : plan.layers) {
    for (auto c : pl.assign.complemented) complemented += c;
  }
  ASSERT_GT(complemented, 0);  // the premise: some groups are inverted
  EffectiveWeightBackend backend(plan, f.net);
  backend.program_cycle(0);
  const float before = deployed_loss(backend, f.ds.train());
  backend.tune(f.ds.train());
  const float after = deployed_loss(backend, f.ds.train());
  EXPECT_LT(after, before + 1e-4f);
}

namespace {

/// An idle twin holds no gradients and no forward caches: with gradients
/// re-allocated by hand, every crossbar layer still refuses backward()
/// for lack of a cached input.
void expect_idle(EffectiveWeightBackend& backend) {
  nn::Layer& net = backend.network();
  for (nn::Param* p : net.params()) EXPECT_EQ(p->grad.size(), 0);
  std::unique_ptr<nn::Layer> probe = net.clone();
  for (nn::Param* p : probe->params()) p->grad = nn::Tensor(p->value.shape());
  std::vector<nn::Layer*> all;
  nn::collect_layers(probe.get(), all);
  int crossbar_layers = 0;
  for (nn::Layer* l : all) {
    if (dynamic_cast<nn::MatrixOp*>(l) == nullptr) continue;
    ++crossbar_layers;
    EXPECT_THROW(l->backward(nn::Tensor({1, 1, 1, 1})),
                 core::ContractViolation)
        << l->name() << " kept its cached input";
  }
  EXPECT_EQ(crossbar_layers, 3);
}

}  // namespace

TEST(Pwt, IdleTwinHoldsNoCachesAndReplaysExactly) {
  // A conv twin with batch norm and a residual block: tune() and
  // evaluate() release every cache and gradient, and a later round on the
  // same backend reproduces the first one's accuracy and DeployStats.
  auto& f = fixture();
  nn::Rng rng(12);
  nn::Sequential net;
  net.emplace<nn::Conv2D>(1, 4, 3, 1, 1, rng);
  net.emplace<nn::BatchNorm2D>(4);
  net.emplace<nn::ReLU>();
  auto main = std::make_unique<nn::Sequential>();
  main->emplace<nn::Conv2D>(4, 4, 3, 1, 1, rng, /*bias=*/false);
  main->emplace<nn::BatchNorm2D>(4);
  net.push(std::make_unique<nn::Residual>(std::move(main)));
  net.emplace<nn::MaxPool2D>(2);
  net.emplace<nn::Flatten>();
  net.emplace<nn::Dense>(4 * 5 * 5, 6, rng);
  nn::SGD opt(net.params(), 0.05f);
  for (int e = 0; e < 3; ++e) nn::train_epoch(net, opt, f.ds.train(), 16, rng);

  const DeploymentPlan plan =
      compile_plan(net, f.options(Scheme::PWT), f.ds.train());
  EffectiveWeightBackend backend(plan, net);
  expect_idle(backend);
  backend.program_cycle(0);
  backend.tune(f.ds.train());
  expect_idle(backend);
  const float first = backend.evaluate(f.ds.test());
  expect_idle(backend);
  const DeployStats once = backend.stats();

  backend.program_cycle(0);
  backend.tune(f.ds.train());
  EXPECT_EQ(backend.evaluate(f.ds.test()), first);
  expect_idle(backend);
  DeployStats twice = once;
  twice.merge(once);
  EXPECT_EQ(deploy_stats_json(backend.stats()).dump(),
            deploy_stats_json(twice).dump());
  EXPECT_GT(once.pwt_offset_updates, 0);
}
