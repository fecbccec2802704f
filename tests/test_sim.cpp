// Device-level crossbar executor: the hardware-faithful reference path,
// and its equivalence with the effective-weight fast path.
#include <gtest/gtest.h>

#include <cmath>

#include "core/plan.h"
#include "data/synthetic.h"
#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/sequential.h"
#include "sim/crossbar_executor.h"
#include "sim/device_backend.h"

using namespace rdo;
using namespace rdo::sim;
using rdo::nn::Rng;

namespace {

quant::LayerQuant make_lq(std::int64_t rows, std::int64_t cols,
                          std::uint64_t seed) {
  quant::LayerQuant lq;
  lq.bits = 8;
  lq.rows = rows;
  lq.cols = cols;
  lq.scale = 0.01f;
  lq.zero = 128;
  Rng rng(seed);
  lq.q.resize(static_cast<std::size_t>(rows * cols));
  for (auto& v : lq.q) v = static_cast<int>(rng.uniform_int(0, 255));
  return lq;
}

core::PlanLayer plan_layer(const quant::LayerQuant& lq,
                           core::VawoResult assign, int m = 8) {
  core::PlanLayer pl;
  pl.fan_in = lq.rows;
  pl.fan_out = lq.cols;
  pl.lq = lq;
  pl.assign = std::move(assign);
  pl.m = m;
  return pl;
}

rram::WeightProgrammer programmer(
    rram::CellKind kind, double sigma,
    rram::VariationScope scope = rram::VariationScope::PerWeight) {
  return rram::WeightProgrammer({kind, 200.0}, 8, {sigma, 0.0, scope});
}

rram::CrossbarConfig small_xbar(rram::CellKind kind, int adc_bits = 0) {
  rram::CrossbarConfig cfg;
  cfg.rows = 16;
  cfg.cols = kind == rram::CellKind::SLC ? 64 : 32;  // 8 weights per row
  cfg.cell = {kind, 200.0};
  cfg.active_wordlines = 4;
  cfg.adc_bits = adc_bits;
  return cfg;
}

/// One programming cycle of every CTW, flat [weights * cells_per_weight]:
/// the layout EffectiveWeightBackend keeps for the device level.
std::vector<double> draw_cells(const core::PlanLayer& pl,
                               const rram::WeightProgrammer& prog,
                               Rng& rng) {
  std::vector<double> cells;
  for (int v : pl.assign.ctw) {
    for (double c : prog.program_cells(v, rng)) cells.push_back(c);
  }
  return cells;
}

/// The CRW of every weight composed from its drawn cells.
std::vector<double> compose_crws(const std::vector<double>& cells,
                                 const rram::WeightProgrammer& prog) {
  const auto cpw = static_cast<std::size_t>(prog.cells_per_weight());
  std::vector<double> crw;
  for (std::size_t i = 0; i < cells.size(); i += cpw) {
    crw.push_back(prog.compose(std::vector<double>(
        cells.begin() + static_cast<std::ptrdiff_t>(i),
        cells.begin() + static_cast<std::ptrdiff_t>(i + cpw))));
  }
  return crw;
}

std::vector<double> fast_path(const quant::LayerQuant& lq,
                              const core::VawoResult& assign,
                              const std::vector<double>& crw, int m,
                              int maxw, const std::vector<double>& x) {
  // Effective-weight computation: W_eff = scale * (NRW - zero).
  std::vector<double> y(static_cast<std::size_t>(lq.cols), 0.0);
  for (std::int64_t c = 0; c < lq.cols; ++c) {
    double acc = 0.0;
    for (std::int64_t r = 0; r < lq.rows; ++r) {
      const std::size_t gi =
          static_cast<std::size_t>(core::group_of_row(r, m) * lq.cols + c);
      const double v = crw[static_cast<std::size_t>(r * lq.cols + c)];
      const double b = assign.offsets[gi];
      const double nrw =
          assign.complemented[gi] ? static_cast<double>(maxw) - v - b
                                  : v + b;
      acc += x[static_cast<std::size_t>(r)] * lq.scale * (nrw - lq.zero);
    }
    y[static_cast<std::size_t>(c)] = acc;
  }
  return y;
}

}  // namespace

TEST(Sim, RejectsMisalignedGranularity) {
  const auto lq = make_lq(16, 4, 1);
  const auto pl = plan_layer(lq, core::plain_layer(lq, 6), 6);
  const auto prog = programmer(rram::CellKind::MLC2, 0.0);
  EXPECT_THROW(
      CrossbarLayerExecutor(pl, prog, small_xbar(rram::CellKind::MLC2)),
      std::invalid_argument);
}

TEST(Sim, RejectsCtwOutsideTheWeightRange) {
  // The cells cannot hold the CTW, so the layer is refused before any
  // programming cycle.
  const auto lq = make_lq(16, 4, 2);
  auto pl = plan_layer(lq, core::plain_layer(lq, 8));
  const auto prog = programmer(rram::CellKind::MLC2, 0.0);
  pl.assign.ctw[5] = 256;
  EXPECT_THROW(
      CrossbarLayerExecutor(pl, prog, small_xbar(rram::CellKind::MLC2)),
      std::invalid_argument);
  pl.assign.ctw[5] = -1;
  EXPECT_THROW(
      CrossbarLayerExecutor(pl, prog, small_xbar(rram::CellKind::MLC2)),
      std::invalid_argument);
}

TEST(Sim, IdealDevicesReproduceIntegerMatrixProduct) {
  const auto lq = make_lq(16, 4, 3);
  const auto pl = plan_layer(lq, core::plain_layer(lq, 8));
  const auto prog = programmer(rram::CellKind::MLC2, 0.0);
  CrossbarLayerExecutor exec(pl, prog, small_xbar(rram::CellKind::MLC2));
  Rng rng(4);
  exec.program_cell_values(draw_cells(pl, prog, rng));
  Rng xr(5);
  std::vector<double> x(16);
  for (auto& v : x) v = xr.uniform(0.0, 1.0);
  const auto y = exec.forward(x, pl.assign.offsets);
  for (std::int64_t c = 0; c < 4; ++c) {
    double expect = 0.0, sum_x = 0.0;
    for (std::int64_t r = 0; r < 16; ++r) {
      expect += x[static_cast<std::size_t>(r)] * lq.at(r, c);
      sum_x += x[static_cast<std::size_t>(r)];
    }
    expect = lq.scale * (expect - lq.zero * sum_x);
    EXPECT_NEAR(y[static_cast<std::size_t>(c)], expect, 1e-9);
  }
}

TEST(Sim, ProgramCellValuesRejectsWrongCount) {
  const auto lq = make_lq(16, 4, 6);
  const auto pl = plan_layer(lq, core::plain_layer(lq, 8));
  const auto prog = programmer(rram::CellKind::MLC2, 0.0);
  CrossbarLayerExecutor exec(pl, prog, small_xbar(rram::CellKind::MLC2));
  Rng rng(7);
  std::vector<double> cells = draw_cells(pl, prog, rng);
  cells.pop_back();
  EXPECT_THROW(exec.program_cell_values(cells), std::invalid_argument);
}

/// Layer shapes of the equivalence grid: 24 x 4 spans 2 row tiles (16 + 8
/// rows) of one column tile; 24 x 11 spans 2 x 2 tiles with a ragged last
/// row tile (8 rows) and column tile (3 weights of 8).
struct LayerShape {
  std::int64_t rows, cols;
};

void PrintTo(const LayerShape& s, std::ostream* os) {
  *os << s.rows << "x" << s.cols;
}

class SimEquivalence
    : public ::testing::TestWithParam<std::tuple<
          rram::CellKind, rram::VariationScope, bool, LayerShape>> {};

TEST_P(SimEquivalence, DeviceLevelForwardEqualsFastPathOnMeasuredCrws) {
  // The key equivalence: the device-level pipeline (group reads, digital
  // Sum+Multi, complement post-processing, ISAAC shift) equals the
  // effective-weight computation on the CRWs composed from the same cell
  // draws — with an ideal ADC, exactly. Every weight's cells are distinct
  // draws, so a cell laid onto the wrong tile, row or bitline shows.
  const auto [kind, scope, use_vawo, shape] = GetParam();
  const auto lq = make_lq(shape.rows, shape.cols, 8);
  const auto prog = programmer(kind, 0.5, scope);
  core::VawoResult assign;
  if (use_vawo) {
    const rram::RLut lut = rram::RLut::build_analytic(prog);
    std::vector<double> grads(lq.q.size(), 1.0);
    core::VawoOptions vopt;
    vopt.offsets.m = 8;
    vopt.use_complement = true;
    assign = core::vawo_layer(lq, grads, lut, vopt);
  } else {
    assign = core::plain_layer(lq, 8);
  }
  const auto pl = plan_layer(lq, std::move(assign));
  CrossbarLayerExecutor exec(pl, prog, small_xbar(kind));
  ASSERT_EQ(exec.crossbar_count(), shape.cols > 8 ? 4 : 2);
  Rng rng(9);
  const std::vector<double> cells = draw_cells(pl, prog, rng);
  exec.program_cell_values(cells);
  const auto crw = compose_crws(cells, prog);

  Rng xr(10);
  std::vector<double> x(static_cast<std::size_t>(shape.rows));
  for (auto& v : x) v = xr.uniform(0.0, 1.0);
  const auto y_device = exec.forward(x, pl.assign.offsets);
  const auto y_fast = fast_path(lq, pl.assign, crw, 8, 255, x);
  for (std::int64_t c = 0; c < shape.cols; ++c) {
    const double fast = y_fast[static_cast<std::size_t>(c)];
    EXPECT_NEAR(y_device[static_cast<std::size_t>(c)], fast,
                1e-6 * std::max(1.0, std::fabs(fast)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    CellsScopesSchemesShapes, SimEquivalence,
    ::testing::Combine(::testing::Values(rram::CellKind::SLC,
                                         rram::CellKind::MLC2),
                       ::testing::Values(rram::VariationScope::PerWeight,
                                         rram::VariationScope::PerCell),
                       ::testing::Bool(),
                       ::testing::Values(LayerShape{24, 4},
                                         LayerShape{24, 11})));

TEST(Sim, AdcQuantizationBoundsTheFastPathGap) {
  // With a finite ADC the device-level output deviates from the fast path
  // by at most the accumulated per-group quantization error.
  const auto lq = make_lq(16, 4, 11);
  const auto pl = plan_layer(lq, core::plain_layer(lq, 8));
  const auto prog = programmer(rram::CellKind::MLC2, 0.3);
  CrossbarLayerExecutor exec(pl, prog,
                             small_xbar(rram::CellKind::MLC2, /*adc_bits=*/8));
  Rng rng(12);
  const std::vector<double> cells = draw_cells(pl, prog, rng);
  exec.program_cell_values(cells);
  const auto crw = compose_crws(cells, prog);
  Rng xr(13);
  std::vector<double> x(16);
  for (auto& v : x) v = xr.uniform(0.0, 1.0);
  const auto y_device = exec.forward(x, pl.assign.offsets);
  const auto y_fast = fast_path(lq, pl.assign, crw, 8, 255, x);
  // 4 activation groups per VMM, 4 bit-slice columns with radix up to
  // 4^3: worst-case half-step each, times the dequant scale.
  const double full_scale = 4.0 * 3.0;
  const double step = full_scale / 255.0;
  const double radix_sum = 1 + 4 + 16 + 64;
  const double bound = lq.scale * 4 * 0.5 * step * radix_sum + 1e-9;
  for (std::int64_t c = 0; c < 4; ++c) {
    EXPECT_LE(std::fabs(y_device[static_cast<std::size_t>(c)] -
                        y_fast[static_cast<std::size_t>(c)]),
              bound);
  }
}

TEST(Sim, OffsetsChangeOutput) {
  const auto lq = make_lq(16, 2, 14);
  const auto pl = plan_layer(lq, core::plain_layer(lq, 8));
  const auto prog = programmer(rram::CellKind::MLC2, 0.0);
  CrossbarLayerExecutor exec(pl, prog, small_xbar(rram::CellKind::MLC2));
  Rng rng(15);
  exec.program_cell_values(draw_cells(pl, prog, rng));
  std::vector<double> x(16, 1.0);
  const auto y0 = exec.forward(x, pl.assign.offsets);
  const std::vector<float> offs(pl.assign.offsets.size(), 5.0f);
  const auto y1 = exec.forward(x, offs);
  // b = 5 shared by all groups with sum(x) = 8 per group, 2 groups:
  // integer output rises by 5 * 16; effective by scale * 80.
  EXPECT_NEAR(y1[0] - y0[0], 0.01 * 5 * 16, 1e-6);
  // One register per offset group, no more and no fewer.
  EXPECT_THROW((void)exec.forward(x, std::vector<float>(3, 0.0f)),
               std::invalid_argument);
}

TEST(Sim, BitSerialEqualsDirectOnQuantizedInputs) {
  // The whole pipeline is linear in x, so streaming input bits and
  // shift-adding the partials reproduces the direct VMM on the quantized
  // inputs exactly (ideal ADC) — ISAAC's compute scheme.
  const auto lq = make_lq(16, 4, 20);
  const auto pl = plan_layer(lq, core::plain_layer(lq, 8));
  const auto prog = programmer(rram::CellKind::MLC2, 0.4);
  CrossbarLayerExecutor exec(pl, prog, small_xbar(rram::CellKind::MLC2));
  Rng rng(21);
  exec.program_cell_values(draw_cells(pl, prog, rng));
  Rng xr(22);
  std::vector<double> x(16);
  for (auto& v : x) v = xr.uniform(0.0, 1.0);

  const int input_bits = 8;
  const double x_max = 1.0;
  const int levels = (1 << input_bits) - 1;
  std::vector<double> xq(16);
  for (std::size_t i = 0; i < 16; ++i) {
    xq[i] = std::round(x[i] * levels) / levels;
  }
  const auto y_serial =
      exec.forward_bit_serial(x, pl.assign.offsets, input_bits, x_max);
  const auto y_direct = exec.forward(xq, pl.assign.offsets);
  for (std::int64_t c = 0; c < 4; ++c) {
    EXPECT_NEAR(y_serial[static_cast<std::size_t>(c)],
                y_direct[static_cast<std::size_t>(c)], 1e-6);
  }
}

TEST(Sim, BitSerialRejectsBadFormat) {
  const auto lq = make_lq(16, 2, 23);
  const auto pl = plan_layer(lq, core::plain_layer(lq, 8));
  const auto prog = programmer(rram::CellKind::MLC2, 0.0);
  const CrossbarLayerExecutor exec(pl, prog, small_xbar(rram::CellKind::MLC2));
  std::vector<double> x(16, 0.5);
  EXPECT_THROW((void)exec.forward_bit_serial(x, pl.assign.offsets, 0, 1.0),
               std::invalid_argument);
  EXPECT_THROW((void)exec.forward_bit_serial(x, pl.assign.offsets, 8, 0.0),
               std::invalid_argument);
}

TEST(Sim, RejectsGroupStraddlingRowTileBoundary) {
  // m = 12 passes the active-wordline check (12 % 4 == 0) but does not
  // divide the 16-row crossbar: the second offset group (rows 12..23)
  // would straddle the tile boundary, splitting one logical offset
  // register across two physical tiles (cf. m = 96 on 128-row crossbars).
  const auto lq = make_lq(32, 4, 25);
  const auto pl = plan_layer(lq, core::plain_layer(lq, 12), 12);
  const auto prog = programmer(rram::CellKind::MLC2, 0.0);
  EXPECT_THROW(
      CrossbarLayerExecutor(pl, prog, small_xbar(rram::CellKind::MLC2)),
      std::invalid_argument);
}

TEST(Sim, AcceptsWholeTileGroups) {
  // m equal to the tile height (one group per tile column) is legal.
  const auto lq = make_lq(32, 4, 27);
  const auto pl = plan_layer(lq, core::plain_layer(lq, 16), 16);
  const auto prog = programmer(rram::CellKind::MLC2, 0.0);
  EXPECT_NO_THROW(
      CrossbarLayerExecutor(pl, prog, small_xbar(rram::CellKind::MLC2)));
}

TEST(Sim, BitSerialRejectsNegativeInputs) {
  // The DAC streams unsigned magnitudes; silently clamping a negative
  // activation to 0 would corrupt non-ReLU inputs, so it must throw.
  const auto lq = make_lq(16, 2, 29);
  const auto pl = plan_layer(lq, core::plain_layer(lq, 8));
  const auto prog = programmer(rram::CellKind::MLC2, 0.0);
  CrossbarLayerExecutor exec(pl, prog, small_xbar(rram::CellKind::MLC2));
  Rng rng(30);
  exec.program_cell_values(draw_cells(pl, prog, rng));
  std::vector<double> x(16, 0.5);
  x[3] = -0.25;
  EXPECT_THROW((void)exec.forward_bit_serial(x, pl.assign.offsets, 8, 1.0),
               std::invalid_argument);
  x[3] = 0.25;
  EXPECT_NO_THROW((void)exec.forward_bit_serial(x, pl.assign.offsets, 8, 1.0));
}

TEST(Sim, CrossbarCountMatchesTiling) {
  const auto lq = make_lq(40, 10, 16);
  const auto pl = plan_layer(lq, core::plain_layer(lq, 8));
  const auto prog = programmer(rram::CellKind::MLC2, 0.0);
  // 16 rows/tile -> 3 row tiles; 8 weights per tile row -> 2 col tiles.
  const CrossbarLayerExecutor exec(pl, prog, small_xbar(rram::CellKind::MLC2));
  EXPECT_EQ(exec.crossbar_count(), 6);
}

TEST(DeviceSim, ForwardRequiresAProgrammedCycle) {
  // Until program_cycle() has run, the crossbars hold no programmed
  // cells: forward() and forward_image() refuse, as evaluate() does,
  // instead of reading unprogrammed HRS devices.
  data::SyntheticSpec spec = data::mnist_like();
  spec.height = spec.width = 4;
  spec.classes = 2;
  spec.train_per_class = 4;
  spec.test_per_class = 1;
  const data::SyntheticDataset ds = data::make_synthetic(spec);
  Rng rng(31);
  nn::Sequential net;
  net.emplace<nn::Flatten>();
  net.emplace<nn::Dense>(16, 2, rng);
  core::DeployOptions o;
  o.lut_k_sets = 4;
  o.lut_j_cycles = 2;
  const core::DeploymentPlan plan = core::compile_plan(net, o, ds.train());
  DeviceSimBackend backend(plan, net);
  const std::vector<double> x(16, 0.5);
  EXPECT_THROW((void)backend.forward(x), std::invalid_argument);
  EXPECT_THROW((void)backend.forward_image(x, 1, 4, 4),
               std::invalid_argument);
  backend.program_cycle(0);
  EXPECT_EQ(backend.forward(x).size(), 2u);
}
