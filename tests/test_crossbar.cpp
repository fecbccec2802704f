// Device-level crossbar simulation: programming, VMM, ADC, equivalence
// with the composed-CRW fast path used by the deployment pipeline. Every
// array is programmed the one way the device backend does it: cell
// values drawn by WeightProgrammer::program_cells, written with
// Crossbar::program_values.
#include <gtest/gtest.h>

#include <cmath>

#include "rram/crossbar.h"
#include "rram/programmer.h"

using namespace rdo::rram;
using rdo::nn::Rng;

namespace {

CrossbarConfig small_cfg(CellKind kind = CellKind::SLC, int rows = 16,
                         int cols = 16, int active = 4) {
  CrossbarConfig cfg;
  cfg.rows = rows;
  cfg.cols = cols;
  cfg.cell = {kind, 200.0};
  cfg.active_wordlines = active;
  return cfg;
}

WeightProgrammer programmer(CellKind kind, double sigma = 0.0) {
  return WeightProgrammer({kind, 200.0}, 8, {sigma, 0.0});
}

/// One programming cycle of a row-major CTW matrix whose rows fill the
/// crossbar rows exactly: the weights' cells, LSB first, side by side.
std::vector<double> draw_values(const WeightProgrammer& prog,
                                const std::vector<int>& ctw, Rng& rng) {
  std::vector<double> values;
  for (int v : ctw) {
    for (double c : prog.program_cells(v, rng)) values.push_back(c);
  }
  return values;
}

/// The nominal cell states of the same layout.
std::vector<int> cell_states(const WeightProgrammer& prog,
                             const std::vector<int>& ctw) {
  std::vector<int> states;
  for (int v : ctw) {
    for (int s : prog.slice(v)) states.push_back(s);
  }
  return states;
}

std::vector<int> random_ctws(std::size_t n, Rng& rng) {
  std::vector<int> ctw(n);
  for (auto& v : ctw) v = static_cast<int>(rng.uniform_int(0, 255));
  return ctw;
}

}  // namespace

TEST(Crossbar, RejectsBadGeometry) {
  CrossbarConfig cfg = small_cfg();
  cfg.active_wordlines = 0;
  EXPECT_THROW(Crossbar{cfg}, std::invalid_argument);
  cfg = small_cfg();
  cfg.active_wordlines = 17;
  EXPECT_THROW(Crossbar{cfg}, std::invalid_argument);
}

TEST(Crossbar, ProgramRejectsWrongCount) {
  Crossbar xb(small_cfg());
  std::vector<double> too_few(10, 0.0);
  EXPECT_THROW(xb.program_values(too_few), std::invalid_argument);
}

TEST(Crossbar, UnprogrammedCellsReadAsIdealHrs) {
  const Crossbar xb(small_cfg(CellKind::MLC2));
  EXPECT_EQ(xb.cell_value(0, 0), 0.0);
  EXPECT_EQ(xb.cell_value(15, 15), 0.0);
}

TEST(Crossbar, IdealProgramReadsExactStates) {
  // 16 MLC2 columns hold 4 weights of 4 cells per row.
  const WeightProgrammer prog = programmer(CellKind::MLC2);
  Crossbar xb(small_cfg(CellKind::MLC2));
  std::vector<int> ctw(16 * 4, 0xE4);  // cells LSB first: 0, 1, 2, 3
  Rng rng(1);
  xb.program_values(draw_values(prog, ctw, rng));
  EXPECT_DOUBLE_EQ(xb.cell_value(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(xb.cell_value(0, 3), 3.0);
}

TEST(Crossbar, IdealVmmEqualsIntegerMatrixProduct) {
  const WeightProgrammer prog = programmer(CellKind::MLC2);
  Crossbar xb(small_cfg(CellKind::MLC2));
  Rng rng(2);
  const std::vector<int> ctw = random_ctws(16 * 4, rng);
  const std::vector<int> states = cell_states(prog, ctw);
  xb.program_values(draw_values(prog, ctw, rng));
  std::vector<double> x(16);
  for (auto& v : x) v = rng.uniform(0.0, 1.0);
  const auto y = xb.vmm(x);
  for (int c = 0; c < 16; ++c) {
    double expect = 0.0;
    for (int r = 0; r < 16; ++r) {
      expect += x[static_cast<std::size_t>(r)] *
                states[static_cast<std::size_t>(r * 16 + c)];
    }
    EXPECT_NEAR(y[static_cast<std::size_t>(c)], expect, 1e-9);
  }
}

TEST(Crossbar, VmmInvariantToActivationGrouping) {
  // With an ideal ADC the group-by-group readout must equal the full sum,
  // regardless of how many wordlines are active per cycle: the same cell
  // draws read 4 and 16 wordlines at a time, and by hand.
  const WeightProgrammer prog = programmer(CellKind::SLC, 0.7);
  Rng rng(3);
  const std::vector<double> values =
      draw_values(prog, random_ctws(16 * 2, rng), rng);
  Crossbar xb(small_cfg(CellKind::SLC));
  xb.program_values(values);
  Crossbar xb16(small_cfg(CellKind::SLC, 16, 16, 16));
  xb16.program_values(values);
  std::vector<double> x(16);
  for (auto& v : x) v = rng.uniform(0.0, 1.0);

  const auto y4 = xb.vmm(x);
  const auto y16 = xb16.vmm(x);
  for (int c = 0; c < 16; ++c) {
    double expect = 0.0;
    for (int r = 0; r < 16; ++r) {
      expect += x[static_cast<std::size_t>(r)] * xb.cell_value(r, c);
    }
    EXPECT_NEAR(y4[static_cast<std::size_t>(c)], expect, 1e-9);
    EXPECT_NEAR(y16[static_cast<std::size_t>(c)], expect, 1e-9);
  }
}

TEST(Crossbar, CyclesPerVmm) {
  EXPECT_EQ(Crossbar(small_cfg(CellKind::SLC, 16, 16, 4)).cycles_per_vmm(),
            4);
  EXPECT_EQ(Crossbar(small_cfg(CellKind::SLC, 128, 128, 16))
                .cycles_per_vmm(),
            8);
  EXPECT_EQ(Crossbar(small_cfg(CellKind::SLC, 15, 16, 4)).cycles_per_vmm(),
            4);
}

TEST(Crossbar, VmmRejectsWrongInputLength) {
  Crossbar xb(small_cfg());
  std::vector<double> x(5, 1.0);
  EXPECT_THROW(xb.vmm(x), std::invalid_argument);
}

TEST(Crossbar, AdcQuantizationCoarsensOutput) {
  // 16 SLC columns hold 2 weights of 8 cells per row.
  const WeightProgrammer prog = programmer(CellKind::SLC);
  CrossbarConfig cfg = small_cfg(CellKind::SLC);
  cfg.adc_bits = 2;  // 3 levels over full scale 4
  Crossbar xb(cfg);
  std::vector<int> ctw(16 * 2, 0);
  ctw[0] = 1;  // only cell (0,0) set
  Rng rng(4);
  xb.program_values(draw_values(prog, ctw, rng));
  std::vector<double> x(16, 0.0);
  x[0] = 0.4;  // partial sum 0.4 of full-scale 4 -> quantizes to 1/3*4
  const auto y = xb.vmm(x);
  EXPECT_NEAR(y[0], 4.0 / 3.0 * std::round(0.4 / 4.0 * 3.0) , 1e-9);
}

TEST(Crossbar, IdealAdcBitsZeroIsExact) {
  const WeightProgrammer prog = programmer(CellKind::SLC);
  CrossbarConfig cfg = small_cfg(CellKind::SLC);
  cfg.adc_bits = 0;
  Crossbar xb(cfg);
  Rng rng(5);
  xb.program_values(draw_values(prog, std::vector<int>(16 * 2, 255), rng));
  std::vector<double> x(16, 0.137);
  const auto y = xb.vmm(x);
  EXPECT_NEAR(y[0], 0.137 * 16, 1e-9);
}

TEST(Crossbar, EquivalenceWithComposedCrwPath) {
  // The deployment pipeline composes CRWs via WeightProgrammer instead of
  // simulating every cell in a Crossbar. Verify the two paths agree: a
  // weight sliced across columns read by the crossbar, radix-recombined,
  // equals WeightProgrammer::compose of the same cell values.
  const WeightProgrammer prog = programmer(CellKind::MLC2, 0.5);
  Crossbar xb(small_cfg(CellKind::MLC2, 4, 4, 4));  // one weight per row
  Rng rng(9);
  const std::vector<double> values =
      draw_values(prog, {0xA7, 0, 0, 0}, rng);
  xb.program_values(values);
  // Read the four cells of row 0 and recombine.
  std::vector<double> vals(4);
  for (int k = 0; k < 4; ++k) vals[static_cast<std::size_t>(k)] = xb.cell_value(0, k);
  const double crw = prog.compose(vals);
  EXPECT_EQ(crw, prog.compose({values.begin(), values.begin() + 4}));
  // Cross-check against a VMM with a one-hot input on row 0.
  std::vector<double> x(4, 0.0);
  x[0] = 1.0;
  const auto y = xb.vmm(x);
  double recombined = 0.0, radix = 1.0;
  for (int k = 0; k < 4; ++k) {
    recombined += radix * y[static_cast<std::size_t>(k)];
    radix *= 4.0;
  }
  EXPECT_NEAR(crw, recombined, 1e-9);
}

class AdcResolutionSweep : public ::testing::TestWithParam<int> {};

TEST_P(AdcResolutionSweep, ErrorShrinksWithResolution) {
  // Quantization error of the group ADC must decrease monotonically with
  // resolution and vanish for an ideal ADC.
  const int bits = GetParam();
  const WeightProgrammer prog = programmer(CellKind::MLC2);
  CrossbarConfig cfg = small_cfg(CellKind::MLC2);
  Crossbar ideal_xb(cfg);
  cfg.adc_bits = bits;
  Crossbar adc_xb(cfg);
  Rng rng(42);
  const std::vector<double> values =
      draw_values(prog, random_ctws(16 * 4, rng), rng);
  ideal_xb.program_values(values);
  adc_xb.program_values(values);
  std::vector<double> x(16);
  for (auto& v : x) v = rng.uniform(0.0, 1.0);
  const auto y_ideal = ideal_xb.vmm(x);
  const auto y_adc = adc_xb.vmm(x);
  // Max per-group quantization error: half an ADC step per group, 4 groups.
  const double full_scale = 4.0 * 3.0;
  const double step = full_scale / ((1 << bits) - 1);
  for (int c = 0; c < 16; ++c) {
    EXPECT_LE(std::fabs(y_adc[static_cast<std::size_t>(c)] -
                        y_ideal[static_cast<std::size_t>(c)]),
              4 * (0.5 * step) + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Resolutions, AdcResolutionSweep,
                         ::testing::Values(4, 6, 8, 10));

TEST(Crossbar, VariationChangesAcrossProgrammingCycles) {
  const WeightProgrammer prog = programmer(CellKind::SLC, 0.5);
  Crossbar xb(small_cfg(CellKind::SLC));
  Rng rng(10);
  const std::vector<int> ctw(16 * 2, 255);
  xb.program_values(draw_values(prog, ctw, rng));
  const double v1 = xb.cell_value(0, 0);
  xb.program_values(draw_values(prog, ctw, rng));
  const double v2 = xb.cell_value(0, 0);
  EXPECT_NE(v1, v2);  // cycle-to-cycle variation
}
