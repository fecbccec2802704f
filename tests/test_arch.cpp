// ISAAC tile cost model (Table II) and energy model.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "arch/isaac_cost.h"
#include "arch/energy.h"
#include "core/offset.h"
#include "core/opt/pipeline.h"
#include "core/plan.h"
#include "nn/dense.h"
#include "nn/sequential.h"

using namespace rdo::arch;

TEST(Arch, RegisterCountMatchesPaperEq9) {
  // Paper: "each crossbar needs 256 and 32 offset registers for m = 16
  // and 128" (128x128, 2-bit MLC, 8-bit weights -> l = 32).
  TileParams tp;
  EXPECT_EQ(offset_hardware(16, 8, tp).register_bits, 256 * 8);
  EXPECT_EQ(offset_hardware(128, 8, tp).register_bits, 32 * 8);
  EXPECT_EQ(rdo::core::register_count(128, 32, 16), 256);
  EXPECT_EQ(rdo::core::register_count(128, 32, 128), 32);
}

TEST(Arch, AdderCostGrowsWithM) {
  TileParams tp;
  GateCosts g;
  const OffsetHardware h16 = offset_hardware(16, 8, tp);
  const OffsetHardware h128 = offset_hardware(128, 8, tp);
  EXPECT_GT(h128.adder_fa, h16.adder_fa);
  EXPECT_EQ(h16.multiplier_fa, h128.multiplier_fa);  // shared multiplier
}

TEST(Arch, RegisterCostShrinksWithM) {
  TileParams tp;
  const OffsetHardware h16 = offset_hardware(16, 8, tp);
  const OffsetHardware h128 = offset_hardware(128, 8, tp);
  EXPECT_GT(h16.register_bits, h128.register_bits);
}

TEST(Arch, RejectsBadParameters) {
  TileParams tp;
  EXPECT_THROW(offset_hardware(0, 8, tp), std::invalid_argument);
  EXPECT_THROW(offset_hardware(16, 0, tp), std::invalid_argument);
}

TEST(Arch, SumMultiFitsInIsaacClock) {
  // Paper §IV-B2: the Sum+Multi stage must not exceed the 100 ns cycle.
  GateCosts g;
  TileParams tp;
  for (int m : {16, 64, 128}) {
    EXPECT_LT(sum_multi_delay_ns(m, g), tp.clock_ns) << "m=" << m;
  }
}

TEST(Arch, DelayGrowsSlowlyWithM) {
  GateCosts g;
  const double d16 = sum_multi_delay_ns(16, g);
  const double d128 = sum_multi_delay_ns(128, g);
  EXPECT_GT(d128, d16);
  EXPECT_LT(d128 - d16, 2.0);  // only log2(128/16) = 3 extra FA stages
}

TEST(Arch, TableIIShapeAreaOverhead) {
  // Area overhead: low double-digit percent, larger at m = 128.
  const TileOverhead o16 = tile_overhead(16, 8, 0.5761);   // ResNet ratios
  const TileOverhead o128 = tile_overhead(128, 8, 0.7224); // from Table I
  EXPECT_GT(o16.area_pct, 5.0);
  EXPECT_LT(o16.area_pct, 25.0);
  EXPECT_GT(o128.area_pct, o16.area_pct);
}

TEST(Arch, TableIIShapePowerOverhead) {
  // Power overhead: single-digit percent, larger at m = 128 (adders
  // outpace the register savings + smaller read-power saving).
  const TileOverhead o16 = tile_overhead(16, 8, 0.5761);
  const TileOverhead o128 = tile_overhead(128, 8, 0.7224);
  EXPECT_GT(o16.power_pct, 0.0);
  EXPECT_LT(o16.power_pct, 5.0);
  EXPECT_GT(o128.power_pct, o16.power_pct);
  EXPECT_LT(o128.power_pct, 10.0);
}

TEST(Arch, ReadPowerSavingReducesNetOverhead) {
  const TileOverhead with_saving = tile_overhead(16, 8, 0.6);
  const TileOverhead no_saving = tile_overhead(16, 8, 1.0);
  EXPECT_LT(with_saving.power_mw, no_saving.power_mw);
  EXPECT_NEAR(no_saving.power_mw - with_saving.power_mw,
              0.4 * TileParams{}.device_read_power_mw, 1e-9);
}

TEST(Arch, AreaIndependentOfReadPowerRatio) {
  EXPECT_DOUBLE_EQ(tile_overhead(16, 8, 0.5).area_mm2,
                   tile_overhead(16, 8, 1.0).area_mm2);
}

TEST(Arch, OffsetHardwareCostAccounting) {
  GateCosts g;
  OffsetHardware hw;
  hw.adder_fa = 10;
  hw.multiplier_fa = 0;
  hw.multiplier_and = 0;
  hw.register_bits = 100;
  EXPECT_DOUBLE_EQ(hw.area_um2(g), 10 * g.fa_area_um2 +
                                       100 * g.sram_bit_area_um2);
  EXPECT_DOUBLE_EQ(hw.power_uw(g), 10 * g.fa_power_uw +
                                       100 * g.sram_bit_power_uw);
}

TEST(Arch, LayerOffsetRegistersMatchesEq9) {
  // Eq. 9 specialized to a layer matrix: ceil(rows/m) groups per column.
  EXPECT_EQ(layer_offset_registers(128, 32, 16), 256);
  EXPECT_EQ(layer_offset_registers(128, 32, 128), 32);
  EXPECT_EQ(layer_offset_registers(130, 1, 16), 9);  // ragged last group
  EXPECT_EQ(layer_offset_registers(6, 4, 8), 4);     // m larger than rows
  EXPECT_THROW(layer_offset_registers(0, 4, 2), std::invalid_argument);
  EXPECT_THROW(layer_offset_registers(6, 4, 0), std::invalid_argument);
}

TEST(Arch, PlanAccountingAgreesWithCostModel) {
  // The cost model and core::DeploymentPlan::total_offset_registers()
  // must never drift apart: before any optimizer pass the plan's count
  // is exactly the per-layer Eq. 9 sum, and after the passes it is
  // exactly what plan_overhead() prices.
  namespace core = rdo::core;
  namespace nn = rdo::nn;
  nn::Rng rng(11);
  auto net = std::make_unique<nn::Sequential>();
  net->emplace<nn::Dense>(6, 4, rng);
  nn::Tensor images({12, 6});
  for (std::int64_t i = 0; i < images.size(); ++i) {
    images[i] = 0.2f * static_cast<float>(i % 7) - 0.6f;
  }
  std::vector<int> labels;
  for (int i = 0; i < 12; ++i) labels.push_back(i % 4);
  const nn::DataView train{&images, &labels};
  core::DeployOptions opt;
  opt.scheme = core::Scheme::VAWOStar;
  opt.weight_bits = 4;
  opt.offsets.m = 2;
  opt.offsets.offset_bits = 4;
  opt.lut_k_sets = 2;
  opt.lut_j_cycles = 2;
  opt.grad_samples = 12;
  opt.seed = 11;

  core::DeploymentPlan plan = core::compile_plan(*net, opt, train);
  long long eq9 = 0;
  for (const core::PlanLayer& pl : plan.layers) {
    eq9 += layer_offset_registers(pl.lq.rows, pl.lq.cols, pl.m);
  }
  EXPECT_EQ(eq9, plan.total_offset_registers());

  core::opt::run_pipeline(
      plan, {"tune_group_size", "color_offset_registers"});
  std::vector<LayerOffsetCost> lc;
  for (std::size_t li = 0; li < plan.layers.size(); ++li) {
    const core::PlanLayer& pl = plan.layers[li];
    lc.push_back({pl.m,
                  static_cast<long long>(
                      plan.layer_tiling(li).total_crossbars()),
                  static_cast<long long>(pl.offset_registers)});
  }
  const PlanOverhead pov = plan_overhead(lc, opt.offsets.offset_bits, 1.0);
  EXPECT_EQ(pov.registers, plan.total_offset_registers());
  EXPECT_LT(pov.registers, eq9);  // the passes actually shared registers
  EXPECT_EQ(pov.register_bits, pov.registers * opt.offsets.offset_bits);
  EXPECT_GT(pov.tiles_used, 0);
}

TEST(Arch, PlanOverheadPricesKeptRegistersOnly) {
  // Two identical plans except for shared registers: fewer registers
  // must mean strictly less area and digital power, same tile count.
  const std::vector<LayerOffsetCost> full = {{16, 4, 256}};
  const std::vector<LayerOffsetCost> shared = {{16, 4, 32}};
  const PlanOverhead a = plan_overhead(full, 8, 1.0);
  const PlanOverhead b = plan_overhead(shared, 8, 1.0);
  EXPECT_LT(b.area_mm2, a.area_mm2);
  EXPECT_LT(b.power_mw, a.power_mw);
  EXPECT_EQ(a.tiles_used, b.tiles_used);
  EXPECT_THROW(plan_overhead(full, 0, 1.0), std::invalid_argument);
  EXPECT_THROW(plan_overhead({{0, 4, 1}}, 8, 1.0), std::invalid_argument);
}

TEST(Energy, ComponentsArePositiveAndSum) {
  using namespace rdo::arch;
  VmmGeometry g;
  const VmmEnergy e = vmm_energy(g, 128.0 * 128.0 * 1.5);
  EXPECT_GT(e.adc_pj, 0.0);
  EXPECT_GT(e.dac_pj, 0.0);
  EXPECT_GT(e.device_pj, 0.0);
  EXPECT_GT(e.digital_pj, 0.0);
  EXPECT_GT(e.offset_pj, 0.0);
  EXPECT_NEAR(e.total_pj(), e.adc_pj + e.dac_pj + e.device_pj +
                                e.digital_pj + e.offset_pj,
              1e-9);
}

TEST(Energy, AdcDominates) {
  // The ISAAC energy budget: ADC conversions dominate per-VMM energy.
  using namespace rdo::arch;
  const VmmEnergy e = vmm_energy({}, 128.0 * 128.0 * 1.5);
  EXPECT_GT(e.adc_pj, e.dac_pj);
  EXPECT_GT(e.adc_pj, e.device_pj);
  EXPECT_GT(e.adc_pj, e.offset_pj);
}

TEST(Energy, DeviceTermScalesWithConductance) {
  // The Table I effect in Joules: lower total conductance (VAWO*'s lower
  // CTWs) means lower device read energy.
  using namespace rdo::arch;
  VmmGeometry g;
  const VmmEnergy plain = vmm_energy(g, 20000.0);
  const VmmEnergy vawo = vmm_energy(g, 0.45 * 20000.0);
  EXPECT_NEAR(vawo.device_pj / plain.device_pj, 0.45, 1e-9);
  EXPECT_EQ(vawo.adc_pj, plain.adc_pj);  // fixed costs unchanged
}

TEST(Energy, OffsetTermGrowsWithFinerM) {
  using namespace rdo::arch;
  VmmGeometry g16;
  g16.m = 16;
  VmmGeometry g128;
  g128.m = 128;
  EXPECT_GT(vmm_energy(g16, 1000.0).offset_pj,
            vmm_energy(g128, 1000.0).offset_pj);
}

TEST(Energy, OffsetsCanBeDisabled) {
  using namespace rdo::arch;
  VmmGeometry g;
  g.offsets_enabled = false;
  EXPECT_EQ(vmm_energy(g, 1000.0).offset_pj, 0.0);
}

TEST(Energy, NetworkEnergyScalesLinearly) {
  using namespace rdo::arch;
  VmmGeometry g;
  const double one = network_energy_pj(1, 1, g, 1000.0);
  EXPECT_NEAR(network_energy_pj(10, 7, g, 1000.0), 70.0 * one, 1e-6 * one);
}

TEST(Energy, RejectsBadGeometry) {
  using namespace rdo::arch;
  VmmGeometry g;
  g.rows = 0;
  EXPECT_THROW(vmm_energy(g, 1.0), std::invalid_argument);
}

TEST(Arch, OffsetGroupGeometryHelpers) {
  using namespace rdo::core;
  EXPECT_EQ(groups_per_column(128, 16), 8);
  EXPECT_EQ(groups_per_column(130, 16), 9);
  EXPECT_EQ(group_of_row(0, 16), 0);
  EXPECT_EQ(group_of_row(15, 16), 0);
  EXPECT_EQ(group_of_row(16, 16), 1);
  EXPECT_THROW(groups_per_column(10, 0), std::invalid_argument);
  OffsetConfig oc;
  oc.offset_bits = 8;
  EXPECT_EQ(oc.offset_min(), -128);
  EXPECT_EQ(oc.offset_max(), 127);
  oc.offset_bits = 4;
  EXPECT_EQ(oc.offset_min(), -8);
  EXPECT_EQ(oc.offset_max(), 7);
}
