// Device-level execution of one crossbar-mapped layer.
//
// This is the hardware-faithful reference path: a plan layer's CTWs are
// tiled onto Crossbar arrays (bit-sliced cells, wordline-activation
// groups, optional finite-resolution ADC), the digital offset units
// compute b * sum(x) per group, the complement post-processing applies
// (2^n - 1) * sum(x) - z', and the ISAAC weight shift subtracts
// zero * sum(x).
//
// The executor draws no variation and copies no plan data: the cells it
// programs are WeightProgrammer::program_cells draws (the one device
// model, stuck-at faults included), it reads the CTWs, complement flags
// and geometry from the PlanLayer in place, and every forward takes the
// offset registers from its caller (sim::DeviceSimBackend passes the
// engine's working offsets). tests/test_sim.cpp proves this path equals
// the effective-weight computation on the same cells (exactly with an
// ideal ADC, boundedly with a real one), which licenses the fast path
// for the accuracy benches.
#pragma once

#include <cstdint>
#include <vector>

#include "core/plan.h"
#include "rram/crossbar.h"
#include "rram/programmer.h"
#include "rram/tiler.h"

namespace rdo::sim {

class CrossbarLayerExecutor {
 public:
  /// Tiles `layer` onto crossbars of geometry `xbar` (whose cell model
  /// must be `prog`'s). `layer` and `prog` are read in place and must
  /// outlive the executor. Every cell reads as ideal HRS until
  /// program_cell_values(). Throws std::invalid_argument on an offset
  /// geometry the arrays cannot realize or a CTW outside the weight range.
  CrossbarLayerExecutor(const rdo::core::PlanLayer& layer,
                        const rdo::rram::WeightProgrammer& prog,
                        const rdo::rram::CrossbarConfig& xbar);

  /// Program every device from flat per-weight cell read values
  /// ([rows*cols*cells_per_weight], row-major weights, LSB cell first) —
  /// the exact outputs of WeightProgrammer::program_cells, so the device
  /// level observes bit-identical conductances to the effective-weight
  /// path. Padding cells read as ideal HRS.
  void program_cell_values(const std::vector<double>& cells);

  /// Device-level forward: x has lq.rows entries (activation units),
  /// `offsets` one register per offset group (the layer's assign.offsets
  /// layout); returns lq.cols effective (dequantized) outputs.
  ///
  /// Thread safety: const, and reads only the programmed cells and the
  /// caller's offsets, so any number of threads may call
  /// forward()/forward_bit_serial() concurrently between programmings.
  [[nodiscard]] std::vector<double> forward(
      const std::vector<double>& x, const std::vector<float>& offsets) const;

  /// ISAAC bit-serial forward: inputs are quantized to `input_bits`
  /// levels over [0, x_max] and streamed one bit per read pass; partial
  /// results are shifted-and-added. The whole pipeline is linear in x, so
  /// with an ideal ADC this equals forward() on the quantized inputs —
  /// asserted by the test suite.
  [[nodiscard]] std::vector<double> forward_bit_serial(
      const std::vector<double>& x, const std::vector<float>& offsets,
      int input_bits, double x_max) const;

  [[nodiscard]] std::int64_t crossbar_count() const {
    return static_cast<std::int64_t>(xbars_.size());
  }

 private:
  const rdo::core::PlanLayer& layer_;
  const rdo::rram::WeightProgrammer& prog_;
  rdo::rram::CrossbarConfig xbar_;
  rdo::rram::TilingInfo tiling_;
  std::vector<rdo::rram::Crossbar> xbars_;  // row-major [row_tile][col_tile]

  [[nodiscard]] const rdo::rram::Crossbar& xbar_at(std::int64_t tr,
                                                   std::int64_t tc) const {
    return xbars_[static_cast<std::size_t>(tr * tiling_.col_tiles + tc)];
  }
};

}  // namespace rdo::sim
