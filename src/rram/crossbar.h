// Device-level crossbar array simulation.
//
// Models the analog substrate a deployment runs on: a rows x cols grid of
// RRAM cells read out group-by-group (only `active_wordlines` wordlines
// are driven per cycle, as in the paper's 128x128 / 16-active
// configuration) with an optional finite-resolution ADC per group.
//
// The array samples no variation itself: it stores the read value of
// every cell as programmed by program_values(), and those values are the
// cell draws of WeightProgrammer::program_cells (variation and stuck-at
// faults included), the one device model both execution backends share.
// Until programmed, every cell reads as an ideal HRS device (0).
#pragma once

#include <vector>

#include "rram/cell.h"

namespace rdo::rram {

struct CrossbarConfig {
  int rows = 128;
  int cols = 128;
  CellModel cell;             ///< sets the ADC full scale
  int active_wordlines = 16;  ///< wordlines driven per read cycle
  int adc_bits = 0;           ///< 0 = ideal ADC
};

class Crossbar {
 public:
  explicit Crossbar(CrossbarConfig cfg);

  /// Program the whole array from row-major per-cell read values
  /// (state-units, size rows*cols): one programming cycle.
  void program_values(const std::vector<double>& values);

  /// Digitized read value of one cell (state-units).
  [[nodiscard]] double cell_value(int r, int c) const;

  /// y_j = sum_i x_i * cell_value(i, j), computed per activation group and
  /// accumulated digitally, with optional per-group ADC quantization.
  [[nodiscard]] std::vector<double> vmm(const std::vector<double>& x) const;

  /// Partial VMM over wordlines [r0, r1): the read cycles a digital
  /// offset group of those rows observes. r0 must be aligned to the
  /// activation-group size.
  [[nodiscard]] std::vector<double> vmm_rows(const std::vector<double>& x,
                                             int r0, int r1) const;

  /// Read cycles needed for one VMM (= ceil(rows / active_wordlines)).
  [[nodiscard]] int cycles_per_vmm() const;

  [[nodiscard]] const CrossbarConfig& config() const { return cfg_; }

 private:
  CrossbarConfig cfg_;
  std::vector<double> values_;  // row-major read values

  [[nodiscard]] std::size_t idx(int r, int c) const {
    return static_cast<std::size_t>(r) * static_cast<std::size_t>(cfg_.cols) +
           static_cast<std::size_t>(c);
  }
};

}  // namespace rdo::rram
