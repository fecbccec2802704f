#include "sim/crossbar_executor.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "core/check.h"
#include "core/offset.h"
#include "obs/trace.h"

namespace rdo::sim {

using rdo::core::group_of_row;
using rdo::rram::Crossbar;

CrossbarLayerExecutor::CrossbarLayerExecutor(
    const rdo::core::PlanLayer& layer,
    const rdo::rram::WeightProgrammer& prog,
    const rdo::rram::CrossbarConfig& xbar)
    : layer_(layer), prog_(prog), xbar_(xbar) {
  const rdo::quant::LayerQuant& lq = layer_.lq;
  RDO_CHECK(xbar_.cell.states() == prog_.cell().states(),
            "CrossbarLayerExecutor: crossbar cells hold " +
                std::to_string(xbar_.cell.states()) +
                " states, the programmer's " +
                std::to_string(prog_.cell().states()));
  RDO_CHECK(layer_.m % xbar_.active_wordlines == 0,
            "CrossbarLayerExecutor: m must be a multiple of the activated "
            "wordlines (paper Sec. III-A)");
  // A value like m = 96 on 128-row crossbars would let one offset
  // group straddle a row-tile boundary, splitting a single logical
  // offset register across two physical tiles — the forward pass would
  // then apply one tile's group offset to rows belonging to the next
  // group (violates the Sec. III-A geometry, src/core/offset.h).
  RDO_CHECK(xbar_.rows % layer_.m == 0,
            "CrossbarLayerExecutor: crossbar rows must be a multiple of m "
            "so offset groups never straddle a row-tile boundary (paper "
            "Sec. III-A)");
  RDO_CHECK(layer_.assign.ctw.size() == lq.q.size(),
            "CrossbarLayerExecutor: " +
                std::to_string(layer_.assign.ctw.size()) +
                " assigned CTWs for " + std::to_string(lq.q.size()) +
                " quantized weights");
  // Reject a CTW the cells cannot hold now rather than at the first
  // programming cycle: a corrupt plan never reaches the devices.
  for (int v : layer_.assign.ctw) {
    RDO_CHECK(v >= 0 && v <= prog_.max_weight(),
              "CrossbarLayerExecutor: CTW " + std::to_string(v) +
                  " outside [0, " + std::to_string(prog_.max_weight()) + "]");
  }
  tiling_ = rdo::rram::compute_tiling(lq.rows, lq.cols, xbar_.rows,
                                      xbar_.cols, prog_.cells_per_weight());
  rdo::obs::TraceSpan span("sim:build_layer", "sim");
  span.arg("rows", lq.rows);
  span.arg("cols", lq.cols);
  span.arg("m", layer_.m);
  span.arg("groups", layer_.assign.groups_per_col);
  span.arg("row_tiles", tiling_.row_tiles);
  span.arg("col_tiles", tiling_.col_tiles);
  xbars_.assign(static_cast<std::size_t>(tiling_.total_crossbars()),
                Crossbar(xbar_));
}

void CrossbarLayerExecutor::program_cell_values(
    const std::vector<double>& cells) {
  const rdo::quant::LayerQuant& lq = layer_.lq;
  const auto cpw = static_cast<std::size_t>(prog_.cells_per_weight());
  RDO_CHECK(cells.size() == lq.q.size() * cpw,
            "program_cell_values: " + std::to_string(cells.size()) +
                " cell values for " + std::to_string(lq.q.size()) +
                " weights of " + std::to_string(cpw) + " cells");
  const std::int64_t wpr = xbar_.cols / prog_.cells_per_weight();
  // Padding cells (beyond the layer's rows/cols) read as an ideally
  // programmed HRS device.
  std::vector<double> values;
  for (std::int64_t tr = 0; tr < tiling_.row_tiles; ++tr) {
    for (std::int64_t tc = 0; tc < tiling_.col_tiles; ++tc) {
      rdo::obs::TraceSpan tile_span("sim:program_tile", "sim");
      tile_span.arg("tr", tr);
      tile_span.arg("tc", tc);
      values.assign(static_cast<std::size_t>(xbar_.rows) * xbar_.cols, 0.0);
      for (std::int64_t r = 0; r < xbar_.rows; ++r) {
        const std::int64_t mr = tr * xbar_.rows + r;
        if (mr >= lq.rows) break;
        const std::int64_t c0 = tc * wpr;
        const std::int64_t n = std::min<std::int64_t>(wpr, lq.cols - c0);
        // The weights of one tile row are adjacent in both layouts.
        const auto src = cells.begin() + static_cast<std::ptrdiff_t>(
                                             (mr * lq.cols + c0) * cpw);
        std::copy(src, src + static_cast<std::ptrdiff_t>(n * cpw),
                  values.begin() +
                      static_cast<std::ptrdiff_t>(r * xbar_.cols));
      }
      xbars_[static_cast<std::size_t>(tr * tiling_.col_tiles + tc)]
          .program_values(values);
    }
  }
}

std::vector<double> CrossbarLayerExecutor::forward(
    const std::vector<double>& x, const std::vector<float>& offsets) const {
  const rdo::quant::LayerQuant& lq = layer_.lq;
  RDO_CHECK(static_cast<std::int64_t>(x.size()) == lq.rows,
            "CrossbarLayerExecutor::forward: input length " +
                std::to_string(x.size()) + " for " +
                std::to_string(lq.rows) + " rows");
  RDO_CHECK(offsets.size() == layer_.assign.offsets.size(),
            "CrossbarLayerExecutor::forward: " +
                std::to_string(offsets.size()) + " offsets for " +
                std::to_string(layer_.assign.offsets.size()) + " registers");
  const std::int64_t cols = lq.cols;
  const std::int64_t wpr = xbar_.cols / prog_.cells_per_weight();
  const double maxw = static_cast<double>(prog_.max_weight());
  std::vector<double> y_int(static_cast<std::size_t>(cols), 0.0);
  double sum_x_total = 0.0;
  for (double v : x) sum_x_total += v;

  std::vector<double> x_slice(static_cast<std::size_t>(xbar_.rows), 0.0);
  for (std::int64_t tr = 0; tr < tiling_.row_tiles; ++tr) {
    const std::int64_t row_base = tr * xbar_.rows;
    const std::int64_t rows_here =
        std::min<std::int64_t>(xbar_.rows, lq.rows - row_base);
    std::fill(x_slice.begin(), x_slice.end(), 0.0);
    for (std::int64_t r = 0; r < rows_here; ++r) {
      x_slice[static_cast<std::size_t>(r)] =
          x[static_cast<std::size_t>(row_base + r)];
    }
    // One digital offset group = m consecutive wordlines of one column.
    for (std::int64_t g0 = 0; g0 < rows_here; g0 += layer_.m) {
      const std::int64_t g1 =
          std::min<std::int64_t>(rows_here, g0 + layer_.m);
      const std::int64_t group = group_of_row(row_base + g0, layer_.m);
      double sum_x_g = 0.0;  // the digital Sum unit
      for (std::int64_t r = g0; r < g1; ++r) {
        sum_x_g += x_slice[static_cast<std::size_t>(r)];
      }
      for (std::int64_t tc = 0; tc < tiling_.col_tiles; ++tc) {
        const std::vector<double> cell_sums =
            xbar_at(tr, tc).vmm_rows(x_slice, static_cast<int>(g0),
                                     static_cast<int>(g1));
        for (std::int64_t wc = 0; wc < wpr; ++wc) {
          const std::int64_t col = tc * wpr + wc;
          if (col >= cols) break;
          // Shift-and-add across the weight's bit-slice columns.
          double z = 0.0;
          double radix = 1.0;
          for (int k = 0; k < prog_.cells_per_weight(); ++k) {
            z += radix *
                 cell_sums[static_cast<std::size_t>(
                     wc * prog_.cells_per_weight() + k)];
            radix *= xbar_.cell.radix();
          }
          const std::size_t gi = static_cast<std::size_t>(group * cols + col);
          // Digital offset unit: + b * sum(x)  (Eq. 1).
          const double zc = z + offsets[gi] * sum_x_g;
          // Complement post-processing (Sec. III-C).
          y_int[static_cast<std::size_t>(col)] +=
              layer_.assign.complemented[gi] ? maxw * sum_x_g - zc : zc;
        }
      }
    }
  }
  // ISAAC weight shift + dequantization.
  std::vector<double> y(static_cast<std::size_t>(cols));
  for (std::int64_t c = 0; c < cols; ++c) {
    y[static_cast<std::size_t>(c)] =
        lq.scale * (y_int[static_cast<std::size_t>(c)] -
                    static_cast<double>(lq.zero) * sum_x_total);
  }
  return y;
}

std::vector<double> CrossbarLayerExecutor::forward_bit_serial(
    const std::vector<double>& x, const std::vector<float>& offsets,
    int input_bits, double x_max) const {
  RDO_CHECK(input_bits >= 1 && input_bits <= 16 && x_max > 0.0,
            "forward_bit_serial: bad input format (bits = " +
                std::to_string(input_bits) + ")");
  rdo::obs::TraceSpan span("sim:forward_bit_serial", "sim");
  span.arg("input_bits", input_bits);
  const int levels = (1 << input_bits) - 1;
  std::vector<int> xq(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i] < 0.0) {
      // Silently clamping would corrupt results for non-ReLU inputs; the
      // paper assumes unsigned DAC inputs, so reject instead.
      throw std::invalid_argument(
          "forward_bit_serial: negative input (DAC inputs are unsigned; "
          "rescale or rectify activations first)");
    }
    const double q = std::round(x[i] / x_max * levels);
    xq[i] = static_cast<int>(std::clamp(q, 0.0, static_cast<double>(levels)));
  }
  std::vector<double> acc(static_cast<std::size_t>(layer_.lq.cols), 0.0);
  std::vector<double> xbit(x.size());
  for (int b = 0; b < input_bits; ++b) {
    for (std::size_t i = 0; i < x.size(); ++i) {
      xbit[i] = static_cast<double>((xq[i] >> b) & 1);
    }
    const std::vector<double> partial = forward(xbit, offsets);
    const double weight = static_cast<double>(1 << b);  // shift-and-add
    for (std::size_t c = 0; c < acc.size(); ++c) {
      acc[c] += weight * partial[c];
    }
  }
  // Undo the input quantization scale.
  const double rescale = x_max / static_cast<double>(levels);
  for (auto& v : acc) v *= rescale;
  return acc;
}

}  // namespace rdo::sim
