#include "core/backend.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"
#include "obs/trace.h"

namespace rdo::core {

EffectiveWeightBackend::EffectiveWeightBackend(const DeploymentPlan& plan,
                                               const rdo::nn::Layer& src,
                                               bool keep_cell_values)
    : plan_(plan), net_(src.clone()), keep_cells_(keep_cell_values) {
  std::vector<rdo::nn::Layer*> all;
  collect_layers(net_.get(), all);
  for (rdo::nn::Layer* l : all) {
    if (auto* op = dynamic_cast<rdo::nn::MatrixOp*>(l)) {
      LayerState ls;
      ls.op = op;
      layers_.push_back(std::move(ls));
    }
    if (auto* aq = dynamic_cast<rdo::quant::ActQuant*>(l)) {
      act_quants_.push_back(aq);
    }
  }
  RDO_CHECK(layers_.size() == plan_.layers.size(),
            "EffectiveWeightBackend: network does not match the plan "
            "(crossbar layer count)");
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    const PlanLayer& pl = plan_.layers[li];
    RDO_CHECK(layers_[li].op->fan_in() == pl.fan_in &&
                  layers_[li].op->fan_out() == pl.fan_out,
              "EffectiveWeightBackend: network does not match the plan "
              "(layer geometry)");
    // Move the twin to the plan's quantized operating point.
    rdo::quant::apply_quantized(*layers_[li].op, pl.lq);
  }
  for (auto* aq : act_quants_) aq->disable();
  // The twin's gradients exist only while run_pwt needs them, and it
  // starts without the source network's activation caches.
  for (rdo::nn::Param* p : net_->params()) p->grad = rdo::nn::Tensor();
  net_->release_caches();
  if (plan_.opt.quantize_activations && !act_quants_.empty()) {
    RDO_CHECK(act_quants_.size() == plan_.act_calib.size(),
              "EffectiveWeightBackend: network does not match the plan "
              "(activation quantizer count)");
    for (std::size_t i = 0; i < act_quants_.size(); ++i) {
      act_quants_[i]->calibrate(plan_.act_calib[i].max_abs);
    }
  }
}

void EffectiveWeightBackend::program_cycle(std::uint64_t cycle_salt) {
  rdo::obs::TraceSpan span("deploy:program", "deploy", &stats_.program_s);
  span.arg("cycle", static_cast<std::int64_t>(cycle_salt));
  rdo::nn::Rng rng =
      rdo::nn::Rng(plan_.opt.seed).split(0xC0DEull + cycle_salt * 7919ull);
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    const PlanLayer& pl = plan_.layers[li];
    LayerState& ls = layers_[li];
    rdo::obs::TraceSpan layer_span("program:layer", "deploy");
    layer_span.arg("layer", static_cast<std::int64_t>(li));
    layer_span.arg("weights", static_cast<std::int64_t>(pl.assign.ctw.size()));
    rdo::nn::Rng lrng = rng.split(li);
    ls.crw.resize(pl.assign.ctw.size());
    if (keep_cells_) ls.cells.resize(pl.assign.ctw.size());
    // Dead columns (eliminate_dead_tiles) are never programmed: the RNG
    // draws are consumed and discarded so every live weight sees exactly
    // the stream it would without the pass, and the column reads back the
    // zero point exactly (ideal unprogrammed cells).
    const bool has_dead = !pl.dead_cols.empty();
    const auto cols = static_cast<std::size_t>(pl.lq.cols);
    std::vector<double> ideal_zero;
    if (has_dead && keep_cells_) {
      for (int s : plan_.prog.slice(pl.lq.zero)) {
        ideal_zero.push_back(static_cast<double>(s));
      }
    }
    std::int64_t live = 0;
    for (std::size_t i = 0; i < pl.assign.ctw.size(); ++i) {
      std::vector<double> cells =
          plan_.prog.program_cells(pl.assign.ctw[i], lrng);
      if (has_dead && pl.dead_cols[i % cols] != 0) {
        ls.crw[i] = static_cast<double>(pl.lq.zero);
        if (keep_cells_) ls.cells[i] = ideal_zero;
        continue;
      }
      ls.crw[i] = plan_.prog.compose(cells);
      if (keep_cells_) ls.cells[i] = std::move(cells);
      ++live;
    }
    stats_.weights_programmed += live;
    stats_.device_pulses += live * plan_.prog.cells_per_weight();
    // Each cycle starts from the a-priori (VAWO or zero) offsets; PWT then
    // adapts them to this cycle's CRWs.
    ls.offsets = pl.assign.offsets;
  }
  ++stats_.cycles;
  rdo::obs::trace_counter("device_pulses", stats_.device_pulses);
  apply_effective_weights();
}

void EffectiveWeightBackend::apply_effective_weights() {
  const float maxw = static_cast<float>(plan_.prog.max_weight());
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    const PlanLayer& pl = plan_.layers[li];
    LayerState& ls = layers_[li];
    const std::int64_t rows = pl.lq.rows, cols = pl.lq.cols;
    for (std::int64_t r = 0; r < rows; ++r) {
      const std::int64_t g = group_of_row(r, pl.m);
      for (std::int64_t c = 0; c < cols; ++c) {
        const std::size_t gi = static_cast<std::size_t>(g * cols + c);
        const float b = ls.offsets[gi];
        const double v = ls.crw[static_cast<std::size_t>(r * cols + c)];
        const double nrw = pl.assign.complemented[gi]
                               ? static_cast<double>(maxw) - v - b
                               : v + b;
        ls.op->set_weight_at(r, c, pl.lq.dequant(static_cast<float>(nrw)));
      }
    }
  }
  weights_deployed_ = true;
}

void EffectiveWeightBackend::apply_group_delta(std::size_t li,
                                               std::int64_t c,
                                               std::int64_t g,
                                               float delta_b) {
  const PlanLayer& pl = plan_.layers[li];
  LayerState& ls = layers_[li];
  const std::int64_t cols = pl.lq.cols;
  const std::size_t gi = static_cast<std::size_t>(g * cols + c);
  const float sign = pl.assign.complemented[gi] ? -1.0f : 1.0f;
  const float dw = sign * pl.lq.scale * delta_b;
  const std::int64_t r0 = g * pl.m;
  const std::int64_t r1 = std::min<std::int64_t>(pl.lq.rows, r0 + pl.m);
  for (std::int64_t r = r0; r < r1; ++r) {
    ls.op->set_weight_at(r, c, ls.op->weight_at(r, c) + dw);
  }
}

void EffectiveWeightBackend::tune(const rdo::nn::DataView& train) {
  if (!scheme_uses_pwt(plan_.opt.scheme)) return;
  RDO_CHECK(weights_deployed_,
            "EffectiveWeightBackend: program_cycle() first");
  rdo::obs::TraceSpan span("deploy:tune", "deploy", &stats_.tune_s);
  const float lo = static_cast<float>(plan_.opt.offsets.offset_min());
  const float hi = static_cast<float>(plan_.opt.offsets.offset_max());
  if (plan_.opt.pwt.mean_init) {
    // Closed-form warm start from the measured CRWs: the offset that
    // zeroes the mean NRW deviation of each group.
    const int maxw = plan_.prog.max_weight();
    for (std::size_t li = 0; li < layers_.size(); ++li) {
      const PlanLayer& pl = plan_.layers[li];
      LayerState& ls = layers_[li];
      const std::int64_t rows = pl.lq.rows, cols = pl.lq.cols;
      for (std::int64_t c = 0; c < cols; ++c) {
        for (std::int64_t g = 0; g < pl.assign.groups_per_col; ++g) {
          const std::size_t gi = static_cast<std::size_t>(g * cols + c);
          const std::int64_t r0 = g * pl.m;
          const std::int64_t r1 = std::min<std::int64_t>(rows, r0 + pl.m);
          double acc = 0.0;
          for (std::int64_t r = r0; r < r1; ++r) {
            const int ntw = pl.lq.at(r, c);
            const double target =
                pl.assign.complemented[gi] ? maxw - ntw : ntw;
            acc += target - ls.crw[static_cast<std::size_t>(r * cols + c)];
          }
          ls.offsets[gi] = std::clamp(
              static_cast<float>(acc / static_cast<double>(r1 - r0)), lo,
              hi);
        }
      }
    }
    apply_effective_weights();
  }
  run_pwt(train);
  // Snap tuned offsets onto the signed offset-register grid and rebuild
  // the effective weights from scratch (removes incremental-update drift).
  for (LayerState& ls : layers_) {
    for (float& b : ls.offsets) b = std::clamp(std::round(b), lo, hi);
  }
  apply_effective_weights();
  net_->release_caches();
}

float EffectiveWeightBackend::evaluate(const rdo::nn::DataView& test,
                                       std::int64_t batch) {
  RDO_CHECK(weights_deployed_,
            "EffectiveWeightBackend: program_cycle() first");
  double seconds = 0.0;
  rdo::obs::TraceSpan span("deploy:evaluate", "deploy", &seconds);
  span.arg("batch", batch);
  const float acc = rdo::nn::evaluate(*net_, test, batch).accuracy;
  span.arg("accuracy", static_cast<double>(acc));
  net_->release_caches();
  span.finish();
  stats_.eval_latency.observe(seconds);
  return acc;
}

}  // namespace rdo::core
