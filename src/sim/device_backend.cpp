#include "sim/device_backend.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/check.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/im2col.h"
#include "nn/parallel.h"
#include "nn/pooling.h"
#include "obs/trace.h"
#include "quant/act_quant.h"

namespace rdo::sim {

using rdo::nn::Conv2D;
using rdo::nn::Dense;

DeviceSimBackend::DeviceSimBackend(const rdo::core::DeploymentPlan& plan,
                                   const rdo::nn::Layer& src,
                                   DeviceSimOptions dopt)
    : engine_(plan, src, /*keep_cell_values=*/true),
      plan_(plan),
      dopt_(dopt) {
  // Device substrate: geometry from dopt, device physics and offset
  // configuration from the shared plan.
  ExecutorConfig cfg;
  cfg.xbar.rows = dopt_.xbar_rows;
  cfg.xbar.cols = dopt_.xbar_cols;
  cfg.xbar.cell = plan_.opt.cell;
  cfg.xbar.variation = plan_.opt.variation;
  cfg.xbar.active_wordlines = dopt_.active_wordlines;
  cfg.xbar.adc_bits = dopt_.adc_bits;
  cfg.offsets = plan_.opt.offsets;
  cfg.weight_bits = plan_.opt.weight_bits;

  // Walk the engine's twin (same topology as `src`, already moved to the
  // plan's quantized + calibrated operating point) in definition order
  // and validate the topology.
  rdo::nn::Layer* root = &engine_.network();
  std::vector<rdo::nn::Layer*> all;
  collect_layers(root, all);
  std::size_t mi = 0;
  for (rdo::nn::Layer* l : all) {
    if (l == root) continue;
    Stage stage;
    if (l->name() == "ReLU") {
      stage.kind = Stage::Kind::ReLU;
      stages_.push_back(std::move(stage));
      continue;
    }
    if (l->name() == "Flatten") continue;  // shape bookkeeping only
    if (auto* aq = dynamic_cast<rdo::quant::ActQuant*>(l)) {
      stage.kind = Stage::Kind::ActQuant;
      stage.aq = aq;
      stages_.push_back(std::move(stage));
      continue;
    }
    if (auto* pool = dynamic_cast<rdo::nn::MaxPool2D*>(l)) {
      stage.kind = Stage::Kind::MaxPool;
      stage.pool_window = static_cast<int>(pool->window());
      stages_.push_back(std::move(stage));
      continue;
    }
    auto* op = dynamic_cast<rdo::nn::MatrixOp*>(l);
    if (op == nullptr) {
      throw std::invalid_argument(
          "DeviceSimBackend: unsupported layer at device level: " +
          l->name());
    }
    rdo::nn::Param* bias_param = nullptr;
    if (auto* conv = dynamic_cast<Conv2D*>(l)) {
      stage.kind = Stage::Kind::Conv;
      stage.kernel = static_cast<int>(conv->kernel());
      stage.stride = static_cast<int>(conv->stride());
      stage.pad = static_cast<int>(conv->pad());
      bias_param = &conv->bias_param();
    } else if (auto* dense = dynamic_cast<Dense*>(l)) {
      stage.kind = Stage::Kind::Crossbar;
      bias_param = &dense->bias_param();
    } else {
      throw std::invalid_argument(
          "DeviceSimBackend: unsupported layer at device level: " +
          l->name());
    }
    RDO_CHECK(mi < plan_.layers.size(),
              "DeviceSimBackend: network does not match the plan");
    stage.plan_index = mi;
    const rdo::core::PlanLayer& pl = plan_.layers[mi];
    ++mi;
    // Per-layer executor config: the tune_group_size pass may have raised
    // this layer's offset-group size above the global opt.offsets.m.
    ExecutorConfig lcfg = cfg;
    lcfg.offsets.m = pl.m;
    stage.exec = std::make_unique<CrossbarLayerExecutor>(pl.lq, pl.assign,
                                                         lcfg);
    stage.bias.assign(static_cast<std::size_t>(pl.fan_out), 0.0f);
    if (bias_param != nullptr && bias_param->value.size() == pl.fan_out) {
      for (std::int64_t c = 0; c < pl.fan_out; ++c) {
        stage.bias[static_cast<std::size_t>(c)] = bias_param->value[c];
      }
    }
    stages_.push_back(std::move(stage));
  }
  RDO_CHECK(mi == plan_.layers.size(),
            "DeviceSimBackend: network does not match the plan");
}

void DeviceSimBackend::sync_devices() {
  const std::vector<rdo::core::EffectiveWeightBackend::LayerState>& states =
      engine_.layers();
  for (Stage& s : stages_) {
    if (!s.exec) continue;
    s.exec->program_cell_values(states[s.plan_index].cells);
    s.exec->set_offsets(states[s.plan_index].offsets);
  }
}

void DeviceSimBackend::program_cycle(std::uint64_t cycle_salt) {
  engine_.program_cycle(cycle_salt);
  sync_devices();
  deployed_ = true;
}

void DeviceSimBackend::tune(const rdo::nn::DataView& train) {
  engine_.tune(train);
  if (!rdo::core::scheme_uses_pwt(plan_.opt.scheme)) return;
  // Install the tuned (register-snapped) offsets into the digital offset
  // units; the devices themselves are untouched by tuning.
  for (Stage& s : stages_) {
    if (!s.exec) continue;
    s.exec->set_offsets(engine_.layers()[s.plan_index].offsets);
  }
}

std::vector<double> DeviceSimBackend::forward(
    const std::vector<double>& x) const {
  return forward_image(x, /*channels=*/0, /*height=*/0, /*width=*/0);
}

std::vector<double> DeviceSimBackend::forward_image(
    const std::vector<double>& x, int channels, int height,
    int width) const {
  std::vector<double> h = x;
  int c = channels, hh = height, ww = width;
  for (const Stage& s : stages_) {
    switch (s.kind) {
      case Stage::Kind::ReLU:
        for (auto& v : h) v = std::max(0.0, v);
        break;
      case Stage::Kind::ActQuant: {
        // Digital activation quantization in front of the DACs; same
        // float grid as the twin's ActQuant layer so the paths agree.
        if (s.aq != nullptr && s.aq->enabled()) {
          const float step = s.aq->step();
          const float levels =
              static_cast<float>((1 << s.aq->bits()) - 1);
          for (auto& v : h) {
            float q = std::round(static_cast<float>(v) / step);
            q = std::clamp(q, 0.0f, levels);
            v = static_cast<double>(q * step);
          }
        }
        break;
      }
      case Stage::Kind::MaxPool: {
        RDO_CHECK(c > 0, "DeviceSimBackend: pooling needs an image");
        const int oh = hh / s.pool_window, ow = ww / s.pool_window;
        std::vector<double> y(static_cast<std::size_t>(c) * oh * ow);
        // Same kernel as the float nn::MaxPool2D layer, so the device
        // and float paths cannot drift (asserted in test_equivalence).
        rdo::nn::maxpool2d_image(h.data(), c, hh, ww, s.pool_window,
                                 y.data());
        h = std::move(y);
        hh = oh;
        ww = ow;
        break;
      }
      case Stage::Kind::Conv: {
        RDO_CHECK(c > 0, "DeviceSimBackend: conv needs an image");
        const rdo::core::PlanLayer& pl = plan_.layers[s.plan_index];
        rdo::obs::TraceSpan stage_span("sim:conv_stage", "sim");
        stage_span.arg("kernel", s.kernel);
        stage_span.arg("out_channels", pl.lq.cols);
        const int oh = static_cast<int>(
            rdo::nn::conv_out_dim(hh, s.kernel, s.stride, s.pad));
        const int ow = static_cast<int>(
            rdo::nn::conv_out_dim(ww, s.kernel, s.stride, s.pad));
        const std::int64_t fin = pl.lq.rows;
        const std::int64_t oc = pl.lq.cols;
        // im2col rows, each driven through the crossbars as one VMM.
        std::vector<float> img(h.size());
        for (std::size_t i = 0; i < h.size(); ++i) {
          img[i] = static_cast<float>(h[i]);
        }
        std::vector<float> cols(static_cast<std::size_t>(oh) * ow * fin);
        rdo::nn::im2col(img.data(), c, hh, ww, s.kernel, s.kernel, s.stride,
                        s.pad, cols.data());
        std::vector<double> y(static_cast<std::size_t>(oc) * oh * ow, 0.0);
        // Each im2col row is one independent VMM through the (read-only)
        // crossbars; dispatch them across the pool. Every output
        // position is written by exactly one task, so results are
        // bit-identical for any thread count. Runs inline when already
        // inside evaluate()'s per-image parallelism.
        rdo::nn::parallel_for(
            oh * ow,
            [&](std::int64_t p0, std::int64_t p1) {
              std::vector<double> row(static_cast<std::size_t>(fin));
              for (std::int64_t p = p0; p < p1; ++p) {
                for (std::int64_t j = 0; j < fin; ++j) {
                  row[static_cast<std::size_t>(j)] =
                      cols[static_cast<std::size_t>(p) * fin +
                           static_cast<std::size_t>(j)];
                }
                const std::vector<double> out = s.exec->forward(row);
                for (std::int64_t k = 0; k < oc; ++k) {
                  y[static_cast<std::size_t>(k * oh * ow + p)] =
                      out[static_cast<std::size_t>(k)] +
                      s.bias[static_cast<std::size_t>(k)];
                }
              }
            });
        h = std::move(y);
        c = static_cast<int>(oc);
        hh = oh;
        ww = ow;
        break;
      }
      case Stage::Kind::Crossbar: {
        const rdo::core::PlanLayer& pl = plan_.layers[s.plan_index];
        rdo::obs::TraceSpan stage_span("sim:crossbar_stage", "sim");
        stage_span.arg("rows", pl.lq.rows);
        stage_span.arg("cols", pl.lq.cols);
        std::vector<double> y = s.exec->forward(h);
        for (std::size_t k = 0; k < y.size(); ++k) y[k] += s.bias[k];
        h = std::move(y);
        c = 0;  // now a flat vector
        break;
      }
    }
  }
  return h;
}

float DeviceSimBackend::device_accuracy(const rdo::nn::DataView& test,
                                        std::int64_t max_samples) const {
  const std::int64_t n = max_samples > 0
                             ? std::min<std::int64_t>(max_samples,
                                                      test.size())
                             : test.size();
  const std::int64_t sample = test.images->size() / test.images->dim(0);
  const int channels = static_cast<int>(test.images->dim(1));
  const int height = static_cast<int>(test.images->dim(2));
  const int width = static_cast<int>(test.images->dim(3));
  // Batched inference: forward_image is const and every stage reads only
  // state frozen since the last program_cycle()/tune(), so images
  // classify concurrently. Each image's verdict lands in its own slot
  // and the final reduction is an integer sum — the accuracy is
  // bit-identical for any thread count.
  std::vector<unsigned char> hit(static_cast<std::size_t>(n), 0);
  rdo::obs::TraceSpan span("sim:evaluate", "sim");
  span.arg("n", n);
  rdo::nn::parallel_for(n, [&](std::int64_t i0, std::int64_t i1) {
    rdo::obs::TraceSpan chunk_span("sim:evaluate_chunk", "sim");
    chunk_span.arg("begin", i0);
    chunk_span.arg("end", i1);
    std::vector<double> x(static_cast<std::size_t>(sample));
    for (std::int64_t i = i0; i < i1; ++i) {
      const float* src = test.images->data() + i * sample;
      for (std::int64_t j = 0; j < sample; ++j) {
        x[static_cast<std::size_t>(j)] = src[j];
      }
      const std::vector<double> logits =
          forward_image(x, channels, height, width);
      const std::int64_t arg = static_cast<std::int64_t>(
          std::max_element(logits.begin(), logits.end()) - logits.begin());
      hit[static_cast<std::size_t>(i)] =
          arg == (*test.labels)[static_cast<std::size_t>(i)] ? 1 : 0;
    }
  });
  int correct = 0;
  for (unsigned char b : hit) correct += b;
  return static_cast<float>(correct) / static_cast<float>(n);
}

float DeviceSimBackend::evaluate(const rdo::nn::DataView& test,
                                 std::int64_t batch) {
  RDO_CHECK(deployed_, "DeviceSimBackend: program_cycle() first");
  double seconds = 0.0;
  rdo::obs::TraceSpan span("deploy:evaluate", "deploy", &seconds);
  span.arg("batch", batch);
  const float acc = device_accuracy(test, dopt_.eval_max_samples);
  span.arg("accuracy", static_cast<double>(acc));
  span.finish();
  eval_latency_.observe(seconds);
  return acc;
}

const rdo::core::DeployStats& DeviceSimBackend::stats() const {
  // The engine never evaluates (its eval_latency stays empty), so the
  // merged record carries the engine's programming/PWT counters plus the
  // device-side evaluation latencies.
  merged_ = engine_.stats();
  merged_.eval_latency.merge(eval_latency_);
  return merged_;
}

std::int64_t DeviceSimBackend::crossbar_count() const {
  std::int64_t n = 0;
  for (const Stage& s : stages_) {
    if (s.exec) n += s.exec->crossbar_count();
  }
  return n;
}

}  // namespace rdo::sim
