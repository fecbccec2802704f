// 2-D convolution layer lowered to GEMM via a channel-major im2col (see
// DESIGN.md §5c for the layout and why it is bit-identical to the
// per-sample position-major lowering).
#pragma once

#include "nn/layer.h"
#include "nn/matrix_op.h"
#include "nn/rng.h"

namespace rdo::nn {

/// Conv2D over NCHW inputs.
///
/// The weight is stored directly in crossbar-matrix orientation
/// [fan_in = C*KH*KW, fan_out = OC]: rows are flattened receptive-field
/// positions (the values driven onto wordlines after im2col), columns are
/// output channels (bitlines). This makes the MatrixOp view an identity
/// mapping, exactly how ISAAC maps convolutions onto crossbars.
///
/// forward() runs samples in parallel; backward() runs dX over samples
/// and dW over receptive-field rows. Every output element keeps one
/// fixed summation order, so results do not depend on RDO_THREADS.
class Conv2D : public Layer, public MatrixOp {
 public:
  Conv2D(std::int64_t in_ch, std::int64_t out_ch, std::int64_t kernel,
         std::int64_t stride, std::int64_t pad, Rng& rng, bool bias = true);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param*> params() override;
  void release_caches() override;
  [[nodiscard]] std::unique_ptr<Layer> clone() const override {
    return std::make_unique<Conv2D>(*this);
  }
  [[nodiscard]] std::string name() const override { return "Conv2D"; }

  // MatrixOp
  [[nodiscard]] std::int64_t fan_in() const override {
    return in_ch_ * kernel_ * kernel_;
  }
  [[nodiscard]] std::int64_t fan_out() const override { return out_ch_; }
  [[nodiscard]] float weight_at(std::int64_t row,
                                std::int64_t col) const override {
    return weight_.value.at(row, col);
  }
  void set_weight_at(std::int64_t row, std::int64_t col, float v) override {
    weight_.value.at(row, col) = v;
  }
  [[nodiscard]] float weight_grad_at(std::int64_t row,
                                     std::int64_t col) const override {
    return weight_.grad.at(row, col);
  }
  Param& weight_param() override { return weight_; }
  Param& bias_param() { return bias_; }

  [[nodiscard]] std::int64_t kernel() const { return kernel_; }
  [[nodiscard]] std::int64_t stride() const { return stride_; }
  [[nodiscard]] std::int64_t pad() const { return pad_; }

 private:
  std::int64_t in_ch_, out_ch_, kernel_, stride_, pad_;
  bool has_bias_;
  Param weight_;  // [fan_in, out_ch]
  Param bias_;    // [out_ch]
  Tensor cached_in_;
};

}  // namespace rdo::nn
