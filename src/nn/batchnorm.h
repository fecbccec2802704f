// Batch normalization over the channel dimension of NCHW tensors.
//
// In the deployed accelerator this op runs in the digital domain (as in
// ISAAC); it is therefore never mapped onto crossbars and is unaffected by
// device variation.
#pragma once

#include "nn/layer.h"

namespace rdo::nn {

class BatchNorm2D : public Layer {
 public:
  explicit BatchNorm2D(std::int64_t channels, float momentum = 0.1f,
                       float eps = 1e-5f);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param*> params() override { return {&gamma_, &beta_}; }
  std::vector<Tensor*> buffers() override {
    return {&running_mean_, &running_var_};
  }
  void release_caches() override {
    xhat_ = Tensor();
    std::vector<float>().swap(batch_inv_std_);
  }
  [[nodiscard]] std::unique_ptr<Layer> clone() const override {
    return std::make_unique<BatchNorm2D>(*this);
  }
  [[nodiscard]] std::string name() const override { return "BatchNorm2D"; }

 private:
  std::int64_t channels_;
  float momentum_, eps_;
  Param gamma_, beta_;
  Tensor running_mean_, running_var_;
  // Caches for backward.
  Tensor xhat_;
  std::vector<float> batch_inv_std_;
  std::vector<std::int64_t> in_shape_;
  bool last_train_ = true;
};

}  // namespace rdo::nn
