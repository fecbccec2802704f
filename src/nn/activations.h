// Elementwise activation layers and shape adapters.
#pragma once

#include "nn/layer.h"

namespace rdo::nn {

/// Rectified linear unit.
class ReLU : public Layer {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  void release_caches() override { mask_ = Tensor(); }
  [[nodiscard]] std::unique_ptr<Layer> clone() const override {
    return std::make_unique<ReLU>(*this);
  }
  [[nodiscard]] std::string name() const override { return "ReLU"; }

 private:
  Tensor mask_;
};

/// Flattens [N, ...] to [N, features].
class Flatten : public Layer {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  [[nodiscard]] std::unique_ptr<Layer> clone() const override {
    return std::make_unique<Flatten>(*this);
  }
  [[nodiscard]] std::string name() const override { return "Flatten"; }

 private:
  std::vector<std::int64_t> cached_shape_;
};

}  // namespace rdo::nn
