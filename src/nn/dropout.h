// Inverted dropout (train-time regularization for the deeper scaled
// models; identity at inference).
#pragma once

#include "nn/layer.h"
#include "nn/rng.h"

namespace rdo::nn {

class Dropout : public Layer {
 public:
  /// `p` is the drop probability; the kept activations are scaled by
  /// 1/(1-p) (inverted dropout), so inference needs no rescaling.
  Dropout(float p, std::uint64_t seed) : p_(p), rng_(seed) {}

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  void release_caches() override { mask_ = Tensor(); }
  [[nodiscard]] std::unique_ptr<Layer> clone() const override {
    return std::make_unique<Dropout>(*this);
  }
  [[nodiscard]] std::string name() const override { return "Dropout"; }

  [[nodiscard]] float drop_probability() const { return p_; }

 private:
  float p_;
  Rng rng_;
  Tensor mask_;
  bool last_train_ = false;
};

}  // namespace rdo::nn
