#include "nn/activations.h"

#include "core/check.h"

namespace rdo::nn {

Tensor ReLU::forward(const Tensor& x, bool /*train*/) {
  Tensor y = x;
  mask_ = Tensor(x.shape());
  for (std::int64_t i = 0; i < y.size(); ++i) {
    if (y[i] > 0.0f) {
      mask_[i] = 1.0f;
    } else {
      y[i] = 0.0f;
    }
  }
  return y;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  RDO_CHECK(mask_.size() == grad_out.size(),
            "ReLU::backward: needs a matching forward()");
  Tensor g = grad_out;
  for (std::int64_t i = 0; i < g.size(); ++i) g[i] *= mask_[i];
  return g;
}

Tensor Flatten::forward(const Tensor& x, bool /*train*/) {
  cached_shape_ = x.shape();
  return x.reshaped({x.dim(0), x.size() / x.dim(0)});
}

Tensor Flatten::backward(const Tensor& grad_out) {
  return grad_out.reshaped(cached_shape_);
}

}  // namespace rdo::nn
