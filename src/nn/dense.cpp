#include "nn/dense.h"

#include <vector>

#include "core/check.h"
#include "nn/gemm.h"

namespace rdo::nn {

Dense::Dense(std::int64_t in, std::int64_t out, Rng& rng, bool bias)
    : in_(in), out_(out), has_bias_(bias), weight_({in, out}), bias_({out}) {
  weight_.value.kaiming_init(rng, in);
  bias_.trainable = bias;
}

Tensor Dense::forward(const Tensor& x, bool /*train*/) {
  Tensor flat = x.rank() == 2 ? x : x.reshaped({x.dim(0), x.size() / x.dim(0)});
  RDO_CHECK(flat.dim(1) == in_,
            "Dense::forward: fan-in mismatch " + flat.shape_str());
  cached_in_ = flat;
  const std::int64_t n = flat.dim(0);
  Tensor y({n, out_});
  gemm(flat.data(), weight_.value.data(), y.data(), n, in_, out_);
  if (has_bias_) {
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t j = 0; j < out_; ++j) y.at(i, j) += bias_.value[j];
    }
  }
  return y;
}

Tensor Dense::backward(const Tensor& grad_out) {
  RDO_CHECK(cached_in_.rank() == 2 &&
                weight_.grad.size() == weight_.value.size(),
            "Dense::backward: needs a forward() and allocated gradients");
  const std::int64_t n = cached_in_.dim(0);
  // dW[in, out] += X^T[in, n] * dY[n, out]
  gemm_at_b_accumulate(cached_in_.data(), grad_out.data(),
                       weight_.grad.data(), in_, n, out_);
  if (has_bias_) {
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t j = 0; j < out_; ++j) {
        bias_.grad[j] += grad_out.at(i, j);
      }
    }
  }
  // dX[n, in] = dY[n, out] * W^T[out, in]: each element sums over out
  // ascending from +0, whichever operand order the products use.
  std::vector<float> wt(static_cast<std::size_t>(out_ * in_));
  transpose(weight_.value.data(), wt.data(), in_, out_);
  Tensor grad_in({n, in_});
  gemm_accumulate(grad_out.data(), wt.data(), grad_in.data(), n, out_, in_);
  return grad_in;
}

void Dense::release_caches() { cached_in_ = Tensor(); }

std::vector<Param*> Dense::params() {
  std::vector<Param*> p{&weight_};
  if (has_bias_) p.push_back(&bias_);
  return p;
}

}  // namespace rdo::nn
