#include "nn/batchnorm.h"

#include <cmath>

#include "core/check.h"

namespace rdo::nn {

BatchNorm2D::BatchNorm2D(std::int64_t channels, float momentum, float eps)
    : channels_(channels),
      momentum_(momentum),
      eps_(eps),
      gamma_({channels}),
      beta_({channels}),
      running_mean_({channels}),
      running_var_({channels}) {
  gamma_.value.fill(1.0f);
  running_var_.fill(1.0f);
}

Tensor BatchNorm2D::forward(const Tensor& x, bool train) {
  RDO_CHECK(x.rank() == 4 && x.dim(1) == channels_,
            "BatchNorm2D: bad input " + x.shape_str() + " for " +
                std::to_string(channels_) + " channels");
  in_shape_ = x.shape();
  last_train_ = train;
  const std::int64_t n = x.dim(0), hw = x.dim(2) * x.dim(3);
  const std::int64_t count = n * hw;
  Tensor y(x.shape());
  xhat_ = Tensor(x.shape());
  batch_inv_std_.assign(static_cast<std::size_t>(channels_), 0.0f);

  for (std::int64_t c = 0; c < channels_; ++c) {
    float mean, var;
    if (train) {
      double m = 0.0;
      for (std::int64_t s = 0; s < n; ++s) {
        const float* img = x.data() + (s * channels_ + c) * hw;
        for (std::int64_t i = 0; i < hw; ++i) m += img[i];
      }
      mean = static_cast<float>(m / static_cast<double>(count));
      double v = 0.0;
      for (std::int64_t s = 0; s < n; ++s) {
        const float* img = x.data() + (s * channels_ + c) * hw;
        for (std::int64_t i = 0; i < hw; ++i) {
          const double d = img[i] - mean;
          v += d * d;
        }
      }
      var = static_cast<float>(v / static_cast<double>(count));
      running_mean_[c] = (1 - momentum_) * running_mean_[c] + momentum_ * mean;
      running_var_[c] = (1 - momentum_) * running_var_[c] + momentum_ * var;
    } else {
      mean = running_mean_[c];
      var = running_var_[c];
    }
    const float inv_std = 1.0f / std::sqrt(var + eps_);
    batch_inv_std_[static_cast<std::size_t>(c)] = inv_std;
    const float g = gamma_.value[c], b = beta_.value[c];
    for (std::int64_t s = 0; s < n; ++s) {
      const float* img = x.data() + (s * channels_ + c) * hw;
      float* xh = xhat_.data() + (s * channels_ + c) * hw;
      float* yo = y.data() + (s * channels_ + c) * hw;
      for (std::int64_t i = 0; i < hw; ++i) {
        xh[i] = (img[i] - mean) * inv_std;
        yo[i] = g * xh[i] + b;
      }
    }
  }
  return y;
}

Tensor BatchNorm2D::backward(const Tensor& grad_out) {
  RDO_CHECK(xhat_.size() == grad_out.size() &&
                gamma_.grad.size() == channels_,
            "BatchNorm2D::backward: needs a matching forward() and "
            "allocated gradients");
  const std::int64_t n = in_shape_[0], hw = in_shape_[2] * in_shape_[3];
  const std::int64_t count = n * hw;
  Tensor grad_in(in_shape_);
  for (std::int64_t c = 0; c < channels_; ++c) {
    // Accumulate dgamma, dbeta and the batch-statistics correction terms.
    double dg = 0.0, db = 0.0;
    for (std::int64_t s = 0; s < n; ++s) {
      const float* go = grad_out.data() + (s * channels_ + c) * hw;
      const float* xh = xhat_.data() + (s * channels_ + c) * hw;
      for (std::int64_t i = 0; i < hw; ++i) {
        dg += static_cast<double>(go[i]) * xh[i];
        db += go[i];
      }
    }
    gamma_.grad[c] += static_cast<float>(dg);
    beta_.grad[c] += static_cast<float>(db);

    const float g = gamma_.value[c];
    const float inv_std = batch_inv_std_[static_cast<std::size_t>(c)];
    const float inv_count = 1.0f / static_cast<float>(count);
    // In eval mode (PWT trains offsets against frozen running statistics)
    // mean/var are constants, so the batch-statistic correction terms
    // vanish.
    const float mg =
        last_train_ ? static_cast<float>(db) * inv_count : 0.0f;
    const float mgx =
        last_train_ ? static_cast<float>(dg) * inv_count : 0.0f;
    for (std::int64_t s = 0; s < n; ++s) {
      const float* go = grad_out.data() + (s * channels_ + c) * hw;
      const float* xh = xhat_.data() + (s * channels_ + c) * hw;
      float* gi = grad_in.data() + (s * channels_ + c) * hw;
      for (std::int64_t i = 0; i < hw; ++i) {
        gi[i] = g * inv_std * (go[i] - mg - xh[i] * mgx);
      }
    }
  }
  return grad_in;
}

}  // namespace rdo::nn
