#include "nn/pooling.h"

#include <limits>

#include "core/check.h"

namespace rdo::nn {

Tensor MaxPool2D::forward(const Tensor& x, bool /*train*/) {
  RDO_CHECK(x.rank() == 4, "MaxPool2D: input rank " +
                               std::to_string(x.rank()) + " != 4");
  const std::int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const std::int64_t oh = h / window_, ow = w / window_;
  in_shape_ = x.shape();
  Tensor y({n, c, oh, ow});
  argmax_.assign(static_cast<std::size_t>(y.size()), 0);
  const std::int64_t in_plane = c * h * w;
  const std::int64_t out_plane = c * oh * ow;
  for (std::int64_t s = 0; s < n; ++s) {
    std::int64_t* amax = argmax_.data() + s * out_plane;
    maxpool2d_image(x.data() + s * in_plane, c, h, w, window_,
                    y.data() + s * out_plane, amax);
    // The helper reports indices within the image; backward() needs them
    // within the batch tensor.
    for (std::int64_t i = 0; i < out_plane; ++i) amax[i] += s * in_plane;
  }
  return y;
}

Tensor MaxPool2D::backward(const Tensor& grad_out) {
  RDO_CHECK(static_cast<std::int64_t>(argmax_.size()) == grad_out.size(),
            "MaxPool2D::backward: needs a matching forward()");
  Tensor grad_in(in_shape_);
  for (std::int64_t i = 0; i < grad_out.size(); ++i) {
    grad_in[argmax_[static_cast<std::size_t>(i)]] += grad_out[i];
  }
  return grad_in;
}

Tensor GlobalAvgPool::forward(const Tensor& x, bool /*train*/) {
  RDO_CHECK(x.rank() == 4, "GlobalAvgPool: input rank " +
                               std::to_string(x.rank()) + " != 4");
  in_shape_ = x.shape();
  const std::int64_t n = x.dim(0), c = x.dim(1), hw = x.dim(2) * x.dim(3);
  Tensor y({n, c});
  for (std::int64_t s = 0; s < n; ++s) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float* img = x.data() + (s * c + ch) * hw;
      float acc = 0.0f;
      for (std::int64_t i = 0; i < hw; ++i) acc += img[i];
      y.at(s, ch) = acc / static_cast<float>(hw);
    }
  }
  return y;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_out) {
  Tensor grad_in(in_shape_);
  const std::int64_t n = in_shape_[0], c = in_shape_[1],
                     hw = in_shape_[2] * in_shape_[3];
  const float inv = 1.0f / static_cast<float>(hw);
  for (std::int64_t s = 0; s < n; ++s) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float g = grad_out.at(s, ch) * inv;
      float* img = grad_in.data() + (s * c + ch) * hw;
      for (std::int64_t i = 0; i < hw; ++i) img[i] = g;
    }
  }
  return grad_in;
}

}  // namespace rdo::nn
