#include "nn/conv2d.h"

#include <algorithm>
#include <vector>

#include "core/check.h"
#include "nn/gemm.h"
#include "nn/im2col.h"
#include "nn/parallel.h"

namespace rdo::nn {

Conv2D::Conv2D(std::int64_t in_ch, std::int64_t out_ch, std::int64_t kernel,
               std::int64_t stride, std::int64_t pad, Rng& rng, bool bias)
    : in_ch_(in_ch),
      out_ch_(out_ch),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      has_bias_(bias),
      weight_({in_ch * kernel * kernel, out_ch}),
      bias_({out_ch}) {
  weight_.value.kaiming_init(rng, fan_in());
  bias_.trainable = bias;
}

Tensor Conv2D::forward(const Tensor& x, bool /*train*/) {
  RDO_CHECK(x.rank() == 4 && x.dim(1) == in_ch_,
            "Conv2D::forward: bad input " + x.shape_str() + " for " +
                std::to_string(in_ch_) + " input channels");
  cached_in_ = x;
  const std::int64_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const std::int64_t oh = conv_out_dim(h, kernel_, stride_, pad_);
  const std::int64_t ow = conv_out_dim(w, kernel_, stride_, pad_);
  const std::int64_t positions = oh * ow;
  const std::int64_t fin = fan_in();

  // Y_s[oc, :] += W^T[oc, r] * cols_s[r, :], r ascending from +0: the
  // per-element sum of the position-major GEMM (see DESIGN.md §5c).
  std::vector<float> wt(static_cast<std::size_t>(out_ch_ * fin));
  transpose(weight_.value.data(), wt.data(), fin, out_ch_);
  Tensor y({n, out_ch_, oh, ow});
  parallel_for(n, [&](std::int64_t s0, std::int64_t s1) {
    std::vector<float> cols(static_cast<std::size_t>(fin * positions));
    for (std::int64_t s = s0; s < s1; ++s) {
      im2col_cm(x.data() + s * in_ch_ * h * w, h, w, kernel_, kernel_,
                stride_, pad_, 0, fin, cols.data());
      float* ys = y.data() + s * out_ch_ * positions;
      gemm_accumulate(wt.data(), cols.data(), ys, out_ch_, fin, positions);
      if (!has_bias_) continue;
      for (std::int64_t oc = 0; oc < out_ch_; ++oc) {
        const float b = bias_.value[oc];
        for (std::int64_t p = 0; p < positions; ++p) {
          ys[oc * positions + p] += b;
        }
      }
    }
  });
  return y;
}

Tensor Conv2D::backward(const Tensor& grad_out) {
  RDO_CHECK(cached_in_.rank() == 4 &&
                weight_.grad.size() == weight_.value.size(),
            "Conv2D::backward: needs a forward() and allocated gradients");
  const Tensor& x = cached_in_;
  const std::int64_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const std::int64_t oh = grad_out.dim(2), ow = grad_out.dim(3);
  const std::int64_t positions = oh * ow;
  const std::int64_t fin = fan_in();
  const float* g = grad_out.data();

  // dX: dcols_s[r, :] += W[r, oc] * G_s[oc, :], oc ascending, scattered
  // back through col2im_cm.
  Tensor grad_in({n, in_ch_, h, w});
  parallel_for(n, [&](std::int64_t s0, std::int64_t s1) {
    std::vector<float> dcols(static_cast<std::size_t>(fin * positions));
    for (std::int64_t s = s0; s < s1; ++s) {
      std::fill(dcols.begin(), dcols.end(), 0.0f);
      gemm_accumulate(weight_.value.data(), g + s * out_ch_ * positions,
                      dcols.data(), fin, out_ch_, positions);
      col2im_cm(dcols.data(), in_ch_, h, w, kernel_, kernel_, stride_, pad_,
                grad_in.data() + s * in_ch_ * h * w);
    }
  });

  // dW: each chunk owns receptive-field rows [r0, r1) and accumulates
  // dW[r, oc] += cols_s[r, p] * G_s[oc, p] over (sample, position)
  // ascending, onto the existing gradient. One chunk per pool thread keeps
  // the rows long; the result does not depend on the split.
  const std::int64_t per_thread =
      (fin + thread_count() - 1) / static_cast<std::int64_t>(thread_count());
  parallel_for(
      fin,
      [&](std::int64_t r0, std::int64_t r1) {
        const std::int64_t rows = r1 - r0;
        std::vector<float> cols(static_cast<std::size_t>(rows * positions));
        std::vector<float> gt(static_cast<std::size_t>(positions * out_ch_));
        for (std::int64_t s = 0; s < n; ++s) {
          im2col_cm(x.data() + s * in_ch_ * h * w, h, w, kernel_, kernel_,
                    stride_, pad_, r0, r1, cols.data());
          transpose(g + s * out_ch_ * positions, gt.data(), out_ch_,
                    positions);
          gemm_accumulate(cols.data(), gt.data(),
                          weight_.grad.data() + r0 * out_ch_, rows,
                          positions, out_ch_);
        }
      },
      per_thread);

  if (has_bias_) {
    for (std::int64_t s = 0; s < n; ++s) {
      const float* gs = g + s * out_ch_ * positions;
      for (std::int64_t oc = 0; oc < out_ch_; ++oc) {
        float acc = 0.0f;
        for (std::int64_t p = 0; p < positions; ++p) {
          acc += gs[oc * positions + p];
        }
        bias_.grad[oc] += acc;
      }
    }
  }
  return grad_in;
}

void Conv2D::release_caches() { cached_in_ = Tensor(); }

std::vector<Param*> Conv2D::params() {
  std::vector<Param*> p{&weight_};
  if (has_bias_) p.push_back(&bias_);
  return p;
}

}  // namespace rdo::nn
