#include "nn/im2col.h"

#include <algorithm>

namespace rdo::nn {

namespace {

/// Smallest ox >= 0 with ox * stride >= a.
std::int64_t first_at_least(std::int64_t a, std::int64_t stride) {
  return a <= 0 ? 0 : (a + stride - 1) / stride;
}

/// Output columns [lo, hi) whose tap kx lands inside the input row.
struct ColRange {
  std::int64_t lo, hi;
};

ColRange valid_cols(std::int64_t kx, std::int64_t w, std::int64_t ow,
                    std::int64_t stride, std::int64_t pad) {
  const std::int64_t lo = std::min(ow, first_at_least(pad - kx, stride));
  const std::int64_t hi =
      std::clamp(first_at_least(w + pad - kx, stride), lo, ow);
  return {lo, hi};
}

}  // namespace

void im2col(const float* in, std::int64_t c, std::int64_t h, std::int64_t w,
            std::int64_t kh, std::int64_t kw, std::int64_t stride,
            std::int64_t pad, float* out) {
  const std::int64_t oh = conv_out_dim(h, kh, stride, pad);
  const std::int64_t ow = conv_out_dim(w, kw, stride, pad);
  const std::int64_t row_len = c * kh * kw;
  for (std::int64_t oy = 0; oy < oh; ++oy) {
    for (std::int64_t ox = 0; ox < ow; ++ox) {
      float* row = out + (oy * ow + ox) * row_len;
      std::int64_t idx = 0;
      for (std::int64_t ch = 0; ch < c; ++ch) {
        const float* img = in + ch * h * w;
        for (std::int64_t ky = 0; ky < kh; ++ky) {
          const std::int64_t iy = oy * stride - pad + ky;
          for (std::int64_t kx = 0; kx < kw; ++kx, ++idx) {
            const std::int64_t ix = ox * stride - pad + kx;
            row[idx] = (iy >= 0 && iy < h && ix >= 0 && ix < w)
                           ? img[iy * w + ix]
                           : 0.0f;
          }
        }
      }
    }
  }
}

void im2col_cm(const float* in, std::int64_t h, std::int64_t w,
               std::int64_t kh, std::int64_t kw, std::int64_t stride,
               std::int64_t pad, std::int64_t r0, std::int64_t r1,
               float* out) {
  const std::int64_t oh = conv_out_dim(h, kh, stride, pad);
  const std::int64_t ow = conv_out_dim(w, kw, stride, pad);
  for (std::int64_t r = r0; r < r1; ++r) {
    const float* img = in + (r / (kh * kw)) * h * w;
    const std::int64_t ky = (r / kw) % kh, kx = r % kw;
    const ColRange cr = valid_cols(kx, w, ow, stride, pad);
    float* row = out + (r - r0) * oh * ow;
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      float* dst = row + oy * ow;
      const std::int64_t iy = oy * stride - pad + ky;
      if (iy < 0 || iy >= h) {
        std::fill(dst, dst + ow, 0.0f);
        continue;
      }
      const std::int64_t base = iy * w - pad + kx;
      std::fill(dst, dst + cr.lo, 0.0f);
      if (stride == 1) {
        std::copy(img + (base + cr.lo), img + (base + cr.hi), dst + cr.lo);
      } else {
        for (std::int64_t ox = cr.lo; ox < cr.hi; ++ox) {
          dst[ox] = img[base + ox * stride];
        }
      }
      std::fill(dst + cr.hi, dst + ow, 0.0f);
    }
  }
}

void col2im_cm(const float* cols, std::int64_t c, std::int64_t h,
               std::int64_t w, std::int64_t kh, std::int64_t kw,
               std::int64_t stride, std::int64_t pad, float* in_grad) {
  const std::int64_t oh = conv_out_dim(h, kh, stride, pad);
  const std::int64_t ow = conv_out_dim(w, kw, stride, pad);
  for (std::int64_t ch = 0; ch < c; ++ch) {
    float* img = in_grad + ch * h * w;
    // A pixel is hit at most once per tap (ky, kx), by the output
    // position that grows as the tap shrinks: descending taps deliver the
    // contributions in ascending position order.
    for (std::int64_t ky = kh - 1; ky >= 0; --ky) {
      for (std::int64_t kx = kw - 1; kx >= 0; --kx) {
        const float* row = cols + ((ch * kh + ky) * kw + kx) * oh * ow;
        const ColRange cr = valid_cols(kx, w, ow, stride, pad);
        for (std::int64_t oy = 0; oy < oh; ++oy) {
          const std::int64_t iy = oy * stride - pad + ky;
          if (iy < 0 || iy >= h) continue;
          const std::int64_t base = iy * w - pad + kx;
          const float* src = row + oy * ow;
          for (std::int64_t ox = cr.lo; ox < cr.hi; ++ox) {
            img[base + ox * stride] += src[ox];
          }
        }
      }
    }
  }
}

}  // namespace rdo::nn
