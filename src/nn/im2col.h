// im2col / col2im transforms for convolution lowering.
//
// Two layouts of the same patch matrix. Entry r of a receptive field is
// r = (ch * KH + ky) * KW + kx, the row order of the crossbar weight.
//   position-major [OH*OW, C*KH*KW]: one row per output position (the
//     vector the device simulator drives onto the wordlines);
//   channel-major  [C*KH*KW, OH*OW]: one row per receptive-field entry,
//     so the GEMMs of Conv2D run their long inner loop over positions.
#pragma once

#include <cstdint>

namespace rdo::nn {

/// Position-major patch matrix of one [C, H, W] image:
///   out : [OH*OW, C*KH*KW] row-major.
/// Zero padding `pad` on both sides, stride `stride`.
void im2col(const float* in, std::int64_t c, std::int64_t h, std::int64_t w,
            std::int64_t kh, std::int64_t kw, std::int64_t stride,
            std::int64_t pad, float* out);

/// Rows [r0, r1) of the channel-major patch matrix of one [C, H, W]
/// image (all of it for r0 = 0, r1 = C*KH*KW):
///   out : [r1 - r0, OH*OW] row-major (row i holds entry r0 + i).
void im2col_cm(const float* in, std::int64_t h, std::int64_t w,
               std::int64_t kh, std::int64_t kw, std::int64_t stride,
               std::int64_t pad, std::int64_t r0, std::int64_t r1,
               float* out);

/// Adjoint of im2col_cm: scatter-adds a channel-major [C*KH*KW, OH*OW]
/// matrix into the image gradient `in_grad` ([C, H, W], pre-zeroed or
/// holding values to accumulate onto). Walks (ky, kx) descending, so each
/// pixel receives its contributions in ascending output-position order —
/// the order a position-major scatter would use.
void col2im_cm(const float* cols, std::int64_t c, std::int64_t h,
               std::int64_t w, std::int64_t kh, std::int64_t kw,
               std::int64_t stride, std::int64_t pad, float* in_grad);

/// Output spatial size of a convolution dimension.
inline std::int64_t conv_out_dim(std::int64_t in, std::int64_t k,
                                 std::int64_t stride, std::int64_t pad) {
  return (in + 2 * pad - k) / stride + 1;
}

}  // namespace rdo::nn
