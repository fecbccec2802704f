// Conv2D parity: the channel-major, sample-parallel layer must be
// bit-identical (memcmp) to the per-sample position-major im2col + GEMM
// lowering it replaced, which lives on here as the oracle together with
// the serial GEMM kernels it ran on. Dense's dX, now a GEMM against the
// transposed weight, is held to the scalar dot product it replaced.
//
// Covered: every LeNet and scaled-ResNet conv shape plus stride 2, 1x1
// with pad 0, odd H, n = 1, with and without bias; ReLU-sparse inputs,
// partly zeroed weights and gradients, and a second backward call that
// accumulates onto the first one's gradients; pool sizes 1, 2 and 4.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/im2col.h"
#include "nn/parallel.h"
#include "nn/rng.h"

using namespace rdo::nn;

namespace {

// ---- Oracle: the per-sample position-major lowering. ----

void oracle_im2col(const float* in, std::int64_t c, std::int64_t h,
                   std::int64_t w, std::int64_t k, std::int64_t stride,
                   std::int64_t pad, float* out) {
  const std::int64_t oh = conv_out_dim(h, k, stride, pad);
  const std::int64_t ow = conv_out_dim(w, k, stride, pad);
  const std::int64_t row_len = c * k * k;
  for (std::int64_t oy = 0; oy < oh; ++oy) {
    for (std::int64_t ox = 0; ox < ow; ++ox) {
      float* row = out + (oy * ow + ox) * row_len;
      std::int64_t idx = 0;
      for (std::int64_t ch = 0; ch < c; ++ch) {
        const float* img = in + ch * h * w;
        for (std::int64_t ky = 0; ky < k; ++ky) {
          const std::int64_t iy = oy * stride - pad + ky;
          for (std::int64_t kx = 0; kx < k; ++kx, ++idx) {
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

void oracle_col2im(const float* cols, std::int64_t c, std::int64_t h,
                   std::int64_t w, std::int64_t k, std::int64_t stride,
                   std::int64_t pad, float* in_grad) {
  const std::int64_t oh = conv_out_dim(h, k, stride, pad);
  const std::int64_t ow = conv_out_dim(w, k, stride, pad);
  const std::int64_t row_len = c * k * k;
  for (std::int64_t oy = 0; oy < oh; ++oy) {
    for (std::int64_t ox = 0; ox < ow; ++ox) {
      const float* row = cols + (oy * ow + ox) * row_len;
      std::int64_t idx = 0;
      for (std::int64_t ch = 0; ch < c; ++ch) {
        float* img = in_grad + ch * h * w;
        for (std::int64_t ky = 0; ky < k; ++ky) {
          const std::int64_t iy = oy * stride - pad + ky;
          for (std::int64_t kx = 0; kx < k; ++kx, ++idx) {
            const std::int64_t ix = ox * stride - pad + kx;
            if (iy >= 0 && iy < h && ix >= 0 && ix < w) {
              img[iy * w + ix] += row[idx];
            }
          }
        }
      }
    }
  }
}

/// C[M,N] += A[M,K] * B[K,N]: ikj order, zero A entries skipped.
void oracle_gemm_accumulate(const float* a, const float* b, float* c,
                            std::int64_t m, std::int64_t k, std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t p = 0; p < k; ++p) {
      const float av = a[i * k + p];
      if (av == 0.0f) continue;
      for (std::int64_t j = 0; j < n; ++j) c[i * n + j] += av * b[p * n + j];
    }
  }
}

/// C[M,N] += A^T * B[K,N] where A is stored [K,M]: p outermost, zero A
/// entries skipped.
void oracle_gemm_at_b_accumulate(const float* a, const float* b, float* c,
                                 std::int64_t m, std::int64_t k,
                                 std::int64_t n) {
  for (std::int64_t p = 0; p < k; ++p) {
    for (std::int64_t i = 0; i < m; ++i) {
      const float av = a[p * m + i];
      if (av == 0.0f) continue;
      for (std::int64_t j = 0; j < n; ++j) c[i * n + j] += av * b[p * n + j];
    }
  }
}

/// C[M,N] += A[M,K] * B^T where B is stored [N,K]: one scalar dot product
/// per element, summed over p ascending from +0.
void oracle_gemm_a_bt_accumulate(const float* a, const float* b, float* c,
                                 std::int64_t m, std::int64_t k,
                                 std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::int64_t p = 0; p < k; ++p) acc += a[i * k + p] * b[j * k + p];
      c[i * n + j] += acc;
    }
  }
}

struct Shape {
  std::string name;
  std::int64_t n, in_ch, out_ch, kernel, stride, pad, h, w;
  bool bias;
};

struct OracleConv {
  const Shape& sh;
  const Tensor& weight;  // [fan_in, out_ch]
  const Tensor& bias;    // [out_ch]

  Tensor forward(const Tensor& x) const {
    const std::int64_t oh = conv_out_dim(sh.h, sh.kernel, sh.stride, sh.pad);
    const std::int64_t ow = conv_out_dim(sh.w, sh.kernel, sh.stride, sh.pad);
    const std::int64_t positions = oh * ow;
    const std::int64_t fin = sh.in_ch * sh.kernel * sh.kernel;
    Tensor y({sh.n, sh.out_ch, oh, ow});
    std::vector<float> cols(static_cast<std::size_t>(positions * fin));
    std::vector<float> ymat(static_cast<std::size_t>(positions * sh.out_ch));
    for (std::int64_t s = 0; s < sh.n; ++s) {
      oracle_im2col(x.data() + s * sh.in_ch * sh.h * sh.w, sh.in_ch, sh.h,
                    sh.w, sh.kernel, sh.stride, sh.pad, cols.data());
      std::fill(ymat.begin(), ymat.end(), 0.0f);
      oracle_gemm_accumulate(cols.data(), weight.data(), ymat.data(),
                             positions, fin, sh.out_ch);
      float* ys = y.data() + s * sh.out_ch * positions;
      for (std::int64_t p = 0; p < positions; ++p) {
        for (std::int64_t oc = 0; oc < sh.out_ch; ++oc) {
          ys[oc * positions + p] =
              ymat[static_cast<std::size_t>(p * sh.out_ch + oc)] +
              (sh.bias ? bias[oc] : 0.0f);
        }
      }
    }
    return y;
  }

  /// Accumulates into dw / db like Conv2D::backward; returns dX.
  Tensor backward(const Tensor& x, const Tensor& grad_out, Tensor& dw,
                  Tensor& db) const {
    const std::int64_t positions = grad_out.dim(2) * grad_out.dim(3);
    const std::int64_t fin = sh.in_ch * sh.kernel * sh.kernel;
    const std::int64_t oc_n = sh.out_ch;
    Tensor grad_in({sh.n, sh.in_ch, sh.h, sh.w});
    std::vector<float> cols(static_cast<std::size_t>(positions * fin));
    std::vector<float> gmat(static_cast<std::size_t>(positions * oc_n));
    std::vector<float> dcols(static_cast<std::size_t>(positions * fin));
    for (std::int64_t s = 0; s < sh.n; ++s) {
      oracle_im2col(x.data() + s * sh.in_ch * sh.h * sh.w, sh.in_ch, sh.h,
                    sh.w, sh.kernel, sh.stride, sh.pad, cols.data());
      const float* gs = grad_out.data() + s * oc_n * positions;
      for (std::int64_t oc = 0; oc < oc_n; ++oc) {
        for (std::int64_t p = 0; p < positions; ++p) {
          gmat[static_cast<std::size_t>(p * oc_n + oc)] =
              gs[oc * positions + p];
        }
      }
      oracle_gemm_at_b_accumulate(cols.data(), gmat.data(), dw.data(), fin,
                                  positions, oc_n);
      if (sh.bias) {
        for (std::int64_t oc = 0; oc < oc_n; ++oc) {
          float acc = 0.0f;
          for (std::int64_t p = 0; p < positions; ++p) {
            acc += gs[oc * positions + p];
          }
          db[oc] += acc;
        }
      }
      std::fill(dcols.begin(), dcols.end(), 0.0f);
      oracle_gemm_a_bt_accumulate(gmat.data(), weight.data(), dcols.data(),
                                  positions, oc_n, fin);
      oracle_col2im(dcols.data(), sh.in_ch, sh.h, sh.w, sh.kernel, sh.stride,
                    sh.pad, grad_in.data() + s * sh.in_ch * sh.h * sh.w);
    }
    return grad_in;
  }
};

// ---- Inputs. ----

/// Uniform in [-1, 1) with a share of exact zeros.
Tensor sparse_tensor(std::vector<std::int64_t> shape, Rng& rng,
                     double zero_share) {
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.size(); ++i) {
    t[i] = rng.uniform(0.0, 1.0) < zero_share
               ? 0.0f
               : static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return t;
}

/// Post-ReLU activations: about half the entries are exactly zero.
Tensor relu_input(const Shape& sh, Rng& rng) {
  Tensor x({sh.n, sh.in_ch, sh.h, sh.w});
  for (std::int64_t i = 0; i < x.size(); ++i) {
    x[i] = std::max(0.0f, static_cast<float>(rng.uniform(-1.0, 1.0)));
  }
  return x;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.size()) * sizeof(float)) == 0;
}

/// Pins the pool size for one scope; 0 restores the environment default.
struct ThreadGuard {
  explicit ThreadGuard(int n) { set_thread_count(n); }
  ~ThreadGuard() { set_thread_count(0); }
  ThreadGuard(const ThreadGuard&) = delete;
  ThreadGuard& operator=(const ThreadGuard&) = delete;
};

class ConvParity : public ::testing::TestWithParam<Shape> {};

TEST_P(ConvParity, BitIdenticalToPerSampleLowering) {
  const Shape& sh = GetParam();
  for (int threads : {1, 2, 4}) {
    const ThreadGuard guard(threads);
    SCOPED_TRACE(sh.name + " at " + std::to_string(threads) + " threads");
    Rng rng(static_cast<std::uint64_t>(sh.in_ch * 131 + sh.out_ch * 17 +
                                       sh.kernel * 5 + sh.h));
    Conv2D conv(sh.in_ch, sh.out_ch, sh.kernel, sh.stride, sh.pad, rng,
                sh.bias);
    // Zeroed weights: a scattered 20 %, plus one whole output channel
    // and one whole receptive-field row.
    Tensor& w = conv.weight_param().value;
    const std::int64_t fin = conv.fan_in();
    for (std::int64_t r = 0; r < fin; ++r) {
      for (std::int64_t oc = 0; oc < sh.out_ch; ++oc) {
        if (rng.uniform(0.0, 1.0) < 0.2 || oc == sh.out_ch / 2 ||
            r == fin / 3) {
          w.at(r, oc) = 0.0f;
        }
      }
    }
    if (sh.bias) {
      Tensor& b = conv.bias_param().value;
      for (std::int64_t oc = 0; oc < sh.out_ch; ++oc) {
        b[oc] = static_cast<float>(rng.uniform(-0.5, 0.5));
      }
    }
    const OracleConv oracle{sh, w, conv.bias_param().value};
    Tensor dw_ref(w.shape()), db_ref({sh.out_ch});

    // Two forward/backward rounds without zeroing: the second backward
    // accumulates onto the first one's gradients in both paths.
    for (int round = 0; round < 2; ++round) {
      const Tensor x = relu_input(sh, rng);
      const Tensor y = conv.forward(x, /*train=*/false);
      ASSERT_TRUE(same_bits(y, oracle.forward(x))) << "y, round " << round;
      const Tensor g = sparse_tensor(y.shape(), rng, 0.3);
      const Tensor dx = conv.backward(g);
      const Tensor dx_ref = oracle.backward(x, g, dw_ref, db_ref);
      EXPECT_TRUE(same_bits(dx, dx_ref)) << "dX, round " << round;
      EXPECT_TRUE(same_bits(conv.weight_param().grad, dw_ref))
          << "dW, round " << round;
      EXPECT_TRUE(same_bits(conv.bias_param().grad, db_ref))
          << "bias grad, round " << round;
    }
  }
}

std::vector<Shape> shapes() {
  return {
      // LeNet (28x28 MNIST-like input).
      {"lenet_conv1", 3, 1, 6, 5, 1, 2, 28, 28, true},
      {"lenet_conv2", 3, 6, 16, 5, 1, 0, 14, 14, true},
      // Scaled ResNet (base 8 channels, 32x32 CIFAR-like input).
      {"resnet_stem", 2, 3, 8, 3, 1, 1, 32, 32, false},
      {"resnet_stage1", 2, 8, 8, 3, 1, 1, 32, 32, false},
      {"resnet_stage2_down", 2, 8, 16, 3, 2, 1, 32, 32, false},
      {"resnet_stage2", 2, 16, 16, 3, 1, 1, 16, 16, false},
      {"resnet_stage2_shortcut", 2, 8, 16, 1, 2, 0, 32, 32, false},
      {"resnet_stage3_down", 2, 16, 32, 3, 2, 1, 16, 16, false},
      {"resnet_stage3", 2, 32, 32, 3, 1, 1, 8, 8, false},
      {"resnet_stage3_shortcut", 2, 16, 32, 1, 2, 0, 16, 16, false},
      // Edge geometries.
      {"pointwise_pad0", 3, 4, 6, 1, 1, 0, 7, 7, true},
      {"odd_h_stride2", 3, 3, 5, 3, 2, 1, 9, 11, true},
      {"odd_h_no_bias", 2, 5, 7, 3, 1, 1, 9, 9, false},
      {"single_sample", 1, 6, 16, 5, 1, 0, 14, 14, true},
      {"single_sample_no_bias", 1, 8, 16, 3, 2, 1, 15, 15, false},
  };
}

INSTANTIATE_TEST_SUITE_P(Shapes, ConvParity, ::testing::ValuesIn(shapes()),
                         [](const ::testing::TestParamInfo<Shape>& info) {
                           return info.param.name;
                         });

TEST(DenseParity, BackwardBitIdenticalToScalarDotProduct) {
  // LeNet's classifier shapes, batch 3 and 1, ReLU-sparse gradients and
  // partly zeroed weights.
  struct DenseShape {
    std::int64_t n, in, out;
  };
  for (const DenseShape ds : {DenseShape{3, 400, 120}, DenseShape{3, 120, 84},
                              DenseShape{1, 84, 10}}) {
    for (int threads : {1, 2, 4}) {
      const ThreadGuard guard(threads);
      SCOPED_TRACE(std::to_string(ds.in) + "->" + std::to_string(ds.out) +
                   " at " + std::to_string(threads) + " threads");
      Rng rng(static_cast<std::uint64_t>(ds.in + ds.out));
      Dense dense(ds.in, ds.out, rng);
      Tensor& w = dense.weight_param().value;
      for (std::int64_t i = 0; i < w.size(); ++i) {
        if (rng.uniform(0.0, 1.0) < 0.2) w[i] = 0.0f;
      }
      const Tensor x = sparse_tensor({ds.n, ds.in}, rng, 0.5);
      (void)dense.forward(x, /*train=*/false);
      const Tensor g = sparse_tensor({ds.n, ds.out}, rng, 0.3);
      Tensor dx_ref({ds.n, ds.in});
      oracle_gemm_a_bt_accumulate(g.data(), w.data(), dx_ref.data(), ds.n,
                                  ds.out, ds.in);
      EXPECT_TRUE(same_bits(dense.backward(g), dx_ref));
    }
  }
}

}  // namespace
